// Command perfbench is the repository's benchmark: it runs one workload
// through mr.Run in this process and prints the end-to-end metrics of
// untraced jobs (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). Every job's output is checked against mr.RunReference.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// host, toolchain, revision, seed and sample counts. README.md documents
// the workloads and metrics. run.py builds the command and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

const (
	// setupRuns is how many times an untraced run sets its workload up;
	// setup_s is their median.
	setupRuns = 3
	// deadline stops a run that would overrun its time limit.
	deadline = 175 * time.Second
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance is printed with every result.
type provenance struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Rev        string            `json:"rev"`
	Samples    map[string]int    `json:"samples"`
	JobWalls   []float64         `json:"job_walls_s,omitempty"`
	JobCPU     []float64         `json:"job_cpu_s,omitempty"`
	Tags       map[string]string `json:"tags,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
}

func main() {
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(2)
	})
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name (see README.md)")
	seed := fl.Int64("seed", 1, "seed for the generated inputs")
	seconds := fl.Int("seconds", runSeconds, "measuring time per run")
	traced := fl.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	rev := fl.String("rev", "unknown", "source revision recorded with the result")
	spec := fl.Bool("spec", false, "print the BENCHMARK.json this benchmark implements and exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *spec {
		return writeSpec(stdout)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	measure := time.Duration(*seconds) * time.Second
	prov := provenance{
		Workload:   w.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *traced == 1,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Rev:        *rev,
	}
	res := result{Metrics: make(map[string]metricValue)}

	if *traced == 1 {
		tr, err := runTraced(w, *seed, measure)
		if err != nil {
			return err
		}
		prov.Samples = map[string]int{"jobs": tr.attempted}
		prov.Tags = make(map[string]string)
		for _, d := range perLayer {
			v, ok := tr.layers[d.name]
			if !ok {
				return fmt.Errorf("traced run produced no %s", d.name)
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			prov.Tags[d.name] = tag(d)
		}
		prov.Notes = []string{
			"per-layer metrics come from the first traced job; vdisk.call_s from a timing decorator around every Cluster.Disks entry during that job only",
			"the DFS shares the Cluster.Disks slice, so the decorator also sees DFS block I/O: vdisk.decorator_byte_share is the share of the vdisk.Stats byte deltas it saw",
			"mr.ingest.* come from a separate single-goroutine pass over the job's splits after the traced job",
			"trace.overhead_frac compares the median traced and untraced job walls of the alternating jobs that follow",
		}
		res.Attempted, res.Failed = tr.attempted, tr.failed
	} else {
		tr, err := runTimed(w, *seed, measure, setupRuns)
		if err != nil {
			return err
		}
		var walls, cpus []time.Duration
		for _, s := range tr.samples {
			walls = append(walls, s.wall)
			cpus = append(cpus, s.cpu)
			prov.JobWalls = append(prov.JobWalls, s.wall.Seconds())
			prov.JobCPU = append(prov.JobCPU, s.cpu.Seconds())
		}
		vals := map[string]float64{
			"job_wall_s":   median(walls).Seconds(),
			"cpu_s":        median(cpus).Seconds(),
			"setup_s":      median(tr.setups).Seconds(),
			"peak_rss_mib": tr.peakRSS,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
		prov.Samples = map[string]int{"jobs": len(tr.samples), "setups": len(tr.setups)}
		prov.Notes = []string{
			"job_wall_s and cpu_s are medians over the timed jobs; no tail percentile is reported because no run holds ten samples beyond one",
			"attempted counts timed jobs; failed counts jobs that errored or whose output differs from mr.RunReference",
		}
		res.Attempted, res.Failed = len(tr.samples), tr.failed
	}
	res.Correct = res.Failed == 0

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		return err
	}
	return enc.Encode(res)
}

func tag(d metricDef) string {
	if d.exact {
		return "exact"
	}
	return "timed"
}
