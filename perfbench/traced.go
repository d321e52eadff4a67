package main

import (
	"fmt"
	"time"

	"mrtext/internal/cluster"
	"mrtext/internal/fabric"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/trace"
	"mrtext/internal/trace/critpath"
	"mrtext/internal/vdisk"
)

const mib = 1 << 20

// tracedRun is the result of a traced run: the per-layer metrics of its
// first traced job plus the job counts over every job it ran.
type tracedRun struct {
	layers    map[string]float64
	attempted int
	failed    int
}

// traceCapacity sizes a job's tracer so its ring never wraps. Segments
// dominate the event volume (splits × partitions, each with a copy span
// and a handful of wait/spill/fetch spans); the default capacity is the
// floor.
func traceCapacity(splits, partitions int) int {
	return 12*splits*partitions + 64*splits + trace.DefaultCapacity
}

// layerRun is a workload set up once, with the per-layer metrics of its
// first traced job and the ingest pass.
type layerRun struct {
	c        *cluster.Cluster
	capacity int
	first    jobSample
	layers   map[string]float64
}

// measureLayers sets the workload up and measures its layers: one traced
// job with the disk decorator installed, then the standalone ingest pass
// over the job's splits. It fails when the tracer dropped events or the
// critical-path blame does not add up to the phase walls.
func measureLayers(w workload, seed int64) (*layerRun, error) {
	c, _, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	splits, err := mr.SplitsOf(c.FS, w.job().Inputs)
	if err != nil {
		return nil, err
	}
	lr := &layerRun{c: c, capacity: traceCapacity(len(splits), c.TotalReduceSlots())}
	lr.first, lr.layers, err = probedJob(c, w.job(), lr.capacity)
	if err != nil {
		return nil, err
	}
	records, consumed, read, err := ingestPass(c, splits)
	if err != nil {
		return nil, fmt.Errorf("ingest pass: %w", err)
	}
	lr.layers["mr.ingest.records"] = float64(records)
	lr.layers["mr.ingest.read_s"] = read.Seconds()
	lr.layers["mr.ingest.mib_per_s"] = float64(consumed) / mib / read.Seconds()
	return lr, nil
}

// runTraced measures the workload's layers, then alternates untraced and
// traced jobs (no decorator) until the measuring time has passed, for the
// tracing overhead. Every job's output is checked against
// mr.RunReference at the end.
func runTraced(w workload, seed int64, seconds time.Duration) (*tracedRun, error) {
	lr, err := measureLayers(w, seed)
	if err != nil {
		return nil, err
	}
	c := lr.c
	samples := []jobSample{lr.first}
	var plain, traced []time.Duration
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < seconds {
		s := runJob(c, w.job())
		plain = append(plain, s.wall)
		samples = append(samples, s)

		job := w.job()
		tr := trace.New(lr.capacity)
		job.Trace = tr
		s = runJob(c, job)
		if d := tr.Dropped(); d > 0 {
			return nil, fmt.Errorf("tracer dropped %d events; raise traceCapacity", d)
		}
		traced = append(traced, s.wall)
		samples = append(samples, s)
	}
	lr.layers["trace.overhead_frac"] = median(traced).Seconds()/median(plain).Seconds() - 1

	ref, err := mr.RunReference(c, w.job())
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &tracedRun{
		layers:    lr.layers,
		attempted: len(samples),
		failed:    countFailures(samples, referenceDigests(ref)),
	}, nil
}

// probedJob runs one traced job with a timing decorator around every node
// disk and returns its sample and per-layer metrics.
func probedJob(c *cluster.Cluster, job *mr.Job, capacity int) (jobSample, map[string]float64, error) {
	tr := trace.New(capacity)
	job.Trace = tr

	orig := append([]vdisk.Disk(nil), c.Disks...)
	probes := make([]*timedDisk, len(orig))
	disk0 := diskTotals(c)
	net0 := c.Net.Stats()
	in0 := nodeBytesIn(c.Net)
	for i, d := range orig {
		probes[i] = &timedDisk{inner: d}
		c.Disks[i] = probes[i]
	}
	s := timeJob(c, job)
	copy(c.Disks, orig)
	disk1 := diskTotals(c)
	net1 := c.Net.Stats()
	in1 := nodeBytesIn(c.Net)
	collect(c, &s)
	if s.err != nil {
		return s, nil, fmt.Errorf("traced job: %w", s.err)
	}
	if d := tr.Dropped(); d > 0 {
		return s, nil, fmt.Errorf("tracer dropped %d events; raise traceCapacity", d)
	}
	events := tr.Events()
	report, err := critpath.Analyze(events, critpath.Options{})
	if err != nil {
		return s, nil, err
	}
	if err := checkBlameIdentity(report); err != nil {
		return s, nil, err
	}

	m := resultLayers(s.res)
	for k, v := range blameLayers(report) {
		m[k] = v
	}
	var decisions int
	var pctSum float64
	for _, e := range events {
		if e.Kind == trace.KindSpillDecision {
			decisions++
			pctSum += float64(e.Arg) / 10000 // basis points
		}
	}
	// TaskReport.SpillPcts is never filled in, so the spill controller's
	// decisions are read from the trace instead.
	m["spillmatch.decisions"] = float64(decisions)
	m["spillmatch.mean_spill_pct"] = ratio(pctSum, float64(decisions))
	m["trace.events"] = float64(len(events))
	m["trace.dropped"] = float64(tr.Dropped())

	m["vdisk.write_mib"] = float64(disk1.BytesWritten-disk0.BytesWritten) / mib
	m["vdisk.read_mib"] = float64(disk1.BytesRead-disk0.BytesRead) / mib
	m["vdisk.ops"] = float64(disk1.Creates - disk0.Creates + disk1.Opens - disk0.Opens)
	var callNS, maxNodeNS, probedBytes int64
	for _, p := range probes {
		ns := p.ns.Load()
		callNS += ns
		maxNodeNS = max(maxNodeNS, ns)
		probedBytes += p.read.Load() + p.wrote.Load()
	}
	m["vdisk.call_s"] = time.Duration(callNS).Seconds()
	m["vdisk.max_node_call_s"] = time.Duration(maxNodeNS).Seconds()
	statBytes := disk1.BytesRead - disk0.BytesRead + disk1.BytesWritten - disk0.BytesWritten
	m["vdisk.decorator_byte_share"] = ratio(float64(probedBytes), float64(statBytes))

	m["fabric.mib"] = float64(net1.BytesMoved-net0.BytesMoved) / mib
	m["fabric.transfers"] = float64(net1.Transfers - net0.Transfers)
	m["fabric.max_in_flight"] = float64(net1.MaxInFlight)
	var maxIn int64
	for i := range in1 {
		maxIn = max(maxIn, in1[i]-in0[i])
	}
	m["fabric.max_node_in_mib"] = float64(maxIn) / mib
	return s, m, nil
}

// resultLayers derives the per-layer metrics mr.Run reports itself.
func resultLayers(res *mr.Result) map[string]float64 {
	agg := res.Agg
	op := func(o metrics.Op) float64 { return agg.Ops[o].Seconds() }
	ctr := func(name string) float64 { return float64(agg.Counters[name]) }
	fs := res.FreqStats()

	var queue time.Duration
	for _, t := range res.Tasks {
		queue += t.QueueWait
	}

	return map[string]float64{
		"apps.map_user_s":     op(metrics.OpMapUser),
		"apps.combine_user_s": op(metrics.OpCombineUser),
		"apps.reduce_user_s":  op(metrics.OpReduceUser),

		"spillbuf.emit_s":            op(metrics.OpEmit),
		"spillbuf.spills":            float64(res.SpillStats().Spills),
		"spillbuf.map_idle_frac":     res.MapIdleFraction(),
		"spillbuf.support_idle_frac": res.SupportIdleFraction(),

		"kvio.sort_s":         op(metrics.OpSort),
		"kvio.merge_s":        op(metrics.OpMerge),
		"kvio.spill_records":  ctr(metrics.CtrSpillRecords),
		"kvio.spill_mib":      ctr(metrics.CtrSpillBytes) / mib,
		"kvio.merge_mib":      ctr(metrics.CtrMergeBytes) / mib,
		"kvio.combine_out_in": ratio(ctr(metrics.CtrCombineOutRecords), ctr(metrics.CtrCombineInRecords)),

		"freqbuf.profile_s": op(metrics.OpProfile),
		"freqbuf.hit_ratio": ratio(float64(fs.Hits), float64(fs.Hits+fs.Misses)),
		"freqbuf.evictions": float64(fs.Evictions),
		"freqbuf.profiled":  float64(fs.Profiled),

		"mr.shuffle.op_s":             op(metrics.OpShuffle),
		"mr.shuffle.mib":              ctr(metrics.CtrShuffleBytes) / mib,
		"mr.shuffle.segments":         float64(res.ShuffleBatchSegments),
		"mr.shuffle.early_frac":       ratio(float64(res.ShuffleEarlySegments), float64(res.ShuffleBatchSegments)),
		"mr.shuffle.batch_factor":     ratio(float64(res.ShuffleBatchSegments), float64(res.ShuffleBatchFetches)),
		"mr.shuffle.staged_spills":    float64(res.ShuffleStagedSpills),
		"mr.shuffle.staging_peak_mib": float64(res.ShuffleStagingPeak) / mib,
		"mr.shuffle.gov_throttles":    float64(res.ShuffleGovThrottles),
		"mr.shuffle.wire_saved_mib":   float64(res.ShuffleWireSavedBytes) / mib,

		"dfs.output_io_s": op(metrics.OpOutputIO),
		"dfs.output_mib":  ctr(metrics.CtrOutputBytes) / mib,

		"mr.map_wall_s":       res.MapWall.Seconds(),
		"mr.reduce_wall_s":    res.ReduceWall.Seconds(),
		"mr.attempts":         float64(res.MapAttempts + res.ReduceAttempts),
		"mr.failed_attempts":  float64(res.FailedAttempts),
		"mr.stolen_map_tasks": float64(res.StolenMapTasks),
		"mr.queue_wait_s":     queue.Seconds(),
	}
}

// blameLayers flattens the critical-path report into blame.* and
// activity.* metrics.
func blameLayers(r *critpath.Report) map[string]float64 {
	m := make(map[string]float64)
	for c := critpath.Cause(0); c < critpath.NumCauses; c++ {
		m[blameName("map", c)] = r.Map.Causes[c].Seconds()
		m[blameName("reduce", c)] = r.Reduce.Causes[c].Seconds()
	}
	m["activity.copier-steal_s"] = r.Activity[critpath.CauseCopierSteal].Seconds()
	m["activity.governor-wait_s"] = r.Activity[critpath.CauseGovernorWait].Seconds()
	return m
}

// chainSlack is critpath's tolerance for adjacent critical-path steps
// whose boundary clock reads straddle each other.
const chainSlack = 2 * time.Millisecond

// checkBlameIdentity checks that each phase's causes sum to the phase's
// wall time, up to the chaining slack of each step in the phase.
func checkBlameIdentity(r *critpath.Report) error {
	var steps [2]int
	for _, s := range r.Path {
		if s.Start >= r.MapEnd {
			steps[1]++
		} else {
			steps[0]++
		}
	}
	for i, p := range []critpath.PhaseBlame{r.Map, r.Reduce} {
		var sum time.Duration
		for _, d := range p.Causes {
			sum += d
		}
		if diff := (sum - p.Wall).Abs(); diff > time.Duration(steps[i])*chainSlack {
			return fmt.Errorf("critpath %s blame sums to %v, phase wall %v (%d steps)",
				[]string{"map", "reduce"}[i], sum, p.Wall, steps[i])
		}
	}
	return nil
}

// ingestPass reads every split once with the batched block reader, on
// one goroutine, from the split's first replica host.
func ingestPass(c *cluster.Cluster, splits []mr.Split) (records, consumed int64, d time.Duration, err error) {
	start := time.Now()
	for _, sp := range splits {
		node := 0
		if len(sp.Hosts) > 0 {
			node = sp.Hosts[0]
		}
		r, err := mr.OpenSplitBatched(c.FS, sp, node, 0)
		if err != nil {
			return 0, 0, 0, err
		}
		for {
			_, _, ok, err := r.Next()
			if err != nil {
				r.Close()
				return 0, 0, 0, err
			}
			if !ok {
				break
			}
			records++
		}
		consumed += r.Consumed()
		if err := r.Close(); err != nil {
			return 0, 0, 0, err
		}
	}
	return records, consumed, time.Since(start), nil
}

func diskTotals(c *cluster.Cluster) vdisk.Stats {
	var t vdisk.Stats
	for _, d := range c.Disks {
		s := d.Stats()
		t.BytesWritten += s.BytesWritten
		t.BytesRead += s.BytesRead
		t.Creates += s.Creates
		t.Opens += s.Opens
	}
	return t
}

func nodeBytesIn(f *fabric.Fabric) []int64 {
	in := make([]int64, f.Nodes())
	for i := range in {
		if s, err := f.NodeStats(i); err == nil {
			in[i] = s.BytesIn
		}
	}
	return in
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
