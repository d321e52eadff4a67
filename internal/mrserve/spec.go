// Package mrserve is the long-lived multi-tenant job service: one
// cluster/DFS/fabric substrate constructed once, an HTTP JSON API for
// submitting, watching, and canceling jobs against it, a bounded queue
// with admission control in front of the runtime, and deficit-round-robin
// fair scheduling across tenants. It is the piece that turns the one-shot
// mrrun pipeline into the shared-cluster setting the related work assumes
// (a stream of jobs contending for one communication budget), and it is
// where the runtime's per-job isolation — private tracer, private chaos
// injector, private histogram sink per job — pays off: concurrent jobs
// produce byte-identical outputs and isolated Result counters versus
// serial runs.
package mrserve

import (
	"fmt"
	"io"
	"strings"

	"mrtext/internal/apps"
	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// Apps lists the submittable application names.
var appNames = map[string]bool{
	"wordcount": true, "invertedindex": true, "wordpostag": true,
	"syntext": true, "accesslogsum": true, "accesslogjoin": true,
	"pagerank": true,
}

// ChaosSpec configures per-job fault injection on a submitted job. The
// injector built from it is private to the job: its faults and
// manufactured stragglers never touch a neighboring tenant's tasks.
// There is deliberately no node-kill knob — node death is a cluster-wide
// condition, not something one tenant may inflict on the others.
type ChaosSpec struct {
	// Seed drives the deterministic fault schedule.
	Seed int64 `json:"seed"`
	// FailRate is the per-attempt fault probability in [0,1].
	FailRate float64 `json:"fail_rate"`
	// DelayRate is the per-attempt manufactured-straggler probability.
	DelayRate float64 `json:"delay_rate,omitempty"`
}

// Spec is the JSON job specification — the single source of truth for
// job construction shared by the mrserve API and the mrrun CLI, so a job
// submitted over HTTP and a job built from flags go through identical
// validation and knob application.
type Spec struct {
	// App names the application: wordcount, invertedindex, wordpostag,
	// syntext, accesslogsum, accesslogjoin, or pagerank.
	App string `json:"app"`
	// InputMB sizes the generated input dataset in MiB (default 16).
	InputMB int64 `json:"input_mb,omitempty"`
	// Reducers overrides the reduce-task count (0 = cluster slots).
	Reducers int `json:"reducers,omitempty"`
	// SpillBufferKB sizes the map-side spill buffer (0 = runtime default).
	SpillBufferKB int64 `json:"spill_buffer_kb,omitempty"`
	// FreqBuf enables frequency-buffering with the paper's per-app config.
	FreqBuf bool `json:"freqbuf,omitempty"`
	// SpillMatcher enables the adaptive spill-percentage controller.
	SpillMatcher bool `json:"spillmatcher,omitempty"`
	// Speculation enables backup attempts for stragglers.
	Speculation bool `json:"speculation,omitempty"`
	// PosIterations is the WordPOSTag CPU-intensity knob (0 = default 8).
	PosIterations int `json:"pos_iterations,omitempty"`
	// SynTextCPU and SynTextStorage parameterize SynText (defaults 4, 0.5).
	SynTextCPU     int     `json:"syntext_cpu,omitempty"`
	SynTextStorage float64 `json:"syntext_storage,omitempty"`
	// ShuffleCopiers is the pipelined shuffle's per-partition fan-out
	// (0 = default 4); SerialShuffle disables pipelining entirely.
	ShuffleCopiers int  `json:"shuffle_copiers,omitempty"`
	SerialShuffle  bool `json:"serial_shuffle,omitempty"`
	// ShuffleBufferMB bounds the staging buffer (0 = default 32 MiB).
	ShuffleBufferMB int64 `json:"shuffle_buffer_mb,omitempty"`
	// Chaos, when non-nil, runs the job under a private fault injector.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
}

// Normalize applies spec-level defaults (not runtime defaults — those
// stay in mr.Job.withDefaults) and lowercases the app name.
func (s *Spec) Normalize() {
	s.App = strings.ToLower(strings.TrimSpace(s.App))
	if s.InputMB <= 0 {
		s.InputMB = 16
	}
	if s.PosIterations <= 0 {
		s.PosIterations = 8
	}
	if s.SynTextCPU <= 0 {
		s.SynTextCPU = 4
	}
	if s.SynTextStorage <= 0 {
		s.SynTextStorage = 0.5
	}
}

// Validate checks the normalized spec. It is the one validation gate for
// both submission paths; BuildJob assumes it passed.
func (s *Spec) Validate() error {
	if !appNames[s.App] {
		return fmt.Errorf("mrserve: unknown app %q", s.App)
	}
	if s.InputMB > 1<<20 {
		return fmt.Errorf("mrserve: input_mb %d is absurd (max %d)", s.InputMB, 1<<20)
	}
	if s.SynTextStorage < 0 || s.SynTextStorage > 1 {
		return fmt.Errorf("mrserve: syntext_storage %v outside [0,1]", s.SynTextStorage)
	}
	if c := s.Chaos; c != nil {
		if c.FailRate < 0 || c.FailRate > 1 {
			return fmt.Errorf("mrserve: chaos fail_rate %v outside [0,1]", c.FailRate)
		}
		if c.DelayRate < 0 || c.DelayRate > 1 {
			return fmt.Errorf("mrserve: chaos delay_rate %v outside [0,1]", c.DelayRate)
		}
	}
	return nil
}

// EstimatedInputBytes is the admission-control cost of the job: the bytes
// the map phase will read. It is also the job's DRR cost, so fair
// scheduling shares input bandwidth, not job counts.
func (s *Spec) EstimatedInputBytes() int64 {
	return s.InputMB << 20
}

// Dataset names one generated input the spec's job reads, with the
// generator that produces it. Names are deterministic functions of the
// generation parameters, so concurrent jobs with identical inputs share
// one copy on the DFS.
type Dataset struct {
	Name     string
	generate func(w io.Writer) error
}

// Datasets returns the inputs the job needs, in generation order.
func (s *Spec) Datasets() []Dataset {
	target := s.EstimatedInputBytes()
	switch s.App {
	case "wordcount", "invertedindex", "wordpostag", "syntext":
		return []Dataset{{
			Name: fmt.Sprintf("corpus-%dmb.txt", s.InputMB),
			generate: func(w io.Writer) error {
				_, err := textgen.Corpus(w, textgen.DefaultCorpus(), target)
				return err
			},
		}}
	case "accesslogsum", "accesslogjoin":
		ds := []Dataset{{
			Name: fmt.Sprintf("visits-%dmb.log", s.InputMB),
			generate: func(w io.Writer) error {
				_, err := textgen.UserVisits(w, textgen.DefaultLog(), target)
				return err
			},
		}}
		if s.App == "accesslogjoin" {
			ds = append(ds, Dataset{
				Name: "rankings.tbl",
				generate: func(w io.Writer) error {
					_, err := textgen.Rankings(w, textgen.DefaultLog())
					return err
				},
			})
		}
		return ds
	case "pagerank":
		return []Dataset{{
			Name: "crawl.tsv",
			generate: func(w io.Writer) error {
				_, err := textgen.WebGraph(w, textgen.DefaultGraph())
				return err
			},
		}}
	}
	return nil
}

// BuildJob constructs the runtime job from the spec: the app constructor
// picks mapper/reducer/combiner/format, then every knob is applied
// exactly as the mrrun flags always did. nodes sizes the per-job chaos
// injector when the spec carries one. The returned job has no tracer and
// no histogram sink; the caller decides whether those are process-wide
// (CLI) or per-job (service).
func (s *Spec) BuildJob(nodes int) (*mr.Job, error) {
	names := s.Datasets()
	var job *mr.Job
	switch s.App {
	case "wordcount":
		job = apps.WordCount(names[0].Name)
	case "invertedindex":
		job = apps.InvertedIndex(names[0].Name)
	case "wordpostag":
		job = apps.WordPOSTag(s.PosIterations, names[0].Name)
	case "syntext":
		job = apps.SynText(apps.SynTextConfig{CPUFactor: s.SynTextCPU, Storage: s.SynTextStorage}, names[0].Name)
	case "accesslogsum":
		job = apps.AccessLogSum(names[0].Name)
	case "accesslogjoin":
		job = apps.AccessLogJoin(names[0].Name, names[1].Name)
	case "pagerank":
		job = apps.PageRank(names[0].Name, textgen.DefaultGraph().Pages)
	default:
		return nil, fmt.Errorf("mrserve: unknown app %q", s.App)
	}
	if s.SpillBufferKB > 0 {
		job.SpillBufferBytes = s.SpillBufferKB << 10
	}
	job.NumReducers = s.Reducers
	if s.FreqBuf {
		switch s.App {
		case "accesslogsum", "accesslogjoin", "pagerank":
			job.FreqBuf = mr.DefaultFreqBufLog()
		default:
			job.FreqBuf = mr.DefaultFreqBufText()
		}
	}
	job.SpillMatcher = s.SpillMatcher
	job.Speculation = s.Speculation
	job.SerialShuffle = s.SerialShuffle
	if s.ShuffleCopiers > 0 {
		job.ShuffleCopiers = s.ShuffleCopiers
	}
	if s.ShuffleBufferMB > 0 {
		job.ShuffleBufferBytes = s.ShuffleBufferMB << 20
	}
	if s.Chaos != nil {
		inj, err := chaos.New(chaos.Config{
			Seed:      s.Chaos.Seed,
			FailRate:  s.Chaos.FailRate,
			DelayRate: s.Chaos.DelayRate,
			KillNode:  -1,
		}, nodes)
		if err != nil {
			return nil, err
		}
		job.Chaos = inj
	}
	return job, nil
}

// EnsureDatasets generates every dataset the spec needs that the DFS does
// not already hold, through the cache's singleflight so concurrent jobs
// wanting the same input generate it once.
func EnsureDatasets(c *cluster.Cluster, dc *DatasetCache, spec *Spec) error {
	for _, ds := range spec.Datasets() {
		if err := dc.ensure(c, ds); err != nil {
			return fmt.Errorf("mrserve: generating %s: %w", ds.Name, err)
		}
	}
	return nil
}
