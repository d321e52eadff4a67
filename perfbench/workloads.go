package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// dataset is one generated DFS input file.
type dataset struct {
	name string
	gen  func(w io.Writer, seed int64) error
}

// workload is one benchmark input: a cluster shape, the DFS files the job
// reads, and the job itself. The runtime sees only the generated files;
// the seed reaches the generators and nothing else.
type workload struct {
	name    string
	why     string
	cluster func() cluster.Config
	inputs  []dataset
	job     func() *mr.Job
	// minJobs is the fewest timed jobs an untraced run makes, however
	// long they take: enough that the median job settles, given how much
	// this workload's jobs vary from one to the next.
	minJobs int
}

// The text workloads read a 4 MiB corpus, a quarter of the paper-scale
// 16 MiB, with block and spill-buffer sizes scaled alike so map tasks,
// waves and spills per task keep their shape: mr.RunReference over 16 MiB
// takes over 20 s on a 2-core host, too long to repeat in every run. The
// log workload reads half the paper-scale 48 MiB log at LocalSmall's own
// block size and the paper's 2 MiB spill buffer, because freqbuf's
// K=10000 table does not fit a scaled-down buffer.
const (
	corpusBytes    = 4 << 20
	textBlockBytes = 1 << 20
	textSpillBytes = 512 << 10
	visitBytes     = 24 << 20
	logSpillBytes  = 2 << 20
)

// textCluster is the paper's 6-node throttled LocalSmall cluster with
// blocks scaled to the corpus.
func textCluster() cluster.Config {
	cfg := cluster.LocalSmall()
	cfg.BlockSize = textBlockBytes
	return cfg
}

// corpus is the Zipf(α=1) text corpus the text workloads share.
var corpus = dataset{name: "corpus.txt", gen: func(w io.Writer, seed int64) error {
	cfg := textgen.DefaultCorpus()
	cfg.Seed = seed
	_, err := textgen.Corpus(w, cfg, corpusBytes)
	return err
}}

func logConfig(seed int64) textgen.LogConfig {
	cfg := textgen.DefaultLog()
	cfg.Seed = seed
	return cfg
}

var visits = dataset{name: "uservisits.log", gen: func(w io.Writer, seed int64) error {
	_, err := textgen.UserVisits(w, logConfig(seed), visitBytes)
	return err
}}

var rankings = dataset{name: "rankings.tbl", gen: func(w io.Writer, seed int64) error {
	_, err := textgen.Rankings(w, logConfig(seed))
	return err
}}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workload{
	{
		name:    "wordcount-combined",
		why:     "paper headline config: freqbuf, spill-matcher and map side carry the job, shuffle barely does",
		cluster: textCluster,
		inputs:  []dataset{corpus},
		job: func() *mr.Job {
			j := apps.WordCount(corpus.name)
			j.SpillBufferBytes = textSpillBytes
			j.FreqBuf = mr.DefaultFreqBufText()
			j.SpillMatcher = true
			return j
		},
		minJobs: 6,
	},
	{
		name:    "invertedindex-baseline",
		why:     "freqbuf and spill-matcher bypassed; sort, combine, spill, merge and output carry the most bytes",
		cluster: textCluster,
		inputs:  []dataset{corpus},
		job: func() *mr.Job {
			j := apps.InvertedIndex(corpus.name)
			j.SpillBufferBytes = textSpillBytes
			return j
		},
		minJobs: 6,
	},
	{
		name: "syntext-64node",
		why:  "64 throttled nodes, two map waves: fetch plane, governor, staging spills and fabric carry the job",
		cluster: func() cluster.Config {
			cfg := cluster.LocalSmall()
			cfg.Nodes = 64
			cfg.BlockSize = corpusBytes / (4 * 64) // two waves of 2 map slots per node
			return cfg
		},
		inputs: []dataset{corpus},
		job: func() *mr.Job {
			j := apps.SynText(apps.SynTextConfig{CPUFactor: 4, Storage: 0.8}, corpus.name)
			j.ShuffleBufferBytes = 8 << 20 // the default 32 MiB, scaled with the corpus
			return j
		},
		minJobs: 2,
	},
	{
		name:    "accesslogjoin-combined",
		why:     "log parsing kernels, two-input join, and freqbuf on low-skew Zipf(0.8) keys",
		cluster: cluster.LocalSmall,
		inputs:  []dataset{visits, rankings},
		job: func() *mr.Job {
			j := apps.AccessLogJoin(visits.name, rankings.name)
			j.SpillBufferBytes = logSpillBytes
			j.FreqBuf = mr.DefaultFreqBufLog()
			j.SpillMatcher = true
			return j
		},
		minJobs: 6,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// setup builds a fresh cluster and generates the workload's inputs into
// its DFS, returning the cluster and the time both took.
func (w workload) setup(seed int64) (*cluster.Cluster, time.Duration, error) {
	start := time.Now()
	c, err := cluster.New(w.cluster())
	if err != nil {
		return nil, 0, err
	}
	for _, ds := range w.inputs {
		f, err := c.FS.Create(ds.name, 0)
		if err != nil {
			return nil, 0, err
		}
		if err := ds.gen(f, seed); err != nil {
			return nil, 0, fmt.Errorf("generating %s: %w", ds.name, errors.Join(err, f.Close()))
		}
		if err := f.Close(); err != nil {
			return nil, 0, fmt.Errorf("generating %s: %w", ds.name, err)
		}
	}
	return c, time.Since(start), nil
}
