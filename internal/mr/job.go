// Package mr is the MapReduce runtime: the substrate standing in for
// Hadoop. It executes jobs over the simulated cluster with the exact
// pipeline structure the paper instruments — map tasks run a map goroutine
// and a support goroutine connected by a spill buffer; spills are sorted,
// combined and written to node-local disk; spill runs are merge-sorted into
// one partitioned map-output file; a pipelined shuffle stages each reduce
// partition's segments across the fabric while the map phase is still
// running, and reducers merge-sort, group and reduce from the staged
// copies (falling back to direct fetches for anything not staged).
//
// Both optimizations plug in here: a spillmatch.Controller governs each map
// task's spill percentage, and an optional freqbuf.Buffer intercepts
// map-output records before they reach the spill buffer.
package mr

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/core/freqbuf"
	"mrtext/internal/core/spillmatch"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/spillbuf"
	"mrtext/internal/trace"
)

// Collector receives key/value pairs emitted by user code. The runtime's
// collectors copy key and value as needed; callers may reuse their buffers.
type Collector interface {
	Collect(key, value []byte) error
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(key, value []byte) error

// Collect implements Collector.
func (f CollectorFunc) Collect(key, value []byte) error { return f(key, value) }

// Mapper is the user map() function over line-oriented input: it is called
// once per input line with the line's byte offset in the file.
type Mapper interface {
	Map(offset int64, line []byte, out Collector) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(offset int64, line []byte, out Collector) error

// Map implements Mapper.
func (f MapperFunc) Map(offset int64, line []byte, out Collector) error {
	return f(offset, line, out)
}

// ValueIter streams the values of one reduce group.
type ValueIter interface {
	// Next returns the next value, ok=false at group end. The slice is
	// valid until the following Next call.
	Next() (value []byte, ok bool, err error)
}

// Reducer is the user reduce() function, called once per distinct key with
// all its values.
type Reducer interface {
	Reduce(key []byte, values ValueIter, out Collector) error
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key []byte, values ValueIter, out Collector) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key []byte, values ValueIter, out Collector) error {
	return f(key, values, out)
}

// CombineFunc is the user combine() contract, re-exported from kvio: it
// aggregates any subset of one key's values and may be applied any number
// of times without changing job output.
type CombineFunc = kvio.CombineFunc

// Partitioner maps a key to a reduce partition in [0, parts).
type Partitioner func(key []byte, parts int) int

// DefaultPartitioner hashes the key with FNV-1a, Hadoop-style.
func DefaultPartitioner(key []byte, parts int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(parts))
}

// OutputFormat renders one final (key, value) record into output bytes
// (typically one text line). Nil means the framed binary format.
type OutputFormat func(key, value []byte) ([]byte, error)

// FreqBufConfig enables frequency-buffering for a job.
type FreqBufConfig struct {
	// K is the frequent-key table size. The paper uses 3000 for the text
	// applications and 10000 for the log applications.
	K int
	// SampleFraction fixes s; zero engages the §III-C auto-tuner.
	SampleFraction float64
	// MemFraction is the share of the spill buffer budget carved out for
	// the frequent-key table (paper: 0.3). The spill buffer shrinks by
	// the same amount so total memory is constant.
	MemFraction float64
	// ShareTopK enables the per-node top-k cache across tasks (§III-B).
	ShareTopK bool
	// ValuesPerKeyCap caps buffered values per frequent key before an
	// in-table combine (default 32).
	ValuesPerKeyCap int
}

// DefaultFreqBufText returns the paper's text-application setting
// (k=3000, s=0.01).
func DefaultFreqBufText() *FreqBufConfig {
	return &FreqBufConfig{K: 3000, SampleFraction: 0.01, MemFraction: 0.3, ShareTopK: true}
}

// DefaultFreqBufLog returns the paper's log-application setting
// (k=10000, s=0.1).
func DefaultFreqBufLog() *FreqBufConfig {
	return &FreqBufConfig{K: 10000, SampleFraction: 0.1, MemFraction: 0.3, ShareTopK: true}
}

// Job specifies one MapReduce job.
type Job struct {
	// Name identifies the job (used in file names and the freq cache).
	Name string
	// Inputs are DFS file names; every block of every input becomes one
	// map task.
	Inputs []string
	// OutputPrefix names the job output: one DFS file per reducer,
	// "<prefix>-r-00000" etc.
	OutputPrefix string

	// NewMapper creates a fresh Mapper per map task (mappers may carry
	// per-task state, e.g. the POS tagger's model).
	NewMapper func() Mapper
	// NewReducer creates a fresh Reducer per reduce task.
	NewReducer func() Reducer
	// Combine is the optional combiner.
	Combine CombineFunc
	// Partition is the partitioner (DefaultPartitioner when nil).
	Partition Partitioner
	// Format renders final output records (framed binary when nil).
	Format OutputFormat

	// NumReducers defaults to the cluster's total reduce slots.
	NumReducers int
	// SpillBufferBytes is the map-side buffer M (default 4 MiB). When
	// frequency-buffering is enabled, MemFraction of this is re-assigned
	// to the frequent-key table.
	SpillBufferBytes int64
	// SpillMatcher enables the adaptive spill-percentage controller; the
	// baseline is static DefaultStaticPercent.
	SpillMatcher bool
	// SpillMatcherConfig overrides the matcher configuration (optional).
	SpillMatcherConfig *spillmatch.Config
	// StaticSpillPercent overrides the baseline threshold (0 = 0.8).
	StaticSpillPercent float64
	// FreqBuf enables frequency-buffering when non-nil. Requires Combine.
	FreqBuf *FreqBufConfig

	// CompressRuns writes spill runs and map outputs in the
	// prefix-compressed on-disk format — the §VII "more efficient on-disk
	// data representations" extension. Reduces spill/merge/shuffle bytes
	// for text keys at a small CPU cost.
	CompressRuns bool
	// HashGroupSpills replaces the per-spill sort of raw records with a
	// hash-based GROUP BY (combine in a hash table, then sort only the
	// combined aggregates) — the §VII "different post-map() grouping
	// procedures" extension. Requires Combine; ignored without one.
	HashGroupSpills bool

	// ShuffleCopiers is the per-reduce-partition copier fan-out of the
	// pipelined shuffle (default 4): how many of a partition's segments
	// are fetched concurrently into staging as map tasks commit.
	ShuffleCopiers int
	// ShuffleBufferBytes bounds the in-memory staging buffer shared by
	// all copiers (default 32 MiB). Segments that cannot reserve space
	// overflow to the staging node's disk.
	ShuffleBufferBytes int64
	// SerialShuffle disables the pipelined shuffle: every reduce attempt
	// opens its partition's segment of every map output itself, at reduce
	// start — the pre-pipelining behavior.
	SerialShuffle bool

	// Trace records the job's span timeline (see internal/trace). Nil
	// falls back to the process-wide trace.Default(); when that is nil
	// too, tracing is off and every span site reduces to a nil check.
	Trace *trace.Tracer

	// Hists receives the job's latency histograms. Nil falls back to the
	// process-wide registry instruments — right for a one-shot CLI run. A
	// job service hands every job a private NewHists set so concurrent
	// jobs' distributions never interleave.
	Hists *Hists

	// Chaos is a per-job fault injector overriding the cluster's for
	// task-site faults and manufactured stragglers, so one job of many on
	// a shared cluster can run under injection without perturbing its
	// neighbors. Node kills stay cluster-owned (a dead disk is dead for
	// everyone); a per-job injector configured to kill nodes is rejected.
	Chaos *chaos.Injector

	// MaxAttempts bounds execution attempts per task, Hadoop's
	// mapred.map.max.attempts (default 4): a task whose attempts all fail
	// fails the job with the last attempt's error.
	MaxAttempts int
	// RetryBackoff is the base delay before a failed attempt is requeued
	// (default 2ms). The actual delay is jittered deterministically per
	// (task, attempt) to spread retry storms.
	RetryBackoff time.Duration
	// NodeFailureLimit blacklists a node for the rest of the job after
	// this many failed attempts ran on it (default 4, Hadoop's
	// mapred.max.tracker.failures). Blacklisting never removes the last
	// live node.
	NodeFailureLimit int
	// Speculation enables backup attempts for stragglers: once
	// SpeculationQuorum of a phase's tasks have committed, a task whose
	// sole running attempt has been going longer than SpeculationSlowdown
	// times the median committed duration gets one backup attempt; the
	// first committer wins and the loser's output is discarded.
	Speculation bool
	// SpeculationSlowdown is the straggler threshold multiplier
	// (default 1.8).
	SpeculationSlowdown float64
	// SpeculationQuorum is the fraction of committed tasks required
	// before backups launch (default 0.6).
	SpeculationQuorum float64

	// filePrefix uniquifies intermediate file names so the same job spec
	// can run repeatedly on one cluster. Set by withDefaults.
	filePrefix string
	// cancel is the run's cancellation flag, set by RunContext's watcher
	// when the context ends. Task loops poll it (one atomic load per
	// record batch) instead of ctx.Err(), which takes a mutex. Set by
	// withDefaults so task code can load it unconditionally.
	cancel *atomic.Bool
}

// runSeq uniquifies per-run file names. It is the one piece of mutable
// package state the runtime keeps: a monotone counter with no read-back
// semantics, safe to share across concurrent jobs by construction.
//
//mrlint:ignore globalstate monotone run sequence; atomic, write-only, cannot bleed state between jobs
var runSeq atomic.Int64

func (j *Job) withDefaults(totalReduceSlots int) (*Job, error) {
	cp := *j
	if cp.Name == "" {
		return nil, fmt.Errorf("mr: job needs a name")
	}
	if len(cp.Inputs) == 0 {
		return nil, fmt.Errorf("mr: job %q has no inputs", cp.Name)
	}
	if cp.NewMapper == nil || cp.NewReducer == nil {
		return nil, fmt.Errorf("mr: job %q needs NewMapper and NewReducer", cp.Name)
	}
	if cp.Chaos != nil && cp.Chaos.KillsNodes() {
		return nil, fmt.Errorf("mr: job %q: per-job chaos injectors cannot kill nodes (node death is cluster-owned)", cp.Name)
	}
	seq := runSeq.Add(1)
	cp.filePrefix = fmt.Sprintf("%s.%d", cp.Name, seq)
	cp.cancel = new(atomic.Bool)
	if cp.Hists == nil {
		cp.Hists = defaultHists()
	}
	if cp.OutputPrefix == "" {
		cp.OutputPrefix = fmt.Sprintf("%s-out.%d", cp.Name, seq)
	}
	if cp.Partition == nil {
		cp.Partition = DefaultPartitioner
	}
	if cp.NumReducers <= 0 {
		cp.NumReducers = totalReduceSlots
	}
	if cp.SpillBufferBytes <= 0 {
		cp.SpillBufferBytes = 4 << 20
	}
	if cp.ShuffleCopiers <= 0 {
		cp.ShuffleCopiers = 4
	}
	if cp.ShuffleBufferBytes <= 0 {
		cp.ShuffleBufferBytes = 32 << 20
	}
	if cp.StaticSpillPercent <= 0 || cp.StaticSpillPercent > 1 {
		cp.StaticSpillPercent = spillmatch.DefaultStaticPercent
	}
	if cp.MaxAttempts <= 0 {
		cp.MaxAttempts = 4
	}
	if cp.RetryBackoff <= 0 {
		cp.RetryBackoff = 2 * time.Millisecond
	}
	if cp.NodeFailureLimit <= 0 {
		cp.NodeFailureLimit = 4
	}
	if cp.SpeculationSlowdown <= 1 {
		cp.SpeculationSlowdown = 1.8
	}
	if cp.SpeculationQuorum <= 0 || cp.SpeculationQuorum > 1 {
		cp.SpeculationQuorum = 0.6
	}
	if cp.FreqBuf != nil {
		fb := *cp.FreqBuf
		if fb.K <= 0 {
			return nil, fmt.Errorf("mr: job %q frequency-buffering needs K > 0", cp.Name)
		}
		if fb.MemFraction <= 0 || fb.MemFraction >= 1 {
			fb.MemFraction = 0.3
		}
		cp.FreqBuf = &fb
	}
	return &cp, nil
}

// newController builds the spill controller for one map task.
func (j *Job) newController() spillmatch.Controller {
	if j.SpillMatcher {
		cfg := spillmatch.DefaultConfig()
		if j.SpillMatcherConfig != nil {
			cfg = *j.SpillMatcherConfig
		}
		return spillmatch.NewMatcher(cfg)
	}
	return spillmatch.NewStatic(j.StaticSpillPercent)
}

// TaskReport carries one task's instrumentation into the job result.
type TaskReport struct {
	Kind  string // "map" or "reduce"
	Index int
	Node  int
	// Wall is the task's execution wall time, queue wait excluded: the
	// span between the task starting on its slot and its report being
	// finalized, on success and failure alike.
	Wall time.Duration
	// QueueWait is time the task spent waiting for a free slot before
	// starting (reduce tasks contend for per-node reduce slots). Wall +
	// QueueWait spans from task submission to completion, so per-task
	// reports tile the phase wall time they belong to.
	QueueWait time.Duration
	// ShuffleBytes is the reduce task's fetched shuffle volume (the
	// CtrShuffleBytes counter surfaced for swimlane labeling); zero for
	// map tasks.
	ShuffleBytes int64
	Metrics      metrics.Snapshot
	Spill        spillbuf.Stats
	FreqStats    freqbuf.Stats
}

// Result summarizes a completed job.
type Result struct {
	Job         string
	Wall        time.Duration
	MapWall     time.Duration // wall time of the map phase (all map tasks done)
	ReduceWall  time.Duration // wall time of shuffle+reduce
	Agg         metrics.Snapshot
	Tasks       []TaskReport
	Outputs     []string
	MapTasks    int
	ReduceTasks int
	// LocalMapTasks counts map tasks that ran on the node holding their
	// split's primary replica; StolenMapTasks counts tasks the scheduler
	// moved to another node's free slot (work stealing). Tasks whose
	// primary host is out of range (orphans) count toward neither.
	LocalMapTasks  int
	StolenMapTasks int

	// Fault-tolerance accounting. Every started attempt is exactly one of
	// a task's base attempt, a retry of a failed attempt, a speculative
	// backup, or a lost-output recovery re-run, so
	//   MapAttempts + ReduceAttempts ==
	//     MapTasks + ReduceTasks + TaskRetries + SpeculativeTasks + RecoveredMapTasks.
	MapAttempts    int // map attempts started, including retries/backups/recoveries
	ReduceAttempts int // reduce attempts started
	TaskRetries    int // retry attempts started after a failed attempt
	// SpeculativeTasks counts backup attempts started for stragglers;
	// SpeculativeWins counts backups that committed before the original.
	SpeculativeTasks int
	SpeculativeWins  int
	// RecoveredMapTasks counts re-runs of already-committed map tasks
	// whose output node died before every reducer fetched from it.
	RecoveredMapTasks int
	// FailedAttempts counts attempts that ended in an error (each is
	// either retried or fails the job).
	FailedAttempts int
	// SweptAttempts counts failed or losing attempts whose attempt-scoped
	// temp files were swept; CleanupErrors counts best-effort removals
	// that failed on a live node.
	SweptAttempts int
	CleanupErrors int
	// DeadNodes lists nodes the chaos layer killed during the job;
	// BlacklistedNodes lists nodes the runner stopped scheduling on after
	// repeated attempt failures.
	DeadNodes        []int
	BlacklistedNodes []int

	// Pipelined-shuffle accounting (all zero under SerialShuffle).
	// ShuffleEarlySegments counts segments staged before the map phase
	// finished — the map/shuffle overlap the pipeline exists to create.
	ShuffleEarlySegments int
	// ShuffleStagedSpills counts staged segments that overflowed the
	// staging buffer to a staging node's disk.
	ShuffleStagedSpills int
	// ShuffleFetchRetries counts injected shuffle-fetch faults absorbed
	// by per-source retry instead of failing the reduce attempt.
	ShuffleFetchRetries int
	// ShuffleStagingPeak is the staging buffer's high-water mark in bytes.
	ShuffleStagingPeak int64
	// ShuffleBatchFetches counts copier batch operations — one fabric
	// transfer each; ShuffleBatchSegments counts the segments they carried
	// (their ratio is the batching factor).
	ShuffleBatchFetches  int
	ShuffleBatchSegments int
	// ShuffleWireSavedBytes is always zero.
	//
	// Deprecated: shuffle wire compression was retired; segments cross
	// the fabric in their on-disk format. Kept for existing readers.
	ShuffleWireSavedBytes int64
	// ShuffleGovThrottles counts copier batches that had to wait for a
	// governor token while the map phase was fabric-hot.
	ShuffleGovThrottles int
}

// MapIdleFraction returns the average fraction of map-task wall time the
// map goroutine spent blocked — the "Map, Idle" column of Table II.
func (r *Result) MapIdleFraction() float64 {
	return r.idleFraction(func(s metrics.Snapshot) time.Duration { return s.WaitMap })
}

// SupportIdleFraction returns the same for the support goroutine — the
// "Support, Idle" column of Table II.
func (r *Result) SupportIdleFraction() float64 {
	return r.idleFraction(func(s metrics.Snapshot) time.Duration { return s.WaitSupport })
}

func (r *Result) idleFraction(pick func(metrics.Snapshot) time.Duration) float64 {
	var idle, wall time.Duration
	for _, t := range r.Tasks {
		if t.Kind != "map" {
			continue
		}
		idle += pick(t.Metrics)
		wall += t.Wall
	}
	if wall == 0 {
		return 0
	}
	return float64(idle) / float64(wall)
}

// FreqStats sums frequency-buffering statistics across map tasks.
func (r *Result) FreqStats() freqbuf.Stats {
	var agg freqbuf.Stats
	for _, t := range r.Tasks {
		agg.Profiled += t.FreqStats.Profiled
		agg.Hits += t.FreqStats.Hits
		agg.Misses += t.FreqStats.Misses
		agg.Evictions += t.FreqStats.Evictions
		agg.Combines += t.FreqStats.Combines
		if t.FreqStats.ChosenSample > 0 {
			agg.ChosenSample = t.FreqStats.ChosenSample
		}
		if t.FreqStats.FittedAlpha > 0 {
			agg.FittedAlpha = t.FreqStats.FittedAlpha
		}
	}
	return agg
}

// SpillStats sums spill-buffer statistics across map tasks.
func (r *Result) SpillStats() spillbuf.Stats {
	var agg spillbuf.Stats
	for _, t := range r.Tasks {
		agg.Spills += t.Spill.Spills
		agg.SpillBytes += t.Spill.SpillBytes
		if t.Spill.MaxPending > agg.MaxPending {
			agg.MaxPending = t.Spill.MaxPending
		}
	}
	return agg
}
