package mr

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/serde"
	"mrtext/internal/trace"
	"mrtext/internal/vdisk"
)

// chargedStream wraps a Stream whose records flow from a remote map node:
// it counts shuffle volume and charges the fabric in MTU-sized batches
// (per-record charging would pay the per-transfer latency millions of
// times; a real shuffle server streams frames). Each batch transfer is
// recorded as a wait-fabric span at sp's coordinates — the reduce attempt
// consuming the stream — so blocked fabric time is separable from merge
// and shuffle I/O in the trace.
type chargedStream struct {
	inner   kvio.Stream
	c       *cluster.Cluster
	src     int
	dst     int
	tm      *metrics.TaskMetrics
	sp      spanner
	pending int64
}

// shuffleBatchBytes is the transfer granularity of the simulated shuffle
// server.
const shuffleBatchBytes = 64 << 10

func (s *chargedStream) Next() (key, value []byte, err error) {
	k, v, err := s.inner.Next()
	if err != nil {
		return k, v, err
	}
	n := int64(len(k) + len(v) + 4)
	s.tm.Inc(metrics.CtrShuffleBytes, n)
	if s.src != s.dst {
		s.pending += n
		if s.pending >= shuffleBatchBytes {
			if terr := s.flush(); terr != nil {
				return nil, nil, terr
			}
		}
	}
	return k, v, nil
}

func (s *chargedStream) flush() error {
	n := s.pending
	s.pending = 0
	if n == 0 {
		return nil
	}
	t0 := time.Now()
	err := s.c.Net.Transfer(s.src, s.dst, n)
	d := time.Since(t0)
	s.tm.Inc(metrics.CtrShuffleFabricWaitNS, int64(d))
	s.sp.tr.Complete(trace.KindWaitFabric, trace.LaneReduce, s.sp.node, s.sp.task, s.sp.slot, t0, d)
	return err
}

func (s *chargedStream) Close() error {
	return errors.Join(s.flush(), s.inner.Close())
}

// countedStream wraps a staged-segment Stream: the fabric hop was already
// charged in one piece when the segment was taken from staging, so only
// the shuffle-volume counter accrues per record.
type countedStream struct {
	inner kvio.Stream
	tm    *metrics.TaskMetrics
}

func (s *countedStream) Next() (key, value []byte, err error) {
	k, v, err := s.inner.Next()
	if err == nil {
		s.tm.Inc(metrics.CtrShuffleBytes, int64(len(k)+len(v)+4))
	}
	return k, v, err
}

func (s *countedStream) Close() error { return s.inner.Close() }

// shuffleEnv is the pipelined shuffle as a reduce attempt sees it: the
// staging service to take segments from, plus the runner's lost-map-output
// recovery exposed so an attempt that catches a source node's death
// mid-fetch can refresh its snapshot and refetch instead of failing.
type shuffleEnv struct {
	svc        *shuffleService
	backoff    time.Duration
	resnapshot func() []mapOutput
}

// maxFetchRetries bounds, per source, both absorbed injected shuffle-fetch
// faults and post-recovery refetches within one reduce attempt.
const maxFetchRetries = 4

// fetchSerial opens this partition's segment of every map output in map-
// task order — the pre-pipelining shuffle. On error it closes whatever it
// opened and returns the joined errors.
func fetchSerial(c *cluster.Cluster, job *Job, part, node int, plan *chaos.Plan, mapOuts []mapOutput, tm *metrics.TaskMetrics, sp spanner) ([]kvio.Stream, error) {
	streams := make([]kvio.Stream, 0, len(mapOuts))
	closeAll := func(err error) error {
		errs := []error{err}
		for _, os := range streams {
			errs = append(errs, os.Close())
		}
		return errors.Join(errs...)
	}
	for _, mo := range mapOuts {
		if job.cancel.Load() {
			return nil, closeAll(errJobCanceled)
		}
		t0 := time.Now()
		if err := plan.Check(chaos.SiteShuffleFetch); err != nil {
			return nil, closeAll(err)
		}
		s, err := kvio.OpenRunPart(c.Disks[mo.node], mo.index, part)
		if err != nil {
			return nil, closeAll(err)
		}
		job.Hists.ShuffleFetch.Record(int64(time.Since(t0)))
		streams = append(streams, &chargedStream{inner: s, c: c, src: mo.node, dst: node, tm: tm, sp: sp})
	}
	return streams, nil
}

// fetchConcurrent is the pipelined-shuffle fetch: a pool of workers (the
// attempt-side face of the copier fan-out) resolves every source either
// from the staging service or by direct fetch. The resulting slice is
// indexed by map-task position, preserving the merge's stream order — and
// with it byte-identical output — regardless of completion order.
func fetchConcurrent(c *cluster.Cluster, job *Job, sh *shuffleEnv, part, node int, plan *chaos.Plan, mapOuts []mapOutput, tm *metrics.TaskMetrics, sp spanner) ([]kvio.Stream, error) {
	streams := make([]kvio.Stream, len(mapOuts))
	workers := job.ShuffleCopiers
	if workers > len(mapOuts) {
		workers = len(mapOuts)
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				st, err := fetchOne(c, job, sh, part, node, plan, i, mapOuts[i], tm, sp)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				streams[i] = st
			}
		}()
	}
	for i := range mapOuts {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	if firstErr != nil {
		errs := []error{firstErr}
		for _, st := range streams {
			if st != nil {
				errs = append(errs, st.Close())
			}
		}
		return nil, errors.Join(errs...)
	}
	return streams, nil
}

// fetchOne resolves a single source for a reduce attempt. An injected
// fault at the fetch site is absorbed by bounded retry with the job's
// jittered backoff — the attempt survives; only real node death reaches
// the caller. A source node found dead triggers in-attempt lost-map-output
// recovery and a refetch from the refreshed snapshot.
func fetchOne(c *cluster.Cluster, job *Job, sh *shuffleEnv, part, node int, plan *chaos.Plan, i int, mo mapOutput, tm *metrics.TaskMetrics, sp spanner) (kvio.Stream, error) {
	acquireStart := time.Now()
	for try := 0; ; try++ {
		if job.cancel.Load() {
			return nil, errJobCanceled
		}
		err := plan.Check(chaos.SiteShuffleFetch)
		if err == nil {
			break
		}
		if !errors.Is(err, chaos.ErrInjected) || try >= maxFetchRetries {
			return nil, err
		}
		sh.svc.noteRetry()
		t0 := time.Now()
		time.Sleep(backoffFor(sh.backoff, i, try+1))
		slept := time.Since(t0)
		tm.Inc(metrics.CtrShuffleRetryWaitNS, int64(slept))
		sp.tr.Complete(trace.KindWaitRetry, trace.LaneReduce, sp.node, sp.task, sp.slot, t0, slept)
	}
	if st, _, ok := sh.svc.take(part, i, node, sp); ok {
		job.Hists.ShuffleFetch.Record(int64(time.Since(acquireStart)))
		return &countedStream{inner: st, tm: tm}, nil
	}
	// Not staged (or the staging node died): direct fetch from the source
	// disk, exactly like the serial path.
	for try := 0; ; try++ {
		s, err := kvio.OpenRunPart(c.Disks[mo.node], mo.index, part)
		if err == nil {
			job.Hists.ShuffleFetch.Record(int64(time.Since(acquireStart)))
			return &chargedStream{inner: s, c: c, src: mo.node, dst: node, tm: tm, sp: sp}, nil
		}
		if !errors.Is(err, chaos.ErrNodeDead) || sh.resnapshot == nil || try >= maxFetchRetries {
			return nil, err
		}
		snap := sh.resnapshot()
		if i < len(snap) {
			mo = snap[i]
		}
	}
}

// groupValues adapts a Merger group to the user-facing ValueIter, timing
// value pulls as shuffle work so user reduce() time is measured cleanly.
type groupValues struct {
	m       *kvio.Merger
	pullAcc *time.Duration
	values  int64
}

func (g *groupValues) Next() (value []byte, ok bool, err error) {
	t0 := time.Now()
	v, ok, err := g.m.NextValue()
	*g.pullAcc += time.Since(t0)
	if ok {
		g.values++
	}
	return v, ok, err
}

// reduceCollector writes final output records through the job's format,
// timing output I/O separately from user reduce time.
type reduceCollector struct {
	job    *Job
	w      *serde.Writer
	bufw   *bufio.Writer
	tm     *metrics.TaskMetrics
	ioAcc  *time.Duration
	plan   *chaos.Plan
	groups int64
	values int64
}

func (rc *reduceCollector) Collect(key, value []byte) error {
	if rc.plan != nil {
		if err := rc.plan.Check(chaos.SiteReduceWrite); err != nil {
			return err
		}
	}
	t0 := time.Now()
	defer func() { *rc.ioAcc += time.Since(t0) }()
	rc.tm.Inc(metrics.CtrOutputRecords, 1)
	if rc.job.Format != nil {
		line, err := rc.job.Format(key, value)
		if err != nil {
			return fmt.Errorf("mr: formatting output: %w", err)
		}
		rc.tm.Inc(metrics.CtrOutputBytes, int64(len(line)))
		_, err = rc.bufw.Write(line)
		return err
	}
	rc.tm.Inc(metrics.CtrOutputBytes, int64(serde.KVLen(len(key), len(value))))
	return rc.w.WriteKV(key, value)
}

// ReduceOutputName returns the DFS name of partition r's output file.
func ReduceOutputName(prefix string, r int) string {
	return fmt.Sprintf("%s-r-%05d", prefix, r)
}

// runReduceTask executes one attempt of a reduce task: fetch this
// partition of every map output — from the pipelined shuffle's staging
// when sh is non-nil, direct positioned reads otherwise — merge-sort,
// group, apply reduce(), and write the output to an attempt-scoped DFS
// temp file. On success the attempt commits by renaming the temp to the
// canonical output name; the DFS's fail-on-exist rename makes the first
// committer win, so a losing duplicate attempt returns won=false with its
// temp left in created for the runner to sweep.
func runReduceTask(c *cluster.Cluster, job *Job, part, node, slot, attempt int, plan *chaos.Plan, sh *shuffleEnv, mapOuts []mapOutput) (outName string, won bool, created []string, rep TaskReport, err error) {
	if plan != nil {
		if d := plan.Delay(); d > 0 {
			time.Sleep(d) // manufactured straggler
		}
	}
	start := time.Now()
	tm := metrics.NewTaskMetrics()
	report := TaskReport{Kind: "reduce", Index: part, Node: node}
	sp := spanner{tr: job.Trace, node: node, task: part, slot: slot, attempt: attempt}
	taskSpan := sp.start(trace.KindReduceTask, trace.LaneReduce)
	fail := func(err error) (string, bool, []string, TaskReport, error) {
		report.Wall = time.Since(start)
		report.Metrics = tm.Snapshot()
		taskSpan.EndCounts(tm.Counter(metrics.CtrOutputRecords), tm.Counter(metrics.CtrOutputBytes))
		return "", false, created, report, fmt.Errorf("mr: reduce task %d attempt %d (node %d): %w", part, attempt, node, err)
	}

	// Shuffle: resolve this partition's segment of every map output.
	shuffleStart := time.Now()
	fetchSpan := sp.start(trace.KindShuffleFetch, trace.LaneReduce)
	var streams []kvio.Stream
	if sh != nil && sh.svc != nil {
		streams, err = fetchConcurrent(c, job, sh, part, node, plan, mapOuts, tm, sp)
	} else {
		streams, err = fetchSerial(c, job, part, node, plan, mapOuts, tm, sp)
	}
	if err != nil {
		fetchSpan.End()
		return fail(err)
	}
	merger, err := kvio.NewMerger(streams)
	if err != nil {
		fetchSpan.End()
		return fail(err)
	}
	defer merger.Close()
	fetchSpan.EndCounts(int64(len(streams)), 0)
	tm.Add(metrics.OpShuffle, time.Since(shuffleStart))

	tmpName := attemptReduceTempName(job.OutputPrefix, part, attempt)
	outFile, err := c.FS.Create(tmpName, node)
	if err != nil {
		return fail(err)
	}
	created = append(created, tmpName)
	bufw := bufio.NewWriterSize(outFile, 64<<10)
	var pullAcc, ioAcc time.Duration
	rc := &reduceCollector{job: job, w: serde.NewWriter(bufw), bufw: bufw, tm: tm, ioAcc: &ioAcc, plan: plan}
	reducer := job.NewReducer()

	for {
		if job.cancel.Load() {
			return fail(errors.Join(errJobCanceled, outFile.Close()))
		}
		t0 := time.Now()
		key, ok, err := merger.NextGroup()
		tm.Add(metrics.OpShuffle, time.Since(t0))
		if err != nil {
			return fail(errors.Join(err, outFile.Close()))
		}
		if !ok {
			break
		}
		tm.Inc(metrics.CtrReduceInputGroups, 1)
		iter := &groupValues{m: merger, pullAcc: &pullAcc}
		g0 := time.Now()
		pullBefore, ioBefore := pullAcc, ioAcc
		if err := reducer.Reduce(key, iter, rc); err != nil {
			return fail(fmt.Errorf("reduce(): %w", errors.Join(err, outFile.Close())))
		}
		tm.Inc(metrics.CtrReduceInputValues, iter.values)
		total := time.Since(g0)
		pullDelta := pullAcc - pullBefore
		ioDelta := ioAcc - ioBefore
		tm.Add(metrics.OpShuffle, pullDelta)
		tm.Add(metrics.OpOutputIO, ioDelta)
		tm.Add(metrics.OpReduceUser, total-pullDelta-ioDelta)
	}

	t0 := time.Now()
	if err := bufw.Flush(); err != nil {
		return fail(errors.Join(err, outFile.Close()))
	}
	if err := outFile.Close(); err != nil {
		return fail(err)
	}
	tm.Add(metrics.OpOutputIO, time.Since(t0))

	// Commit: rename the attempt temp onto the canonical output name.
	// ErrExist means a rival attempt already committed — not a failure,
	// just a lost race; the temp stays in created for the runner to sweep.
	finalName := ReduceOutputName(job.OutputPrefix, part)
	rerr := c.FS.Rename(tmpName, finalName)
	won = rerr == nil
	if won {
		created = nil
	} else if !errors.Is(rerr, vdisk.ErrExist) {
		return fail(rerr)
	}

	report.Wall = time.Since(start)
	report.Metrics = tm.Snapshot()
	taskSpan.EndCounts(tm.Counter(metrics.CtrOutputRecords), tm.Counter(metrics.CtrOutputBytes))
	return finalName, won, created, report, nil
}
