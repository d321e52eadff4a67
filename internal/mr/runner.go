package mr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/trace"
)

// Run executes a job on the cluster and blocks until completion. Map tasks
// are placed data-locally (the node holding the split's primary replica)
// with work stealing to keep slots busy; reduce tasks are queued and
// pulled by per-node reduce slots. The paper's configuration of "12
// mappers and 12 reducers on 6 machines" corresponds to 2 map + 2 reduce
// slots per node.
//
// Execution is attempt-based: each task runs as one or more (task,
// attempt) pairs writing attempt-scoped temp files that commit by rename,
// so any attempt's failure is retried with jittered backoff (up to
// Job.MaxAttempts), nodes that keep failing attempts are blacklisted,
// stragglers optionally get speculative backup attempts, and committed
// map outputs lost to a node death are re-run. Duplicate attempts of one
// task run to completion — the simulator has no task kill — and the first
// committer wins; losers are discarded and their temp files swept.
func Run(c *cluster.Cluster, spec *Job) (*Result, error) {
	return RunContext(context.Background(), c, spec)
}

// RunContext is Run with cancellation. When ctx ends mid-job, in-flight
// task attempts observe the job's cancel flag at their next record
// boundary (one atomic load per input line, reduce group, merge
// partition, or fetch retry — never a blocking wait on ctx), fail fast,
// and are swept by the normal attempt machinery; the run then removes
// any committed intermediates and returns the context's error wrapped in
// the job failure. Cancellation leaves no orphaned attempt temp files:
// every started attempt either commits (and its output is removed by the
// failure sweep) or is swept like any failed attempt.
func RunContext(ctx context.Context, c *cluster.Cluster, spec *Job) (*Result, error) {
	job, err := spec.withDefaults(c.TotalReduceSlots())
	if err != nil {
		return nil, err
	}
	splits, err := computeSplits(c.FS, job.Inputs)
	if err != nil {
		return nil, err
	}
	if job.Trace == nil {
		job.Trace = trace.Default()
	}
	tr := job.Trace

	// The job's fault source: the cluster injector unless the job carries
	// its own (a service running many jobs injects per job, so one
	// tenant's chaos never perturbs a neighbor). Armed for the duration
	// of the job only — dataset generation and everything else outside
	// RunContext stays fault-free — and arming is counted, so one job
	// finishing cannot disarm a shared injector under a concurrent job.
	inj := c.Chaos
	if job.Chaos != nil {
		inj = job.Chaos
	}
	if inj != nil {
		inj.Arm()
		defer inj.Disarm()
	}

	start := time.Now()
	res := &Result{Job: job.Name, MapTasks: len(splits), ReduceTasks: job.NumReducers}
	jobSpan := tr.Start(trace.KindJob, trace.LaneScheduler, -1, -1, 0)
	defer jobSpan.End()

	ft := newFTRun(c, job)
	ft.inj = inj

	// The cancellation watcher: flip the job's cancel flag (which task
	// loops poll) and fail the run (which wakes workers blocked on the
	// scheduler condvar). The deferred close stops the watcher on normal
	// completion.
	if done := ctx.Done(); done != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-done:
				job.cancel.Store(true)
				ft.mu.Lock()
				ft.failLocked(fmt.Errorf("mr: job canceled: %w", context.Cause(ctx)))
				ft.mu.Unlock()
			case <-stopWatch:
			}
		}()
	}

	// The pipelined shuffle stages committed map outputs as they appear,
	// overlapping shuffle I/O with the rest of the map phase. The deferred
	// close covers early error returns; the success path closes it
	// explicitly before reading its counters.
	var svc *shuffleService
	if !job.SerialShuffle {
		svc = newShuffleService(c, job)
		ft.shuffle = svc
		defer svc.close()
	}

	// ----- Map phase -----
	mapOuts := make([]mapOutput, len(splits))
	mapReports := make([]TaskReport, len(splits))
	sched := newScheduler(c.Nodes(), splits)
	ft.beginPhase(len(splits), sched, true)
	stopSpec := make(chan struct{})
	var specWG sync.WaitGroup
	specWG.Add(1)
	go func() { defer specWG.Done(); ft.speculate(stopSpec) }()
	var wg sync.WaitGroup
	for node := 0; node < c.Nodes(); node++ {
		for slot := 0; slot < c.MapSlots(); slot++ {
			wg.Add(1)
			ft.addWorker()
			go func(node, slot int) {
				defer wg.Done()
				for {
					pa, src, ok := ft.next(node)
					if !ok {
						return
					}
					if src == takeStolen {
						tr.Instant(trace.KindWorkSteal, trace.LaneScheduler, node, pa.task, int64(splits[pa.task].Hosts[0]))
					}
					plan := ft.inj.Plan(node, pa.task, pa.attempt, chaos.MapSites())
					out, rep, created, err := runMapTask(c, job, pa.task, splits[pa.task], node, slot, pa.attempt, plan)
					if err != nil {
						ft.sweepDiskFiles(node, created)
						ft.attemptFailed(pa, node, err)
						continue
					}
					ft.commitMap(pa, node, out, rep, mapOuts, mapReports)
				}
			}(node, slot)
		}
	}
	wg.Wait()
	close(stopSpec)
	specWG.Wait()
	if err := ft.jobErr(); err != nil {
		svc.close()
		ft.sweepJobIntermediates(mapOuts, nil)
		return nil, err
	}
	res.MapWall = time.Since(start)
	svc.markMapDone()

	// Recovery needs per-map-task attempt numbering to survive into the
	// reduce phase, where lost outputs are re-run.
	mapNext := make([]int, len(splits))
	for i := range ft.tasks {
		mapNext[i] = ft.tasks[i].nextAttempt
	}

	// Reduce attempts see the pipelined shuffle through shuffleEnv; the
	// resnapshot closure lets an attempt that catches a source node death
	// mid-fetch run lost-output recovery in place and refetch.
	var sh *shuffleEnv
	if svc != nil {
		sh = &shuffleEnv{
			svc:     svc,
			backoff: job.RetryBackoff,
			resnapshot: func() []mapOutput {
				ft.recoverLostMapOuts(splits, mapOuts, mapReports, mapNext)
				return ft.snapshotMapOuts(mapOuts)
			},
		}
	}

	// ----- Reduce phase -----
	reduceStart := time.Now()
	outputs := make([]string, job.NumReducers)
	reduceReports := make([]TaskReport, job.NumReducers)
	ft.beginPhase(job.NumReducers, nil, false)
	ft.enqueueBase(job.NumReducers)
	stopSpec = make(chan struct{})
	specWG.Add(1)
	go func() { defer specWG.Done(); ft.speculate(stopSpec) }()
	var rwg sync.WaitGroup
	for node := 0; node < c.Nodes(); node++ {
		for slot := 0; slot < c.ReduceSlots(); slot++ {
			rwg.Add(1)
			ft.addWorker()
			go func(node, slot int) {
				defer rwg.Done()
				for {
					pa, _, ok := ft.next(node)
					if !ok {
						return
					}
					queueWait := time.Since(pa.enqueued)
					job.Trace.Complete(trace.KindWaitQueue, trace.LaneReduce, node, pa.task, slot, pa.enqueued, queueWait)
					job.Hists.QueueWait.Record(int64(queueWait))
					plan := ft.inj.Plan(node, pa.task, pa.attempt, chaos.ReduceSites())
					snap := ft.snapshotMapOuts(mapOuts)
					outName, won, created, rep, err := runReduceTask(c, job, pa.task, node, slot, pa.attempt, plan, sh, snap)
					rep.QueueWait = queueWait
					if err != nil {
						ft.sweepDFSFiles(created)
						ft.recoverLostMapOuts(splits, mapOuts, mapReports, mapNext)
						ft.attemptFailed(pa, node, err)
						continue
					}
					if !won {
						// A rival attempt committed first: discard.
						ft.sweepDFSFiles(created)
						ft.noteLoss(pa)
						continue
					}
					ft.commitReduce(pa, outName, rep, outputs, reduceReports)
					svc.release(pa.task)
				}
			}(node, slot)
		}
	}
	rwg.Wait()
	close(stopSpec)
	specWG.Wait()
	if err := ft.jobErr(); err != nil {
		svc.close()
		ft.sweepJobIntermediates(mapOuts, outputs)
		return nil, err
	}
	res.ReduceWall = time.Since(reduceStart)
	res.Wall = time.Since(start)
	res.Outputs = outputs
	svc.close() // flush staging before counter reads and disk cleanup

	// Committed map outputs are no longer needed. Removal is best-effort
	// cleanup: failures are counted on the job aggregate, not fatal. Dead
	// nodes' outputs are unreachable and skipped.
	for _, mo := range mapOuts {
		if c.NodeDead(mo.node) {
			continue
		}
		if err := c.Disks[mo.node].Remove(mo.index.Name); err != nil {
			ft.mu.Lock()
			ft.cleanupErrs++
			ft.mu.Unlock()
		}
	}

	res.Tasks = append(append([]TaskReport(nil), mapReports...), reduceReports...)
	for _, t := range res.Tasks {
		res.Agg.Merge(t.Metrics)
	}
	if res.Agg.Counters == nil {
		res.Agg.Counters = make(map[string]int64)
	}
	if svc != nil {
		res.Agg.Merge(svc.snapshot())
		ctr := res.Agg.Counters
		res.ShuffleEarlySegments = int(ctr[metrics.CtrShuffleEarlySegments])
		res.ShuffleStagedSpills = int(ctr[metrics.CtrShuffleStagedSpills])
		res.ShuffleFetchRetries = int(ctr[metrics.CtrShuffleFetchRetries])
		res.ShuffleStagingPeak = ctr[metrics.CtrShuffleStagingPeak]
		res.ShuffleBatchFetches = int(ctr[metrics.CtrShuffleBatchFetches])
		res.ShuffleBatchSegments = int(ctr[metrics.CtrShuffleBatchSegments])
		res.ShuffleGovThrottles = int(ctr[metrics.CtrShuffleGovThrottles])
	}
	res.LocalMapTasks, res.StolenMapTasks = sched.placement()
	res.Agg.Counters[metrics.CtrLocalMapTasks] += int64(res.LocalMapTasks)
	res.Agg.Counters[metrics.CtrStolenMapTasks] += int64(res.StolenMapTasks)
	ft.fillResult(res)
	return res, nil
}

// attemptKind classifies why an attempt was started; every started
// attempt has exactly one kind, which is what makes the Result counter
// identity hold.
type attemptKind int

const (
	attemptBase        attemptKind = iota // a task's first attempt
	attemptRetry                          // requeued after a failed attempt
	attemptSpeculative                    // backup attempt for a straggler
	attemptRecovery                       // re-run of a committed map task after node death
)

// pendingAttempt is one schedulable unit of work: a (task, attempt) pair.
type pendingAttempt struct {
	task     int
	attempt  int
	kind     attemptKind
	enqueued time.Time
}

// runningInfo tracks one in-flight attempt for the speculation monitor.
type runningInfo struct {
	attempt int
	node    int
	start   time.Time
}

// ftTask is the runner's per-task fault-tolerance state within a phase.
type ftTask struct {
	committed   bool          // a winning attempt's output is at the canonical name
	committing  bool          // a map commit rename is in flight (serializes committers)
	nextAttempt int           // next attempt number to hand out
	failures    int           // failed attempts so far (job fails at MaxAttempts)
	backup      bool          // a speculative backup has been launched
	running     []runningInfo // in-flight attempts
	winDur      time.Duration // the winning attempt's wall time (speculation baseline)
}

// ftRun coordinates attempt-based execution for one job: it layers retry,
// blacklisting, speculation and recovery over the locality scheduler. All
// mutable state is guarded by mu; cond wakes workers when new attempts
// become runnable or the phase ends.
type ftRun struct {
	c   *cluster.Cluster
	job *Job
	// inj is the job's fault source: the per-job injector when the job
	// carries one, the cluster injector otherwise. Task-site plans come
	// from here; node-death observation stays on c.Chaos (node death is
	// cluster-wide regardless of which job's injector is in play).
	inj  *chaos.Injector
	mu   sync.Mutex
	cond *sync.Cond

	aborted bool
	err     error

	// Per-phase state, reset by beginPhase.
	gen       int // phase generation; stale backoff timers check it
	total     int
	done      int
	phaseDone bool
	mapPhase  bool
	tasks     []ftTask
	queue     []pendingAttempt
	inner     *scheduler // locality scheduler (map phase only)

	// Cross-phase node state.
	nodeFailures  []int
	blacklisted   []bool
	deadKnown     []bool
	activeWorkers int
	recovering    bool // a lost-map-output recovery is in flight (singleflight)

	// shuffle is the pipelined-shuffle service (nil under SerialShuffle):
	// map commits are offered to its copier pools, and the reduce-phase
	// queue prefers handing a partition to its staging node.
	shuffle *shuffleService

	// Counters (surfaced on Result).
	mapAttempts    int
	reduceAttempts int
	retries        int
	spec           int
	specWins       int
	recovered      int
	failed         int
	swept          int
	cleanupErrs    int
}

func newFTRun(c *cluster.Cluster, job *Job) *ftRun {
	ft := &ftRun{
		c:            c,
		job:          job,
		nodeFailures: make([]int, c.Nodes()),
		blacklisted:  make([]bool, c.Nodes()),
		deadKnown:    make([]bool, c.Nodes()),
	}
	ft.cond = sync.NewCond(&ft.mu)
	return ft
}

// beginPhase resets per-phase scheduling state. Node state (deaths,
// blacklist) carries across phases: a dead node stays dead.
func (ft *ftRun) beginPhase(total int, inner *scheduler, mapPhase bool) {
	ft.mu.Lock()
	ft.gen++
	ft.total = total
	ft.done = 0
	ft.phaseDone = total == 0
	ft.mapPhase = mapPhase
	ft.tasks = make([]ftTask, total)
	ft.queue = nil
	ft.inner = inner
	ft.activeWorkers = 0
	ft.mu.Unlock()
}

// enqueueBase queues every task's first attempt (reduce phase, which has
// no locality scheduler).
func (ft *ftRun) enqueueBase(n int) {
	now := time.Now()
	ft.mu.Lock()
	for t := 0; t < n; t++ {
		ft.queue = append(ft.queue, pendingAttempt{task: t, attempt: 0, kind: attemptBase, enqueued: now})
		ft.tasks[t].nextAttempt = 1
	}
	ft.cond.Broadcast()
	ft.mu.Unlock()
}

func (ft *ftRun) addWorker() {
	ft.mu.Lock()
	ft.activeWorkers++
	ft.mu.Unlock()
}

func (ft *ftRun) jobErr() error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.err
}

// next blocks until an attempt is runnable on node, the phase ends, or
// the node becomes unusable (dead or blacklisted). The takeSource reports
// work stealing for base map attempts.
func (ft *ftRun) next(node int) (pendingAttempt, takeSource, bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for {
		if ft.aborted || ft.phaseDone {
			return pendingAttempt{}, takeLocal, false
		}
		if ft.deadKnown[node] || ft.blacklisted[node] {
			ft.activeWorkers--
			if ft.activeWorkers == 0 && !ft.phaseDone {
				ft.failLocked(fmt.Errorf("mr: no live unblacklisted workers left (%d of %d tasks incomplete)", ft.total-ft.done, ft.total))
			}
			return pendingAttempt{}, takeLocal, false
		}
		if ft.recovering {
			// Reduce attempts dispatched mid-recovery would fetch from a
			// map-output table still pointing at a dead node.
			ft.cond.Wait()
			continue
		}
		if ft.inner != nil {
			if task, src, ok := ft.inner.take(node); ok {
				ts := &ft.tasks[task]
				pa := pendingAttempt{task: task, attempt: ts.nextAttempt, kind: attemptBase, enqueued: time.Now()}
				ts.nextAttempt++
				ft.noteStartLocked(pa, node)
				return pa, src, true
			}
		}
		for len(ft.queue) > 0 {
			// Staging affinity: prefer a reduce attempt whose partition is
			// staged on this node, so the staged hand-off is a local read.
			idx := 0
			if !ft.mapPhase && ft.shuffle != nil {
				for i, pa := range ft.queue {
					if !ft.tasks[pa.task].committed && ft.shuffle.home(pa.task) == node {
						idx = i
						break
					}
				}
			}
			pa := ft.queue[idx]
			ft.queue = append(ft.queue[:idx], ft.queue[idx+1:]...)
			if ft.tasks[pa.task].committed {
				continue // stale: a rival attempt won while this waited
			}
			ft.noteStartLocked(pa, node)
			return pa, takeLocal, true
		}
		ft.cond.Wait()
	}
}

// noteStartLocked records an attempt start: counters are incremented here,
// at attempt start, so every started attempt is counted exactly once
// under its kind.
func (ft *ftRun) noteStartLocked(pa pendingAttempt, node int) {
	ts := &ft.tasks[pa.task]
	ts.running = append(ts.running, runningInfo{attempt: pa.attempt, node: node, start: time.Now()})
	if ft.mapPhase {
		ft.mapAttempts++
	} else {
		ft.reduceAttempts++
	}
	switch pa.kind {
	case attemptRetry:
		ft.retries++
	case attemptSpeculative:
		ft.spec++
	case attemptRecovery:
		ft.recovered++
	}
}

func (ft *ftRun) noteEndLocked(task, attempt int) {
	ts := &ft.tasks[task]
	for i, ri := range ts.running {
		if ri.attempt == attempt {
			ts.running = append(ts.running[:i], ts.running[i+1:]...)
			return
		}
	}
}

func (ft *ftRun) failLocked(err error) {
	if !ft.aborted {
		ft.aborted = true
		ft.err = err
		if ft.inner != nil {
			ft.inner.abort()
		}
	}
	ft.cond.Broadcast()
}

// usableNodesLocked counts nodes that are neither dead nor blacklisted.
func (ft *ftRun) usableNodesLocked() int {
	n := 0
	for i := range ft.blacklisted {
		if !ft.blacklisted[i] && !ft.deadKnown[i] {
			n++
		}
	}
	return n
}

// refreshDeadNodes folds newly observed chaos kills into scheduler state,
// emitting a node-death instant once per node.
func (ft *ftRun) refreshDeadNodes() {
	if ft.c.Chaos == nil {
		return
	}
	dead := ft.c.Chaos.DeadNodes()
	if len(dead) == 0 {
		return
	}
	ft.mu.Lock()
	for _, n := range dead {
		if !ft.deadKnown[n] {
			ft.deadKnown[n] = true
			ft.job.Trace.Instant(trace.KindNodeDeath, trace.LaneScheduler, n, -1, int64(n))
		}
	}
	ft.cond.Broadcast()
	ft.mu.Unlock()
}

// attemptFailed handles an attempt error: requeue with jittered backoff,
// blacklist the node if it keeps failing attempts, or fail the job once
// the task exhausts MaxAttempts. A failure after a rival committed is
// moot — the task is done regardless.
func (ft *ftRun) attemptFailed(pa pendingAttempt, node int, err error) {
	ft.refreshDeadNodes()
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.noteEndLocked(pa.task, pa.attempt)
	ft.failed++
	ts := &ft.tasks[pa.task]
	if ts.committed || ft.aborted {
		return
	}
	ts.failures++
	if !ft.deadKnown[node] {
		ft.nodeFailures[node]++
		if ft.nodeFailures[node] >= ft.job.NodeFailureLimit && !ft.blacklisted[node] && ft.usableNodesLocked() > 1 {
			ft.blacklisted[node] = true
			ft.cond.Broadcast()
		}
	}
	if ts.failures >= ft.job.MaxAttempts {
		ft.failLocked(fmt.Errorf("mr: task failed %d attempts, last: %w", ts.failures, err))
		return
	}
	attemptNo := ts.nextAttempt
	ts.nextAttempt++
	ft.job.Trace.Instant(trace.KindTaskRetry, trace.LaneScheduler, node, pa.task, int64(attemptNo))
	gen, task := ft.gen, pa.task
	time.AfterFunc(backoffFor(ft.job.RetryBackoff, task, attemptNo), func() {
		ft.mu.Lock()
		defer ft.mu.Unlock()
		if ft.gen != gen || ft.aborted || ft.phaseDone || ft.tasks[task].committed {
			return // the phase moved on while this retry waited out its backoff
		}
		ft.queue = append(ft.queue, pendingAttempt{task: task, attempt: attemptNo, kind: attemptRetry, enqueued: time.Now()})
		ft.cond.Broadcast()
	})
}

// commitMap publishes a finished map attempt's output at the canonical
// name. The disk rename arbitrates same-node duplicates (fail-on-exist);
// the committing latch serializes cross-node duplicates, whose attempt
// outputs live on different disks where both renames would succeed.
func (ft *ftRun) commitMap(pa pendingAttempt, node int, out mapOutput, rep TaskReport, mapOuts []mapOutput, mapReports []TaskReport) {
	ft.mu.Lock()
	ft.noteEndLocked(pa.task, pa.attempt)
	ts := &ft.tasks[pa.task]
	for ts.committing {
		ft.cond.Wait()
	}
	if ts.committed || ft.aborted {
		ft.mu.Unlock()
		ft.sweepDiskFiles(node, []string{out.index.Name})
		return
	}
	ts.committing = true
	ft.mu.Unlock()

	canon := canonicalMapOutName(ft.job.filePrefix, pa.task)
	rerr := ft.c.Disks[node].Rename(out.index.Name, canon)

	ft.mu.Lock()
	ts.committing = false
	if rerr != nil {
		ft.cond.Broadcast()
		ft.mu.Unlock()
		ft.sweepDiskFiles(node, []string{out.index.Name})
		ft.attemptFailed(pa, node, rerr)
		return
	}
	out.index.Name = canon
	mapOuts[pa.task] = out
	mapReports[pa.task] = rep
	ts.committed = true
	ts.winDur = rep.Wall
	if pa.kind == attemptSpeculative {
		ft.specWins++
	}
	ft.done++
	done, total := ft.done, ft.total
	if ft.done == ft.total {
		ft.phaseDone = true
	}
	ft.cond.Broadcast()
	ft.mu.Unlock()
	ft.shuffle.noteMapProgress(done, total)
	ft.shuffle.offer(pa.task, out)
}

// commitReduce records a reduce attempt that won the DFS rename race.
func (ft *ftRun) commitReduce(pa pendingAttempt, outName string, rep TaskReport, outputs []string, reduceReports []TaskReport) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.noteEndLocked(pa.task, pa.attempt)
	ts := &ft.tasks[pa.task]
	ts.committed = true
	ts.winDur = rep.Wall
	outputs[pa.task] = outName
	reduceReports[pa.task] = rep
	if pa.kind == attemptSpeculative {
		ft.specWins++
	}
	ft.done++
	if ft.done == ft.total {
		ft.phaseDone = true
	}
	ft.cond.Broadcast()
}

// noteLoss records a duplicate attempt that lost the commit race.
func (ft *ftRun) noteLoss(pa pendingAttempt) {
	ft.mu.Lock()
	ft.noteEndLocked(pa.task, pa.attempt)
	ft.mu.Unlock()
}

// sweepDiskFiles removes a failed or losing attempt's surviving files
// from a node disk. Dead-node removals are skipped silently (the disk is
// gone with its node); other failures count as cleanup errors.
func (ft *ftRun) sweepDiskFiles(node int, files []string) {
	if len(files) == 0 {
		return
	}
	errs := 0
	for _, name := range files {
		if err := ft.c.Disks[node].Remove(name); err != nil && !errors.Is(err, chaos.ErrNodeDead) {
			errs++
		}
	}
	ft.mu.Lock()
	ft.swept++
	ft.cleanupErrs += errs
	ft.mu.Unlock()
}

// sweepDFSFiles removes a failed or losing reduce attempt's temp output
// from the DFS.
func (ft *ftRun) sweepDFSFiles(files []string) {
	if len(files) == 0 {
		return
	}
	errs := 0
	for _, name := range files {
		if err := ft.c.FS.Remove(name); err != nil && !errors.Is(err, chaos.ErrNodeDead) {
			errs++
		}
	}
	ft.mu.Lock()
	ft.swept++
	ft.cleanupErrs += errs
	ft.mu.Unlock()
}

// errJobCanceled is what a task attempt fails with when it observes the
// job's cancel flag. The watcher has already failed the job by then, so
// attemptFailed absorbs these without scheduling retries.
var errJobCanceled = errors.New("mr: attempt canceled")

// sweepJobIntermediates removes what a failed or canceled job left
// committed behind: canonical map outputs on node disks and committed
// reduce outputs on the DFS. Attempt-scoped temp files are already swept
// by the attempt machinery, and staged overflow segments by the shuffle
// service's close, so after this sweep a dead job leaves nothing on the
// cluster. Best-effort: dead nodes are skipped, live-node failures count
// as cleanup errors. Called only after all workers have joined.
func (ft *ftRun) sweepJobIntermediates(mapOuts []mapOutput, outputs []string) {
	errs := 0
	for _, mo := range mapOuts {
		if mo.index.Name == "" || ft.c.NodeDead(mo.node) {
			continue
		}
		if err := ft.c.Disks[mo.node].Remove(mo.index.Name); err != nil && !errors.Is(err, chaos.ErrNodeDead) {
			errs++
		}
	}
	for _, name := range outputs {
		if name == "" {
			continue
		}
		if err := ft.c.FS.Remove(name); err != nil && !errors.Is(err, chaos.ErrNodeDead) {
			errs++
		}
	}
	ft.mu.Lock()
	ft.cleanupErrs += errs
	ft.mu.Unlock()
}

// snapshotMapOuts copies the map-output table under the lock, so a reduce
// attempt's fetch set is consistent even while recovery rewrites entries.
func (ft *ftRun) snapshotMapOuts(mapOuts []mapOutput) []mapOutput {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]mapOutput(nil), mapOuts...)
}

// speculate is the per-phase straggler monitor: once a quorum of tasks
// has committed, a task whose sole running attempt exceeds the slowdown
// multiple of the median committed duration gets one backup attempt.
func (ft *ftRun) speculate(stop <-chan struct{}) {
	if !ft.job.Speculation {
		return
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		ft.mu.Lock()
		if ft.aborted || ft.phaseDone || ft.done == 0 ||
			float64(ft.done) < ft.job.SpeculationQuorum*float64(ft.total) {
			ft.mu.Unlock()
			continue
		}
		durs := make([]time.Duration, 0, ft.done)
		for i := range ft.tasks {
			if ft.tasks[i].committed {
				durs = append(durs, ft.tasks[i].winDur)
			}
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		threshold := time.Duration(ft.job.SpeculationSlowdown * float64(durs[len(durs)/2]))
		// Floor against tiny-task noise: sub-millisecond medians would
		// speculate on scheduler jitter.
		if threshold < 500*time.Microsecond {
			threshold = 500 * time.Microsecond
		}
		now := time.Now()
		launched := false
		for i := range ft.tasks {
			ts := &ft.tasks[i]
			if ts.committed || ts.backup || len(ts.running) != 1 || now.Sub(ts.running[0].start) <= threshold {
				continue
			}
			ts.backup = true
			attemptNo := ts.nextAttempt
			ts.nextAttempt++
			ft.queue = append(ft.queue, pendingAttempt{task: i, attempt: attemptNo, kind: attemptSpeculative, enqueued: now})
			ft.job.Trace.Instant(trace.KindSpeculativeLaunch, trace.LaneScheduler, ts.running[0].node, i, int64(attemptNo))
			launched = true
		}
		if launched {
			ft.cond.Broadcast()
		}
		ft.mu.Unlock()
	}
}

// recoverLostMapOuts re-runs committed map tasks whose output node died
// before every reducer fetched from it — Hadoop's "map output lost"
// re-execution. Called from a failing reduce worker's goroutine;
// singleflight, with rival workers waiting so their retries see the
// recovered outputs.
func (ft *ftRun) recoverLostMapOuts(splits []Split, mapOuts []mapOutput, mapReports []TaskReport, mapNext []int) {
	ft.refreshDeadNodes()
	lostLocked := func() []int {
		var lost []int
		for t := range mapOuts {
			if ft.deadKnown[mapOuts[t].node] {
				lost = append(lost, t)
			}
		}
		return lost
	}
	ft.mu.Lock()
	if len(lostLocked()) == 0 {
		ft.mu.Unlock()
		return
	}
	for ft.recovering {
		ft.cond.Wait()
	}
	// Re-check: the recovery just finished may have covered our losses,
	// or the job may have failed while we waited.
	lost := lostLocked()
	if len(lost) == 0 || ft.aborted {
		ft.mu.Unlock()
		return
	}
	ft.recovering = true
	ft.mu.Unlock()

	var ferr error
	for _, t := range lost {
		if err := ft.rerunMapTask(t, splits, mapOuts, mapReports, mapNext); err != nil {
			ferr = err
			break
		}
	}
	ft.mu.Lock()
	ft.recovering = false
	if ferr != nil {
		ft.failLocked(ferr)
	}
	ft.cond.Broadcast()
	ft.mu.Unlock()
}

// rerunMapTask re-executes one lost map task on a live node, retrying
// across nodes up to MaxAttempts. The old canonical output name is on a
// dead disk, so the fresh commit rename cannot collide.
func (ft *ftRun) rerunMapTask(t int, splits []Split, mapOuts []mapOutput, mapReports []TaskReport, mapNext []int) error {
	kind := attemptRecovery
	for tries := 0; tries < ft.job.MaxAttempts; tries++ {
		node, ok := ft.pickLiveNode(t + tries)
		if !ok {
			return fmt.Errorf("mr: map task %d output lost to node death and no live node remains to re-run it", t)
		}
		ft.mu.Lock()
		attemptNo := mapNext[t]
		mapNext[t]++
		ft.mapAttempts++
		if kind == attemptRecovery {
			ft.recovered++
		} else {
			ft.retries++
		}
		ft.mu.Unlock()
		kind = attemptRetry
		plan := ft.inj.Plan(node, t, attemptNo, chaos.MapSites())
		out, rep, created, err := runMapTask(ft.c, ft.job, t, splits[t], node, 0, attemptNo, plan)
		if err != nil {
			ft.refreshDeadNodes()
			ft.sweepDiskFiles(node, created)
			ft.mu.Lock()
			ft.failed++
			ft.mu.Unlock()
			continue
		}
		canon := canonicalMapOutName(ft.job.filePrefix, t)
		if rerr := ft.c.Disks[node].Rename(out.index.Name, canon); rerr != nil {
			ft.refreshDeadNodes()
			ft.sweepDiskFiles(node, []string{out.index.Name})
			ft.mu.Lock()
			ft.failed++
			ft.mu.Unlock()
			continue
		}
		out.index.Name = canon
		ft.mu.Lock()
		mapOuts[t] = out
		mapReports[t] = rep
		ft.mu.Unlock()
		// The recovered output is a fresh commit: re-offer it so staging
		// can cover partitions that had not fetched the lost copy. (The
		// per-partition dedup makes this a no-op where staging already
		// holds the — byte-identical — old segment.)
		ft.shuffle.offer(t, out)
		return nil
	}
	return fmt.Errorf("mr: map task %d re-run failed %d attempts after output loss", t, ft.job.MaxAttempts)
}

// pickLiveNode returns a usable node, rotating by seed so consecutive
// recoveries spread across the cluster.
func (ft *ftRun) pickLiveNode(seed int) (int, bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	n := len(ft.deadKnown)
	for i := 0; i < n; i++ {
		node := (seed + i) % n
		if !ft.deadKnown[node] && !ft.blacklisted[node] {
			return node, true
		}
	}
	return 0, false
}

// fillResult copies the run's fault-tolerance accounting onto the Result.
func (ft *ftRun) fillResult(res *Result) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	res.MapAttempts = ft.mapAttempts
	res.ReduceAttempts = ft.reduceAttempts
	res.TaskRetries = ft.retries
	res.SpeculativeTasks = ft.spec
	res.SpeculativeWins = ft.specWins
	res.RecoveredMapTasks = ft.recovered
	res.FailedAttempts = ft.failed
	res.SweptAttempts = ft.swept
	res.CleanupErrors = ft.cleanupErrs
	if ft.c.Chaos != nil {
		res.DeadNodes = ft.c.Chaos.DeadNodes()
	}
	for n, b := range ft.blacklisted {
		if b {
			res.BlacklistedNodes = append(res.BlacklistedNodes, n)
		}
	}
	ctr := res.Agg.Counters
	ctr[metrics.CtrMapAttempts] += int64(ft.mapAttempts)
	ctr[metrics.CtrReduceAttempts] += int64(ft.reduceAttempts)
	for k, v := range map[string]int{
		metrics.CtrTaskRetries:       ft.retries,
		metrics.CtrSpeculativeTasks:  ft.spec,
		metrics.CtrSpeculativeWins:   ft.specWins,
		metrics.CtrRecoveredMapTasks: ft.recovered,
		metrics.CtrFailedAttempts:    ft.failed,
		metrics.CtrSweptAttemptDirs:  ft.swept,
	} {
		if v > 0 {
			ctr[k] += int64(v)
		}
	}
	if ft.cleanupErrs > 0 {
		ctr[metrics.CtrCleanupErrors] += int64(ft.cleanupErrs)
	}
}

// takeSource classifies where a handed-out map task came from: its own
// node's local queue, the homeless orphan pool, or another node's queue
// (a work steal).
type takeSource int

const (
	takeLocal takeSource = iota
	takeOrphan
	takeStolen
)

// scheduler hands out map tasks with locality preference and work stealing.
type scheduler struct {
	mu      sync.Mutex
	queues  [][]int // per-node pending task indexes
	orphans []int   // tasks whose primary host is out of range
	aborted bool
	local   int // tasks taken from their own node's queue
	stolen  int // tasks stolen from another node's queue
}

func newScheduler(nodes int, splits []Split) *scheduler {
	s := &scheduler{queues: make([][]int, nodes)}
	for i, sp := range splits {
		host := -1
		if len(sp.Hosts) > 0 && sp.Hosts[0] >= 0 && sp.Hosts[0] < nodes {
			host = sp.Hosts[0]
		}
		if host < 0 {
			s.orphans = append(s.orphans, i)
		} else {
			s.queues[host] = append(s.queues[host], i)
		}
	}
	return s
}

// take pops a task for the given node: local first, then the orphan pool,
// then stealing from the longest queue. It reports where the task came
// from so placement quality (data-local vs stolen) is observable.
func (s *scheduler) take(node int) (int, takeSource, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		return 0, takeLocal, false
	}
	if q := s.queues[node]; len(q) > 0 {
		task := q[0]
		s.queues[node] = q[1:]
		s.local++
		return task, takeLocal, true
	}
	if len(s.orphans) > 0 {
		task := s.orphans[0]
		s.orphans = s.orphans[1:]
		return task, takeOrphan, true
	}
	// Steal from the longest queue.
	victim, max := -1, 0
	for n, q := range s.queues {
		if len(q) > max {
			victim, max = n, len(q)
		}
	}
	if victim < 0 {
		return 0, takeLocal, false
	}
	q := s.queues[victim]
	task := q[len(q)-1] // steal from the tail: the head stays local
	s.queues[victim] = q[:len(q)-1]
	s.stolen++
	return task, takeStolen, true
}

// placement returns how many handed-out tasks were data-local vs stolen.
func (s *scheduler) placement() (local, stolen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.local, s.stolen
}

func (s *scheduler) abort() {
	s.mu.Lock()
	s.aborted = true
	s.mu.Unlock()
}

// SortTaskReports orders reports map-first then by index, for stable
// experiment output.
func SortTaskReports(reports []TaskReport) {
	sort.SliceStable(reports, func(i, j int) bool {
		if reports[i].Kind != reports[j].Kind {
			return reports[i].Kind == "map"
		}
		return reports[i].Index < reports[j].Index
	})
}
