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
	jobSpan := job.Trace.Start(trace.KindJob, trace.LaneScheduler, -1, -1, 0)
	defer jobSpan.End()

	ft := newFTRun(c, job, inj, splits)

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
	// overlapping shuffle I/O with the rest of the map phase. Reduce
	// attempts see it through shuffleEnv, whose resnapshot lets an
	// attempt that catches a source node death mid-fetch run lost-output
	// recovery in place and refetch. The deferred close covers early
	// error returns; the success path closes it explicitly before reading
	// its counters.
	if !job.SerialShuffle {
		ft.shuffle = newShuffleService(c, job, ft.tm)
		defer ft.shuffle.close()
		ft.env = &shuffleEnv{
			svc:     ft.shuffle,
			backoff: job.RetryBackoff,
			resnapshot: func() []mapOutput {
				ft.recoverLostMapOuts()
				return ft.snapshotMapOuts()
			},
		}
	}

	if err := ft.runPhase(len(splits), newScheduler(c.Nodes(), splits, ft.tm), c.MapSlots(), ft.mapAttempt); err != nil {
		return nil, err
	}
	res.MapWall = time.Since(start)
	ft.shuffle.markMapDone()
	// Recovery re-runs lost map outputs during the reduce phase and
	// numbers its attempts after the map phase's.
	ft.mapTasks = ft.tasks

	reduceStart := time.Now()
	if err := ft.runPhase(job.NumReducers, nil, c.ReduceSlots(), ft.reduceAttempt); err != nil {
		return nil, err
	}
	res.ReduceWall = time.Since(reduceStart)
	res.Wall = time.Since(start)
	res.Outputs = ft.outputs
	ft.shuffle.close() // flush staging before counter reads and disk cleanup

	// Committed map outputs are no longer needed. Removal is best-effort
	// cleanup: failures are counted, not fatal.
	ft.sweepJobIntermediates(nil)

	res.Tasks = append(append([]TaskReport(nil), ft.mapReports...), ft.reduceReports...)
	for _, t := range res.Tasks {
		res.Agg.Merge(t.Metrics)
	}
	res.Agg.Merge(ft.tm.Snapshot())
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

// counter names the counter an attempt of this kind is counted under on
// top of its phase's attempt counter; base attempts have none.
func (k attemptKind) counter() string {
	switch k {
	case attemptRetry:
		return metrics.CtrTaskRetries
	case attemptSpeculative:
		return metrics.CtrSpeculativeTasks
	case attemptRecovery:
		return metrics.CtrRecoveredMapTasks
	}
	return ""
}

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
	inj *chaos.Injector
	// tm is the single source of every job-level count: attempts,
	// retries, speculation, recovery, sweeps, cleanup failures,
	// placement, and the shuffle service's counters. Every Inc reaches
	// the live aggregate as it happens; the runner merges the snapshot
	// into Result.Agg once, and fillResult reads Result's named counter
	// fields back out of Agg.
	tm   *metrics.TaskMetrics
	mu   sync.Mutex
	cond *sync.Cond

	aborted bool
	err     error

	// Job-wide task tables. Map entries are rewritten by lost-output
	// recovery during the reduce phase, so reads go through
	// snapshotMapOuts.
	splits        []Split
	mapOuts       []mapOutput
	mapReports    []TaskReport
	outputs       []string
	reduceReports []TaskReport
	mapTasks      []ftTask // the map phase's task state, kept for recovery's attempt numbering

	// Per-phase state, reset by beginPhase.
	gen       int // phase generation; stale backoff timers check it
	total     int
	done      int
	phaseDone bool
	tasks     []ftTask
	queue     []pendingAttempt
	inner     *scheduler // locality scheduler (map phase only)

	// Cross-phase node state.
	nodeFailures  []int
	blacklisted   []bool
	deadKnown     []bool
	activeWorkers int
	recovering    bool // a lost-map-output recovery is in flight (singleflight)

	// shuffle is the pipelined-shuffle service and env its reduce-attempt
	// face (both nil under SerialShuffle): map commits are offered to its
	// copier pools, and the reduce-phase queue prefers handing a
	// partition to its staging node.
	shuffle *shuffleService
	env     *shuffleEnv
}

func newFTRun(c *cluster.Cluster, job *Job, inj *chaos.Injector, splits []Split) *ftRun {
	ft := &ftRun{
		c:             c,
		job:           job,
		inj:           inj,
		tm:            metrics.NewTaskMetrics(),
		splits:        splits,
		mapOuts:       make([]mapOutput, len(splits)),
		mapReports:    make([]TaskReport, len(splits)),
		outputs:       make([]string, job.NumReducers),
		reduceReports: make([]TaskReport, job.NumReducers),
		nodeFailures:  make([]int, c.Nodes()),
		blacklisted:   make([]bool, c.Nodes()),
		deadKnown:     make([]bool, c.Nodes()),
	}
	ft.cond = sync.NewCond(&ft.mu)
	return ft
}

// runPhase is the one phase driver. It runs total tasks to completion —
// handed out by the locality scheduler inner in the map phase, queued in
// task order when inner is nil — on a worker per (node, slot), each
// passing its attempts to run, with the speculation monitor alongside.
// If the job failed, it closes the shuffle service and sweeps what the
// job had committed before returning the job's error.
func (ft *ftRun) runPhase(total int, inner *scheduler, slots int, run func(pa pendingAttempt, src takeSource, node, slot int)) error {
	ft.beginPhase(total, inner, ft.c.Nodes()*slots)
	stop := make(chan struct{})
	var specWG, wg sync.WaitGroup
	specWG.Add(1)
	go func() { defer specWG.Done(); ft.speculate(stop) }()
	for node := 0; node < ft.c.Nodes(); node++ {
		for slot := 0; slot < slots; slot++ {
			wg.Add(1)
			go func(node, slot int) {
				defer wg.Done()
				for {
					pa, src, ok := ft.next(node)
					if !ok {
						return
					}
					run(pa, src, node, slot)
				}
			}(node, slot)
		}
	}
	wg.Wait()
	close(stop)
	specWG.Wait()
	if err := ft.jobErr(); err != nil {
		ft.shuffle.close()
		ft.sweepJobIntermediates(ft.outputs)
		return err
	}
	return nil
}

// beginPhase resets per-phase scheduling state; without a locality
// scheduler it queues every task's first attempt. Node state (deaths,
// blacklist) carries across phases: a dead node stays dead.
func (ft *ftRun) beginPhase(total int, inner *scheduler, workers int) {
	now := time.Now()
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.gen++
	ft.total = total
	ft.done = 0
	ft.phaseDone = total == 0
	ft.tasks = make([]ftTask, total)
	ft.queue = nil
	ft.inner = inner
	ft.activeWorkers = workers
	if inner == nil {
		for t := range ft.tasks {
			ft.queue = append(ft.queue, pendingAttempt{task: t, attempt: 0, kind: attemptBase, enqueued: now})
			ft.tasks[t].nextAttempt = 1
		}
	}
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
			if ft.inner == nil && ft.shuffle != nil {
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

// noteStartLocked registers a phase attempt with the speculation monitor
// and counts it.
func (ft *ftRun) noteStartLocked(pa pendingAttempt, node int) {
	ts := &ft.tasks[pa.task]
	ts.running = append(ts.running, runningInfo{attempt: pa.attempt, node: node, start: time.Now()})
	ft.countStart(ft.inner != nil, pa.kind)
}

// countStart is the one place attempts are counted, at attempt start, so
// every started attempt — phase or recovery — is counted exactly once
// under its kind.
func (ft *ftRun) countStart(mapTask bool, kind attemptKind) {
	if mapTask {
		ft.tm.Inc(metrics.CtrMapAttempts, 1)
	} else {
		ft.tm.Inc(metrics.CtrReduceAttempts, 1)
	}
	if name := kind.counter(); name != "" {
		ft.tm.Inc(name, 1)
	}
}

// countFailure is the one place failed attempts are counted. It first
// folds in any node death the failure may have been caused by.
func (ft *ftRun) countFailure() {
	ft.refreshDeadNodes()
	ft.tm.Inc(metrics.CtrFailedAttempts, 1)
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

// attemptFailed handles a phase attempt's error: requeue with jittered
// backoff, blacklist the node if it keeps failing attempts, or fail the
// job once the task exhausts MaxAttempts. A failure after a rival
// committed is moot — the task is done regardless.
func (ft *ftRun) attemptFailed(pa pendingAttempt, node int, err error) {
	ft.countFailure()
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.noteEndLocked(pa.task, pa.attempt)
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

// commitLocked records pa as its task's winning attempt: the commit
// accounting both phases share.
func (ft *ftRun) commitLocked(pa pendingAttempt, wall time.Duration) {
	ts := &ft.tasks[pa.task]
	ts.committed = true
	ts.winDur = wall
	if pa.kind == attemptSpeculative {
		ft.tm.Inc(metrics.CtrSpeculativeWins, 1)
	}
	ft.done++
	ft.phaseDone = ft.done == ft.total
	ft.cond.Broadcast()
}

// mapAttempt is the map phase's worker body: run the attempt, then commit
// it or hand its failure to the retry machinery.
func (ft *ftRun) mapAttempt(pa pendingAttempt, src takeSource, node, slot int) {
	if src == takeStolen {
		ft.job.Trace.Instant(trace.KindWorkSteal, trace.LaneScheduler, node, pa.task, int64(ft.splits[pa.task].Hosts[0]))
	}
	out, rep, err := ft.runMap(pa, node, slot)
	if err != nil {
		ft.attemptFailed(pa, node, err)
		return
	}
	ft.commitMap(pa, node, out, rep)
}

// runMap runs one map attempt on node, sweeping a failed attempt's
// files. The map phase and lost-output recovery both run attempts here.
func (ft *ftRun) runMap(pa pendingAttempt, node, slot int) (mapOutput, TaskReport, error) {
	plan := ft.inj.Plan(node, pa.task, pa.attempt, chaos.MapSites())
	out, rep, created, err := runMapTask(ft.c, ft.job, pa.task, ft.splits[pa.task], node, slot, pa.attempt, plan)
	if err != nil {
		ft.sweepAttempt(ft.c.Disks[node], created)
	}
	return out, rep, err
}

// publishMap renames a finished map attempt's output to the canonical
// name, records it in the map-output table and offers it to the shuffle.
// A failed rename sweeps the attempt's output. The map phase and
// lost-output recovery both commit here.
func (ft *ftRun) publishMap(pa pendingAttempt, node int, out mapOutput, rep TaskReport) error {
	canon := canonicalMapOutName(ft.job.filePrefix, pa.task)
	if err := ft.c.Disks[node].Rename(out.index.Name, canon); err != nil {
		ft.sweepAttempt(ft.c.Disks[node], []string{out.index.Name})
		return err
	}
	out.index.Name = canon
	ft.mu.Lock()
	ft.mapOuts[pa.task] = out
	ft.mapReports[pa.task] = rep
	ft.mu.Unlock()
	ft.shuffle.offer(pa.task, out)
	return nil
}

// commitMap commits a finished map-phase attempt. The disk rename
// arbitrates same-node duplicates (fail-on-exist); the committing latch
// serializes cross-node duplicates, whose attempt outputs live on
// different disks where both renames would succeed.
func (ft *ftRun) commitMap(pa pendingAttempt, node int, out mapOutput, rep TaskReport) {
	ft.mu.Lock()
	ft.noteEndLocked(pa.task, pa.attempt)
	ts := &ft.tasks[pa.task]
	for ts.committing {
		ft.cond.Wait()
	}
	if ts.committed || ft.aborted {
		ft.mu.Unlock()
		ft.sweepAttempt(ft.c.Disks[node], []string{out.index.Name})
		return
	}
	ts.committing = true
	ft.mu.Unlock()

	err := ft.publishMap(pa, node, out, rep)

	ft.mu.Lock()
	ts.committing = false
	if err != nil {
		ft.cond.Broadcast()
		ft.mu.Unlock()
		ft.attemptFailed(pa, node, err)
		return
	}
	ft.commitLocked(pa, rep.Wall)
	done, total := ft.done, ft.total
	ft.mu.Unlock()
	ft.shuffle.noteMapProgress(done, total)
}

// reduceAttempt is the reduce phase's worker body. A reduce attempt
// commits inside runReduceTask (the DFS rename picks the winner); the
// runner records the win, or sweeps a failed or losing attempt's temp
// output.
func (ft *ftRun) reduceAttempt(pa pendingAttempt, _ takeSource, node, slot int) {
	queueWait := time.Since(pa.enqueued)
	ft.job.Trace.Complete(trace.KindWaitQueue, trace.LaneReduce, node, pa.task, slot, pa.enqueued, queueWait)
	ft.job.Hists.QueueWait.Record(int64(queueWait))
	plan := ft.inj.Plan(node, pa.task, pa.attempt, chaos.ReduceSites())
	outName, won, created, rep, err := runReduceTask(ft.c, ft.job, pa.task, node, slot, pa.attempt, plan, ft.env, ft.snapshotMapOuts())
	rep.QueueWait = queueWait
	if err != nil {
		ft.sweepAttempt(ft.c.FS, created)
		ft.recoverLostMapOuts()
		ft.attemptFailed(pa, node, err)
		return
	}
	if !won {
		// A rival attempt committed first: discard.
		ft.sweepAttempt(ft.c.FS, created)
		ft.mu.Lock()
		ft.noteEndLocked(pa.task, pa.attempt)
		ft.mu.Unlock()
		return
	}
	ft.mu.Lock()
	ft.noteEndLocked(pa.task, pa.attempt)
	ft.outputs[pa.task] = outName
	ft.reduceReports[pa.task] = rep
	ft.commitLocked(pa, rep.Wall)
	ft.mu.Unlock()
	ft.shuffle.release(pa.task)
}

// remover is what a sweep removes files from: a node disk or the DFS.
type remover interface {
	Remove(name string) error
}

// remove deletes name from fs, best-effort: a dead node's removal is
// skipped silently (the disk is gone with its node); other failures
// count as cleanup errors.
func (ft *ftRun) remove(fs remover, name string) {
	if err := fs.Remove(name); err != nil && !errors.Is(err, chaos.ErrNodeDead) {
		ft.tm.Inc(metrics.CtrCleanupErrors, 1)
	}
}

// sweepAttempt removes a failed or losing attempt's surviving files,
// from a node disk (map attempts) or the DFS (reduce attempts).
func (ft *ftRun) sweepAttempt(fs remover, files []string) {
	if len(files) == 0 {
		return
	}
	ft.tm.Inc(metrics.CtrSweptAttemptDirs, 1)
	for _, name := range files {
		ft.remove(fs, name)
	}
}

// errJobCanceled is what a task attempt fails with when it observes the
// job's cancel flag. The watcher has already failed the job by then, so
// attemptFailed absorbs these without scheduling retries.
var errJobCanceled = errors.New("mr: attempt canceled")

// sweepJobIntermediates removes the canonical map outputs on node disks
// and the given committed reduce outputs on the DFS: after a successful
// job, the map outputs nobody needs any more; after a failed or canceled
// one, everything it committed. Attempt-scoped temp files are already
// swept by the attempt machinery, and staged overflow segments by the
// shuffle service's close, so after the failure sweep a dead job leaves
// nothing on the cluster. Dead nodes are skipped. Called only after all
// workers have joined.
func (ft *ftRun) sweepJobIntermediates(outputs []string) {
	for _, mo := range ft.mapOuts {
		if mo.index.Name != "" && !ft.c.NodeDead(mo.node) {
			ft.remove(ft.c.Disks[mo.node], mo.index.Name)
		}
	}
	for _, name := range outputs {
		if name != "" {
			ft.remove(ft.c.FS, name)
		}
	}
}

// snapshotMapOuts copies the map-output table under the lock, so a reduce
// attempt's fetch set is consistent even while recovery rewrites entries.
func (ft *ftRun) snapshotMapOuts() []mapOutput {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]mapOutput(nil), ft.mapOuts...)
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
func (ft *ftRun) recoverLostMapOuts() {
	ft.refreshDeadNodes()
	lostLocked := func() []int {
		var lost []int
		for t := range ft.mapOuts {
			if ft.deadKnown[ft.mapOuts[t].node] {
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
		if err := ft.rerunMapTask(t); err != nil {
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
// across nodes up to MaxAttempts, through the map phase's attempt,
// commit and accounting helpers. The old canonical output name is on a
// dead disk, so the fresh commit rename cannot collide; publishing
// re-offers the output to the shuffle, so staging can cover partitions
// that had not fetched the lost copy (the per-partition dedup makes this
// a no-op where staging already holds the byte-identical old segment).
func (ft *ftRun) rerunMapTask(t int) error {
	kind := attemptRecovery
	for tries := 0; tries < ft.job.MaxAttempts; tries++ {
		node, ok := ft.pickLiveNode(t + tries)
		if !ok {
			return fmt.Errorf("mr: map task %d output lost to node death and no live node remains to re-run it", t)
		}
		ft.mu.Lock()
		pa := pendingAttempt{task: t, attempt: ft.mapTasks[t].nextAttempt, kind: kind}
		ft.mapTasks[t].nextAttempt++
		ft.mu.Unlock()
		ft.countStart(true, kind)
		kind = attemptRetry
		out, rep, err := ft.runMap(pa, node, 0)
		if err == nil {
			err = ft.publishMap(pa, node, out, rep)
		}
		if err == nil {
			return nil
		}
		ft.countFailure()
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

// counterFields maps each named int counter field of a Result to the
// Agg.Counters entry it is a view of.
func (r *Result) counterFields() map[string]*int {
	return map[string]*int{
		metrics.CtrLocalMapTasks:        &r.LocalMapTasks,
		metrics.CtrStolenMapTasks:       &r.StolenMapTasks,
		metrics.CtrMapAttempts:          &r.MapAttempts,
		metrics.CtrReduceAttempts:       &r.ReduceAttempts,
		metrics.CtrTaskRetries:          &r.TaskRetries,
		metrics.CtrSpeculativeTasks:     &r.SpeculativeTasks,
		metrics.CtrSpeculativeWins:      &r.SpeculativeWins,
		metrics.CtrRecoveredMapTasks:    &r.RecoveredMapTasks,
		metrics.CtrFailedAttempts:       &r.FailedAttempts,
		metrics.CtrSweptAttemptDirs:     &r.SweptAttempts,
		metrics.CtrCleanupErrors:        &r.CleanupErrors,
		metrics.CtrShuffleEarlySegments: &r.ShuffleEarlySegments,
		metrics.CtrShuffleStagedSpills:  &r.ShuffleStagedSpills,
		metrics.CtrShuffleFetchRetries:  &r.ShuffleFetchRetries,
		metrics.CtrShuffleBatchFetches:  &r.ShuffleBatchFetches,
		metrics.CtrShuffleBatchSegments: &r.ShuffleBatchSegments,
		metrics.CtrShuffleGovThrottles:  &r.ShuffleGovThrottles,
	}
}

// fillResult fills Result's named counter fields from Agg.Counters, their
// one source, and lists the dead and blacklisted nodes.
func (ft *ftRun) fillResult(res *Result) {
	ctr := res.Agg.Counters
	for name, field := range res.counterFields() {
		*field = int(ctr[name])
	}
	res.ShuffleStagingPeak = ctr[metrics.CtrShuffleStagingPeak]
	if ft.c.Chaos != nil {
		res.DeadNodes = ft.c.Chaos.DeadNodes()
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for n, b := range ft.blacklisted {
		if b {
			res.BlacklistedNodes = append(res.BlacklistedNodes, n)
		}
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

// scheduler hands out map tasks with locality preference and work
// stealing, counting data-local and stolen placements on tm.
type scheduler struct {
	mu      sync.Mutex
	tm      *metrics.TaskMetrics
	queues  [][]int // per-node pending task indexes
	orphans []int   // tasks whose primary host is out of range
	aborted bool
}

func newScheduler(nodes int, splits []Split, tm *metrics.TaskMetrics) *scheduler {
	s := &scheduler{tm: tm, queues: make([][]int, nodes)}
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
// from, and counts data-local and stolen takes, so placement quality is
// observable; orphans count toward neither.
func (s *scheduler) take(node int) (int, takeSource, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		return 0, takeLocal, false
	}
	if q := s.queues[node]; len(q) > 0 {
		task := q[0]
		s.queues[node] = q[1:]
		s.tm.Inc(metrics.CtrLocalMapTasks, 1)
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
	s.tm.Inc(metrics.CtrStolenMapTasks, 1)
	return task, takeStolen, true
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
