package mr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/trace"
)

// This file is the pipelined shuffle. Each reduce partition gets a small
// pool of copier goroutines that fetch the partition's segments of
// committed map outputs while the map phase is still running (early
// fetch), stage the bytes at the partition's staging node — in a bounded
// memory buffer with backpressure, overflowing to the staging node's disk
// when the budget is exhausted — and hand staged segments to reduce
// attempts. A segment that was never staged (fetch raced a node death,
// the service was disabled, the copier lost to the reduce phase) is
// direct-fetched exactly like the serial shuffle, so the pipelined path
// never changes job output.
//
// The fetch plane is batched and governed (DESIGN §10):
//
//   - Batching: a copier visiting a source node drains all of that node's
//     queued segments for its partition in one fabric transfer, up to
//     copierBatchBytes, amortizing the per-transfer fabric latency
//     that made fine-grained fan-out pay one round trip per segment.
//     Segments cross the fabric and stage in their on-disk format
//     (prefix-compressed only when the job sets CompressRuns).
//   - Governing: copiers take a token from the contention-aware governor
//     (governor.go) before each batch, so fan-out backs off while the map
//     phase is fabric-hot and ramps up as maps drain.

// stagingReserveWait bounds how long a copier waits for staging-buffer
// space before overflowing the segment to the staging node's disk. The
// wait is the backpressure; the overflow keeps copiers from deadlocking
// against reducers that have not started consuming yet.
const stagingReserveWait = 2 * time.Millisecond

// copierBatchBytes caps one copier batch: a copier visiting a source
// node drains that node's ready segments for its partition in one fabric
// transfer up to this many bytes. The head segment is always taken, even
// if it alone exceeds the cap.
const copierBatchBytes = 1 << 20

// stagingBuffer bounds the memory held by staged shuffle segments.
// Copiers reserve space before keeping fetched bytes in memory and
// release it when the partition is done; close wakes every waiter.
type stagingBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	budget int64
	used   int64
	peak   int64
	closed bool
}

func newStagingBuffer(budget int64) *stagingBuffer {
	b := &stagingBuffer{budget: budget}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// reserve claims n bytes of staging budget, waiting up to maxWait for
// space (maxWait < 0 waits indefinitely, 0 never waits). ok is false when
// n exceeds the whole budget, the buffer is closed, or the wait expires
// first; waited is the time spent blocked for space either way, which the
// caller attributes to backpressure (granted) or stall (expired).
func (b *stagingBuffer) reserve(n int64, maxWait time.Duration) (ok bool, waited time.Duration) {
	if n > b.budget {
		return false, 0
	}
	expired := false
	var timer *time.Timer
	var waitStart time.Time
	b.mu.Lock()
	defer b.mu.Unlock()
	defer func() {
		if !waitStart.IsZero() {
			waited = time.Since(waitStart)
		}
	}()
	for !b.closed && b.used+n > b.budget {
		if maxWait == 0 {
			return false, 0
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		if maxWait > 0 && timer == nil {
			timer = time.AfterFunc(maxWait, func() {
				b.mu.Lock()
				expired = true
				b.mu.Unlock()
				b.cond.Broadcast()
			})
			defer timer.Stop()
		}
		if expired {
			return false, 0
		}
		b.cond.Wait()
	}
	if b.closed {
		return false, 0
	}
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	return true, 0
}

// release returns n reserved bytes to the budget.
func (b *stagingBuffer) release(n int64) {
	if n == 0 {
		return
	}
	b.mu.Lock()
	b.used -= n
	b.cond.Broadcast()
	b.mu.Unlock()
}

// close fails all pending and future reservations.
func (b *stagingBuffer) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// peakBytes returns the buffer's occupancy high-water mark.
func (b *stagingBuffer) peakBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// stageReq asks a partition's copiers to stage one committed map output's
// segment.
type stageReq struct {
	src int // source map task index
	out mapOutput
}

// stagedSeg is one fetched segment parked at its partition's staging home,
// in its on-disk format: in memory inside the budget, or a file on the
// home disk.
type stagedSeg struct {
	data       []byte // in-memory copy; nil when overflowed to disk
	file       string // staging file on the home node's disk when data == nil
	len        int64
	compressed bool // kvio prefix-compressed run format (Job.CompressRuns)
}

// shuffleService runs the job-wide copier pools. All methods are nil-safe
// so the serial-shuffle configuration can skip every call site.
type shuffleService struct {
	c       *cluster.Cluster
	tr      *trace.Tracer
	prefix  string
	copiers int
	gov     *copierGovernor
	buf     *stagingBuffer
	// tm is the service's own metrics. Staging work belongs to the job,
	// not to any single attempt — an attempt's report is discarded when it
	// fails or loses a commit race, which would silently drop counts — so
	// the runner merges this snapshot into the job aggregate exactly once.
	tm *metrics.TaskMetrics
	// hists is the owning job's histogram set (per-job under a service,
	// registry-backed for one-shot runs).
	hists   *Hists
	mapDone atomic.Bool

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	pend     [][]stageReq         // per-partition staging queue
	staged   []map[int]*stagedSeg // per-partition staged segments by map task
	released []bool               // partition committed; staging dropped
	wg       sync.WaitGroup
}

func newShuffleService(c *cluster.Cluster, job *Job) *shuffleService {
	parts := job.NumReducers
	s := &shuffleService{
		c:        c,
		tr:       job.Trace,
		prefix:   job.filePrefix,
		copiers:  job.ShuffleCopiers,
		gov:      newCopierGovernor(1, job.ShuffleCopiers*parts, c.Net.InFlight),
		buf:      newStagingBuffer(job.ShuffleBufferBytes),
		tm:       metrics.NewTaskMetrics(),
		hists:    job.Hists,
		pend:     make([][]stageReq, parts),
		staged:   make([]map[int]*stagedSeg, parts),
		released: make([]bool, parts),
	}
	s.cond = sync.NewCond(&s.mu)
	for p := 0; p < parts; p++ {
		s.staged[p] = make(map[int]*stagedSeg)
		for ci := 0; ci < s.copiers; ci++ {
			s.wg.Add(1)
			go s.copierLoop(p, ci)
		}
	}
	return s
}

// home is the staging node for a partition. The reduce scheduler prefers
// placing the partition's reduce attempts on the same node, making the
// staged hand-off a free local read in the common case.
func (s *shuffleService) home(part int) int {
	return part % s.c.Nodes()
}

// offer tells every partition's copier pool that a map task's output is
// committed at out. Called by the runner on each map commit (including
// lost-output recovery re-runs). A partition that already staged this
// source skips it; a rare duplicate racing an in-flight copier is
// discarded at staging time.
func (s *shuffleService) offer(src int, out mapOutput) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for part := range s.pend {
		if s.released[part] || s.staged[part][src] != nil {
			continue
		}
		s.pend[part] = append(s.pend[part], stageReq{src: src, out: out})
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// copierLoop is one copier of one partition's pool: it drains the
// partition's staging queue in batches until the partition is released or
// the service closes. Each batch is gated on a governor token, acquired
// after work is known to be pending but before any disk or fabric use, so
// parked time is measured demand, never idle-queue time.
func (s *shuffleService) copierLoop(part, ci int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && !s.released[part] && len(s.pend[part]) == 0 {
			s.cond.Wait()
		}
		if s.closed || s.released[part] {
			s.mu.Unlock()
			return
		}
		srcHint := s.pend[part][0].src
		s.mu.Unlock()

		granted, parked := s.gov.acquire()
		if parked > 0 {
			s.tm.Inc(metrics.CtrShuffleGovThrottles, 1)
			s.tm.Inc(metrics.CtrShuffleGovWaitNS, int64(parked))
			s.tr.Complete(trace.KindWaitGovernor, trace.LaneReduce,
				s.home(part), srcHint, s.c.ReduceSlots()+ci, time.Now().Add(-parked), parked)
		}

		// Re-check under the lock: a sibling copier may have drained the
		// queue (or the partition may have been released) while parked.
		s.mu.Lock()
		if s.closed || s.released[part] || len(s.pend[part]) == 0 {
			done := s.closed || s.released[part]
			s.mu.Unlock()
			if granted {
				s.gov.release()
			}
			if done {
				return
			}
			continue
		}
		batch := s.popBatchLocked(part)
		s.mu.Unlock()
		s.stageBatch(part, ci, batch)
		if granted {
			s.gov.release()
		}
	}
}

// popBatchLocked removes and returns the next copier batch: the head of
// the partition's queue plus every queued segment from the same source
// node that fits under the batch byte cap (the head is always taken, even
// oversized). Caller holds s.mu.
func (s *shuffleService) popBatchLocked(part int) []stageReq {
	q := s.pend[part]
	head := q[0]
	batch := []stageReq{head}
	total := segLen(head, part)
	var keep []stageReq
	for _, r := range q[1:] {
		if n := segLen(r, part); r.out.node == head.out.node && total+n <= copierBatchBytes {
			batch = append(batch, r)
			total += n
		} else {
			keep = append(keep, r)
		}
	}
	s.pend[part] = keep
	return batch
}

// segLen is a queued segment's on-disk length, which is also the number
// of bytes its fetch moves across the fabric.
func segLen(r stageReq, part int) int64 {
	if part < 0 || part >= len(r.out.index.Segments) {
		return 0
	}
	return r.out.index.Segments[part].Len
}

// fetchedSeg is one batch member read from its source disk.
type fetchedSeg struct {
	req  stageReq
	data []byte
}

// stageBatch fetches a batch of same-source segments to the partition's
// staging home in one fabric transfer. Staging stays best-effort: a
// segment that fails to read is dropped from the batch, a failed transfer
// abandons the whole batch, and reduce attempts direct-fetch whatever was
// not staged.
func (s *shuffleService) stageBatch(part, ci int, batch []stageReq) {
	home := s.home(part)
	copierSlot := s.c.ReduceSlots() + ci
	span := s.tr.StartAttempt(trace.KindShuffleCopy, trace.LaneReduce, home, batch[0].src, copierSlot, part)
	var (
		segs    []fetchedSeg
		wire    int64 // total bytes the batch moves across the fabric
		records int64
	)
	for _, req := range batch {
		if part < 0 || part >= len(req.out.index.Segments) {
			continue
		}
		data, err := kvio.ReadSegment(s.c.Disks[req.out.node], req.out.index, part)
		if err != nil {
			continue
		}
		wire += int64(len(data))
		records += req.out.index.Segments[part].Records
		segs = append(segs, fetchedSeg{req: req, data: data})
	}
	if len(segs) == 0 {
		span.End()
		return
	}
	if src := segs[0].req.out.node; wire > 0 && src != home {
		t0 := time.Now()
		err := s.c.Net.Transfer(src, home, wire)
		d := time.Since(t0)
		s.tm.Inc(metrics.CtrShuffleFabricWaitNS, int64(d))
		s.tr.Complete(trace.KindWaitFabric, trace.LaneReduce, home, batch[0].src, copierSlot, t0, d)
		if err != nil {
			span.End()
			return
		}
	}
	s.tm.Inc(metrics.CtrShuffleBatchFetches, 1)
	s.tm.Inc(metrics.CtrShuffleBatchSegments, int64(len(segs)))
	var staged int64
	for _, f := range segs {
		if s.stageOne(part, home, copierSlot, f) {
			staged += int64(len(f.data))
		}
	}
	span.EndCounts(records, staged)
}

// stageOne parks one fetched segment at the staging home: in the memory
// budget when a reservation lands, otherwise spilled to the home disk.
// Reports whether the segment ended up staged.
func (s *shuffleService) stageOne(part, home, copierSlot int, f fetchedSeg) bool {
	st := &stagedSeg{len: int64(len(f.data)), compressed: f.req.out.index.Compressed}
	reserveStart := time.Now()
	ok, waited := s.buf.reserve(st.len, stagingReserveWait)
	if waited > 0 {
		s.tm.Inc(metrics.CtrShuffleStagingWaitNS, int64(waited))
		s.tr.Complete(trace.KindWaitStaging, trace.LaneReduce, home, f.req.src, copierSlot, reserveStart, waited)
	}
	if ok {
		if waited > 0 {
			s.hists.StagingWait.Record(int64(waited))
		}
		st.data = f.data
	} else {
		if waited > 0 {
			s.hists.Stall.Record(int64(waited))
		}
		name := stagedSegName(s.prefix, part, f.req.src)
		if err := s.writeStaged(home, name, f.data); err != nil {
			return false
		}
		st.file = name
		s.tm.Inc(metrics.CtrShuffleStagedSpills, 1)
	}
	s.mu.Lock()
	if s.closed || s.released[part] || s.staged[part][f.req.src] != nil {
		s.mu.Unlock()
		s.discardStaged(home, st)
		return false
	}
	s.staged[part][f.req.src] = st
	s.mu.Unlock()
	s.tm.Inc(metrics.CtrShuffleStagedSegments, 1)
	s.tm.Inc(metrics.CtrShuffleStagedBytes, st.len)
	if !s.mapDone.Load() {
		s.tm.Inc(metrics.CtrShuffleEarlySegments, 1)
	}
	return true
}

// stagedSegName names partition part's staged copy of map task src's
// segment on the staging node's disk.
func stagedSegName(prefix string, part, src int) string {
	return fmt.Sprintf("%s.stage-p%05d-m%05d", prefix, part, src)
}

// writeStaged persists an overflowed segment on the home node's disk.
func (s *shuffleService) writeStaged(home int, name string, raw []byte) error {
	w, err := s.c.Disks[home].Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(raw); err != nil {
		return errors.Join(err, w.Close())
	}
	return w.Close()
}

// discardStaged frees one staged segment's budget or disk file. Cleanup
// is best-effort; failures on live nodes count as cleanup errors.
func (s *shuffleService) discardStaged(home int, st *stagedSeg) {
	if st.data != nil {
		s.buf.release(st.len)
		return
	}
	if st.file == "" || s.c.NodeDead(home) {
		return
	}
	if err := s.c.Disks[home].Remove(st.file); err != nil {
		s.tm.Inc(metrics.CtrCleanupErrors, 1)
	}
}

// take hands a staged segment's records to a reduce attempt running on
// node, charging the home→node fabric hop (free when the scheduler placed
// the attempt on the staging node). The staged copy is not consumed —
// duplicate attempts of one partition may each take the same segment.
// ok=false means the segment is not staged or its staging node died; the
// caller direct-fetches from the source. The fabric hop is recorded as a
// wait-fabric span at sp's coordinates — the reduce attempt doing the
// take — so the critical-path analyzer can separate fabric time from
// shuffle I/O inside the attempt's fetch.
func (s *shuffleService) take(part, src, node int, sp spanner) (stream kvio.Stream, rawLen int64, ok bool) {
	if s == nil {
		return nil, 0, false
	}
	s.mu.Lock()
	var st *stagedSeg
	if !s.released[part] && s.staged[part] != nil {
		st = s.staged[part][src]
	}
	s.mu.Unlock()
	if st == nil {
		return nil, 0, false
	}
	home := s.home(part)
	transfer := func() error {
		t0 := time.Now()
		err := s.c.Net.Transfer(home, node, st.len)
		d := time.Since(t0)
		s.tm.Inc(metrics.CtrShuffleFabricWaitNS, int64(d))
		sp.tr.Complete(trace.KindWaitFabric, trace.LaneReduce, sp.node, sp.task, sp.slot, t0, d)
		return err
	}
	if st.data != nil {
		if err := transfer(); err != nil {
			return nil, 0, false
		}
		s.tm.Inc(metrics.CtrShuffleStagedHits, 1)
		return kvio.NewBytesSegmentStream(st.data, st.compressed), st.len, true
	}
	rc, err := s.c.Disks[home].OpenSection(st.file, 0, st.len)
	if err != nil {
		return nil, 0, false
	}
	if err := transfer(); err != nil {
		if cerr := rc.Close(); cerr != nil {
			s.tm.Inc(metrics.CtrCleanupErrors, 1)
		}
		return nil, 0, false
	}
	s.tm.Inc(metrics.CtrShuffleStagedHits, 1)
	return kvio.NewSegmentStream(rc, st.compressed), st.len, true
}

// release drops a committed partition's staging state and stops its
// copiers.
func (s *shuffleService) release(part int) {
	if s == nil {
		return
	}
	home := s.home(part)
	s.mu.Lock()
	if s.released[part] {
		s.mu.Unlock()
		return
	}
	s.released[part] = true
	segs := s.staged[part]
	s.staged[part] = nil
	s.pend[part] = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, st := range segs {
		s.discardStaged(home, st)
	}
}

// markMapDone flips early-fetch accounting off — segments staged from
// here on no longer overlap the map phase — and lifts the copier governor
// to its full token budget.
func (s *shuffleService) markMapDone() {
	if s == nil {
		return
	}
	s.mapDone.Store(true)
	s.gov.markMapDone()
}

// noteMapProgress feeds committed map counts into the copier governor's
// ramp: more committed maps, more concurrent copier batches allowed.
func (s *shuffleService) noteMapProgress(done, total int) {
	if s == nil {
		return
	}
	s.gov.noteProgress(done, total)
}

// noteRetry counts one injected shuffle-fetch fault absorbed by a reduce
// attempt's per-source retry.
func (s *shuffleService) noteRetry() {
	if s == nil {
		return
	}
	s.tm.Inc(metrics.CtrShuffleFetchRetries, 1)
}

// close stops every copier, drops all remaining staging state, and
// records the staging high-water mark. Idempotent.
func (s *shuffleService) close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.gov.close()
	s.buf.close()
	s.wg.Wait()
	s.mu.Lock()
	rem := make(map[int][]*stagedSeg)
	for p := range s.staged {
		for _, st := range s.staged[p] {
			rem[p] = append(rem[p], st)
		}
		s.staged[p] = nil
	}
	s.mu.Unlock()
	for p, segs := range rem {
		for _, st := range segs {
			s.discardStaged(s.home(p), st)
		}
	}
	s.tm.Inc(metrics.CtrShuffleStagingPeak, s.buf.peakBytes())
}

// snapshot returns the service's accumulated counters for the one-time
// merge into the job aggregate. Call only after close.
func (s *shuffleService) snapshot() metrics.Snapshot {
	return s.tm.Snapshot()
}
