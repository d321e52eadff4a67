package mr

// The contention-aware copier governor. PR 5's copier pools made the
// shuffle overlap the map phase; BENCH_shuffle.json then showed the cost:
// past one copier per partition, fan-out *hurt* (copiers-4 slower than
// copiers-1, map wall inflating) because copiers compete with map-phase
// DFS reads for fabric bandwidth and with map lanes for source-disk time.
// The governor makes that tradeoff explicit. Copiers acquire a token
// before each batch; the token limit ramps with map-phase progress and
// clamps to a floor while the fabric is hot with non-copier traffic, then
// opens fully once the map barrier lifts. Throttled time is recorded as
// wait-governor spans — deliberate idle, the inverse of copier-steal.

import (
	"sync"
	"time"
)

const (
	// governorHotThreshold is how many in-flight remote transfers beyond
	// the copiers' own count read as "the map phase needs the fabric".
	// DFS block reads and replica writes are the traffic being protected.
	governorHotThreshold = 2
	// governorRetuneEvery is the poll period for the fabric-heat signal
	// while copiers are parked; well under a map wave, well over the cost
	// of an atomic load.
	governorRetuneEvery = time.Millisecond
)

// copierGovernor is a token gate shared by all of a job's shuffle
// copiers.
type copierGovernor struct {
	inflight func() int64  // live remote-transfer count (fabric probe)
	stop     chan struct{} // closed by close(); ends the retune goroutine
	min, max int

	mu      sync.Mutex
	cond    *sync.Cond
	held    int     // tokens out
	limit   int     // current token ceiling
	done    float64 // committed fraction of map tasks, monotone in [0,1]
	mapDone bool
	closed  bool
}

// newCopierGovernor builds a governor ramping from min tokens (map phase
// start, or whenever the fabric is hot) to max (map barrier lifted).
func newCopierGovernor(min, max int, inflight func() int64) *copierGovernor {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	g := &copierGovernor{inflight: inflight, stop: make(chan struct{}), min: min, max: max, limit: min}
	g.cond = sync.NewCond(&g.mu)
	go g.retune()
	return g
}

// limitLocked computes the current token ceiling. Caller holds g.mu.
func (g *copierGovernor) limitLocked() int {
	if g.mapDone {
		return g.max
	}
	// Fabric-hot: remote transfers beyond what the copiers themselves
	// could account for means map-phase traffic is on the wire now.
	if g.inflight()-int64(g.held) >= governorHotThreshold {
		return g.min
	}
	return g.min + int(g.done*float64(g.max-g.min))
}

// refreshLocked recomputes the limit and wakes waiters when it rises.
// Caller holds g.mu.
func (g *copierGovernor) refreshLocked() {
	n := g.limitLocked()
	raised := n > g.limit
	g.limit = n
	if raised {
		g.cond.Broadcast()
	}
}

// retune polls the fabric-heat signal so parked copiers wake when the
// map phase's transfers drain, not only when a token is released. Exits
// after close.
func (g *copierGovernor) retune() {
	t := time.NewTicker(governorRetuneEvery)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.mu.Lock()
			g.refreshLocked()
			g.mu.Unlock()
		}
	}
}

// acquire blocks until a token is available or the governor closes. It
// returns whether a token was granted (callers release only granted
// tokens) and how long the copier was parked (zero on the fast path).
func (g *copierGovernor) acquire() (granted bool, waited time.Duration) {
	g.mu.Lock()
	var start time.Time
	for !g.closed && g.held >= g.limit {
		if start.IsZero() {
			start = time.Now()
		}
		g.cond.Wait()
	}
	granted = !g.closed
	if granted {
		g.held++
	}
	g.mu.Unlock()
	if !start.IsZero() {
		waited = time.Since(start)
	}
	return granted, waited
}

// release returns a granted token and wakes one parked copier.
func (g *copierGovernor) release() {
	g.mu.Lock()
	if g.held > 0 {
		g.held--
	}
	g.mu.Unlock()
	g.cond.Signal()
}

// noteProgress feeds the map phase's committed-task fraction into the
// ramp. Progress is monotone; stale notifications never lower the limit.
func (g *copierGovernor) noteProgress(done, total int) {
	if total <= 0 {
		return
	}
	f := float64(done) / float64(total)
	g.mu.Lock()
	if f > g.done {
		g.done = f
	}
	g.refreshLocked()
	g.mu.Unlock()
}

// markMapDone lifts the governor to its full token budget: with the map
// barrier down there is no map-phase traffic left to protect.
func (g *copierGovernor) markMapDone() {
	g.mu.Lock()
	g.mapDone = true
	g.refreshLocked()
	g.mu.Unlock()
}

// close wakes every parked copier with no token (acquire returns granted
// = false) and stops the retune goroutine.
func (g *copierGovernor) close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	close(g.stop)
	g.cond.Broadcast()
}
