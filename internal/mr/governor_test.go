package mr

import (
	"sync/atomic"
	"testing"
	"time"
)

// Governor unit suite: the token gate must clamp to its floor while the
// fabric carries non-copier traffic, ramp with map progress, open fully
// when the map barrier lifts, and fail acquires on close.

// govLimit reads the governor's current token ceiling.
func govLimit(g *copierGovernor) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.limit
}

// waitGovLimit polls until the limit reaches want (the retune ticker may
// need a few periods to observe a fabric-heat change).
func waitGovLimit(t *testing.T, g *copierGovernor, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for govLimit(g) < want {
		if time.Now().After(deadline) {
			t.Fatalf("limit = %d, want >= %d before deadline", govLimit(g), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGovernorThrottlesWhileFabricHot pins the protection contract: with
// remote transfers in flight beyond the copiers' own, the limit clamps to
// the floor and a second acquire parks until the map barrier lifts.
func TestGovernorThrottlesWhileFabricHot(t *testing.T) {
	var hot atomic.Int64
	hot.Store(10) // synthetic map-phase fabric traffic
	g := newCopierGovernor(1, 8, hot.Load)
	defer g.close()

	granted, waited := g.acquire()
	if !granted || waited != 0 {
		t.Fatalf("first acquire: granted=%v waited=%v, want immediate grant", granted, waited)
	}
	if got := govLimit(g); got != 1 {
		t.Fatalf("hot-fabric limit = %d, want floor 1", got)
	}

	// Progress alone must not raise the limit while the fabric stays hot.
	g.noteProgress(9, 10)
	if got := govLimit(g); got != 1 {
		t.Fatalf("hot-fabric limit after progress = %d, want floor 1", got)
	}

	second := make(chan time.Duration, 1)
	go func() {
		ok, w := g.acquire()
		if !ok {
			w = -1
		}
		second <- w
	}()
	select {
	case <-second:
		t.Fatal("second acquire returned with all tokens held and the fabric hot")
	case <-time.After(20 * time.Millisecond):
	}

	g.markMapDone()
	select {
	case w := <-second:
		if w < 0 {
			t.Fatal("second acquire failed after the map barrier lifted")
		}
		if w == 0 {
			t.Fatal("parked acquire reported zero wait")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second acquire still parked after markMapDone")
	}
	if got := govLimit(g); got != 8 {
		t.Fatalf("post-map limit = %d, want full budget 8", got)
	}
}

// TestGovernorRampsWithProgressAndRetune pins the two recovery paths short
// of the map barrier: committed-map progress raises the limit directly on
// a cold fabric, and the retune ticker observes the fabric draining while
// copiers are parked.
func TestGovernorRampsWithProgressAndRetune(t *testing.T) {
	var hot atomic.Int64
	g := newCopierGovernor(1, 9, hot.Load)
	defer g.close()

	g.noteProgress(1, 2)
	if got := govLimit(g); got != 5 { // 1 + 0.5*(9-1)
		t.Fatalf("half-progress limit = %d, want 5", got)
	}
	// Stale lower progress must not lower the ramp.
	g.noteProgress(1, 4)
	if got := govLimit(g); got != 5 {
		t.Fatalf("limit after stale progress = %d, want 5", got)
	}

	// Heat the fabric: the retune ticker observes the heat and clamps the
	// ceiling to the floor within a few periods.
	hot.Store(5)
	deadline := time.Now().Add(5 * time.Second)
	for govLimit(g) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("limit = %d, want clamp to 1 after fabric heated", govLimit(g))
		}
		time.Sleep(time.Millisecond)
	}

	// Drain the fabric: the retune ticker alone must re-raise the limit.
	hot.Store(0)
	waitGovLimit(t, g, 5)
}

// TestGovernorCloseFailsParkedAcquire pins the shutdown contract: close
// wakes parked copiers with no token.
func TestGovernorCloseFailsParkedAcquire(t *testing.T) {
	g := newCopierGovernor(1, 4, func() int64 { return 100 })
	if ok, _ := g.acquire(); !ok {
		t.Fatal("first acquire refused")
	}
	res := make(chan bool, 1)
	go func() { ok, _ := g.acquire(); res <- ok }()
	time.Sleep(5 * time.Millisecond)
	g.close()
	select {
	case ok := <-res:
		if ok {
			t.Fatal("acquire granted a token on a closed governor")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake the parked acquire")
	}
}
