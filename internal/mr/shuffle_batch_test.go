package mr

import (
	"testing"

	"mrtext/internal/kvio"
)

// Batched-fetch-plane unit suite: batch selection must group same-source
// segments under the byte cap.

// batchReq builds a queued stage request whose single-partition segment
// claims length n on source node.
func batchReq(src, node int, n int64) stageReq {
	return stageReq{src: src, out: mapOutput{
		node:  node,
		index: kvio.RunIndex{Segments: []kvio.Segment{{Len: n}}},
	}}
}

// batchSrcs extracts the source task ids of a popped batch.
func batchSrcs(batch []stageReq) []int {
	out := make([]int, len(batch))
	for i, r := range batch {
		out[i] = r.src
	}
	return out
}

// TestPopBatchGroupsSameSourceUnderCap pins the selection rule: the head
// is always taken, same-node followers join while the size hints fit the
// cap, everything else stays queued in order.
func TestPopBatchGroupsSameSourceUnderCap(t *testing.T) {
	const seg = copierBatchBytes * 2 / 5
	s := &shuffleService{pend: make([][]stageReq, 1)}
	s.pend[0] = []stageReq{
		batchReq(0, 0, seg),
		batchReq(1, 0, seg),
		batchReq(2, 1, seg), // other source node
		batchReq(3, 0, seg), // same node, but three segments exceed the cap
	}
	batch := s.popBatchLocked(0)
	if got := batchSrcs(batch); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("batch srcs = %v, want [0 1]", got)
	}
	if got := batchSrcs(s.pend[0]); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("kept queue srcs = %v, want [2 3]", got)
	}

	// An oversized head still ships — alone.
	s.pend[0] = []stageReq{batchReq(7, 1, 2*copierBatchBytes), batchReq(8, 1, 1)}
	batch = s.popBatchLocked(0)
	if got := batchSrcs(batch); len(got) != 1 || got[0] != 7 {
		t.Fatalf("oversized-head batch srcs = %v, want [7]", got)
	}
	if got := batchSrcs(s.pend[0]); len(got) != 1 || got[0] != 8 {
		t.Fatalf("kept queue srcs = %v, want [8]", got)
	}
}
