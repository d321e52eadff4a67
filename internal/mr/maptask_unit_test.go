package mr

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mrtext/internal/cluster"
	"mrtext/internal/kvio"
	"mrtext/internal/serde"
	"mrtext/internal/trace"
)

func TestSplitByPartition(t *testing.T) {
	recs := []kvio.Record{
		{Part: 0, Key: []byte("a"), Value: []byte("1")},
		{Part: 2, Key: []byte("b"), Value: []byte("2")},
		{Part: 0, Key: []byte("c"), Value: []byte("3")},
	}
	byPart, err := splitByPartition(recs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(byPart[0]) != 2 || len(byPart[1]) != 0 || len(byPart[2]) != 1 {
		t.Fatalf("bad split: %d/%d/%d records", len(byPart[0]), len(byPart[1]), len(byPart[2]))
	}
}

// TestSplitByPartitionError: a record routed outside [0, parts) is a
// partitioner bug and must fail the task, not be silently absorbed into
// partition 0 (which would put keys in the wrong reducer's output).
func TestSplitByPartitionError(t *testing.T) {
	for _, bad := range []int{-1, 2, 99} {
		recs := []kvio.Record{
			{Part: 0, Key: []byte("fine"), Value: []byte("1")},
			{Part: bad, Key: []byte("stray"), Value: []byte("2")},
		}
		_, err := splitByPartition(recs, 2)
		if err == nil {
			t.Fatalf("partition %d of 2 accepted", bad)
		}
		if !strings.Contains(err.Error(), "stray") {
			t.Errorf("error should name the offending key: %v", err)
		}
	}
}

// TestMergeFailureRecordsMergeSpan forces every map attempt's final merge
// to fail — the combiner marks what it emits and rejects marked input,
// so the spill pass succeeds and the merge pass errors — and checks that
// each failed attempt still records its merge span, so the merge time it
// spent before failing stays on the trace.
func TestMergeFailureRecordsMergeSpan(t *testing.T) {
	c, err := cluster.New(cluster.Fast(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("in", bytes.Repeat([]byte("word\n"), 64)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("combiner saw merge-pass input")
	mark := []byte("combined")
	tr := trace.New(1 << 12)
	job := &Job{
		Name:   "failing-merge",
		Inputs: []string{"in"},
		Trace:  tr,
		NewMapper: func() Mapper {
			return MapperFunc(func(off int64, line []byte, out Collector) error {
				return out.Collect(line, serde.EncodeInt64(1))
			})
		},
		Combine: func(key []byte, vals [][]byte, emit func(k, v []byte) error) error {
			for _, v := range vals {
				if bytes.Equal(v, mark) {
					return boom
				}
			}
			return emit(key, mark)
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(k []byte, v ValueIter, out Collector) error { return nil })
		},
	}
	if _, err := Run(c, job); !errors.Is(err, boom) {
		t.Fatalf("merge failure not propagated: %v", err)
	}
	spans := make(map[trace.Kind]map[[2]int64]bool)
	for _, ev := range tr.Events() {
		if spans[ev.Kind] == nil {
			spans[ev.Kind] = make(map[[2]int64]bool)
		}
		spans[ev.Kind][[2]int64{int64(ev.Task), ev.Arg}] = true
	}
	attempts := spans[trace.KindMapTask]
	if len(attempts) == 0 {
		t.Fatal("no map-task spans recorded")
	}
	for a := range attempts {
		if !spans[trace.KindMerge][a] {
			t.Errorf("map task %d attempt %d failed in its merge without a merge span", a[0], a[1])
		}
	}
}
