package kvio

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"mrtext/internal/vdisk"
)

// writeSegTestRun writes a multi-partition run in the requested format and
// returns its index.
func writeSegTestRun(t *testing.T, disk vdisk.Disk, name string, parts int, compressed bool, rng *rand.Rand) RunIndex {
	t.Helper()
	sink, err := NewRunSink(disk, name, parts, compressed)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		if p == 2 {
			continue // leave one partition empty
		}
		n := 1 + rng.Intn(200)
		prev := ""
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key-%s-%04d", prev, i)
			prev = key[:4]
			val := fmt.Sprintf("v%d", rng.Intn(1000))
			if err := sink.Append(p, []byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx, err := sink.Close()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// drain reads a stream to EOF, returning copied records.
func drain(t *testing.T, s Stream) [][2]string {
	t.Helper()
	var out [][2]string
	for {
		k, v, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]string{string(k), string(v)})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadSegmentMatchesOpenRunPart asserts that staging a segment's raw
// bytes and decoding them in memory yields exactly the records of the
// positioned read, for both on-disk formats and every partition including
// an empty one.
func TestReadSegmentMatchesOpenRunPart(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		t.Run(fmt.Sprintf("compressed=%v", compressed), func(t *testing.T) {
			disk := vdisk.NewMem()
			rng := rand.New(rand.NewSource(7))
			idx := writeSegTestRun(t, disk, "run", 5, compressed, rng)
			for p := 0; p < 5; p++ {
				direct, err := OpenRunPart(disk, idx, p)
				if err != nil {
					t.Fatal(err)
				}
				want := drain(t, direct)

				raw, err := ReadSegment(disk, idx, p)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(raw)) != idx.Segments[p].Len {
					t.Fatalf("part %d: raw %d bytes, index says %d", p, len(raw), idx.Segments[p].Len)
				}
				got := drain(t, NewBytesSegmentStream(raw, compressed))
				if len(got) != len(want) {
					t.Fatalf("part %d: %d records staged vs %d direct", p, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("part %d record %d: staged %q direct %q", p, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestReadSegmentBounds asserts out-of-range partitions error.
func TestReadSegmentBounds(t *testing.T) {
	disk := vdisk.NewMem()
	rng := rand.New(rand.NewSource(8))
	idx := writeSegTestRun(t, disk, "run", 3, false, rng)
	if _, err := ReadSegment(disk, idx, -1); err == nil {
		t.Fatal("negative partition did not error")
	}
	if _, err := ReadSegment(disk, idx, 3); err == nil {
		t.Fatal("out-of-range partition did not error")
	}
}
