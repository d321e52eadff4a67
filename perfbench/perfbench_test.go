package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/cluster"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json in step with the
// workload table and metric registry it is generated from.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := spec(); !reflect.DeepEqual(got, want) {
		var buf bytes.Buffer
		if err := writeSpec(&buf); err != nil {
			t.Fatal(err)
		}
		t.Errorf("BENCHMARK.json is stale; regenerate it with --spec:\n%s", buf.String())
	}
	names := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		names[d.name] = true
		if d.bound > 0.25 {
			t.Errorf("%s bound %v exceeds 0.25", d.name, d.bound)
		}
	}
}

// tinyWorkload is a WordCount small enough for a unit test.
func tinyWorkload() workload {
	in := dataset{name: "tiny.txt", gen: func(w io.Writer, seed int64) error {
		cfg := textgen.DefaultCorpus()
		cfg.Seed = seed
		_, err := textgen.Corpus(w, cfg, 256<<10)
		return err
	}}
	return workload{
		name: "tiny",
		cluster: func() cluster.Config {
			cfg := cluster.Fast(3)
			cfg.BlockSize = 64 << 10
			return cfg
		},
		inputs:  []dataset{in},
		minJobs: 2,
		job: func() *mr.Job {
			j := apps.WordCount(in.name)
			j.FreqBuf = mr.DefaultFreqBufText()
			j.SpillMatcher = true
			return j
		},
	}
}

// TestPerturbedReferenceCountsAsFailure checks the output check itself: a
// job matches an untouched reference, and one flipped reference byte makes
// every job count as failed.
func TestPerturbedReferenceCountsAsFailure(t *testing.T) {
	w := tinyWorkload()
	run, err := runTimed(w, 7, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if run.failed != 0 {
		t.Fatalf("%d of %d jobs failed against the true reference", run.failed, len(run.samples))
	}
	c, _, err := w.setup(7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mr.RunReference(c, w.job())
	if err != nil {
		t.Fatal(err)
	}
	if got := countFailures(run.samples, referenceDigests(ref)); got != 0 {
		t.Fatalf("%d failures against a fresh reference, want 0", got)
	}
	ref[0] = append([]byte(nil), ref[0]...)
	ref[0][len(ref[0])/2] ^= 1
	if got := countFailures(run.samples, referenceDigests(ref)); got != len(run.samples) {
		t.Errorf("perturbed reference: %d failures, want %d", got, len(run.samples))
	}
	errored := append([]jobSample{{err: io.ErrUnexpectedEOF}}, run.samples...)
	if got := countFailures(errored, referenceDigests(ref)); got != len(errored) {
		t.Errorf("a job error was not counted: %d failures, want %d", got, len(errored))
	}
}

// TestTracedRunReportsEveryLayer runs the traced path on a small job: it
// must produce every per-layer metric, check outputs, and see all disk
// bytes through the decorator.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	run, err := runTraced(tinyWorkload(), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.failed != 0 || run.attempted < 3 {
		t.Errorf("%d of %d jobs failed, want 0 of at least 3", run.failed, run.attempted)
	}
	for _, d := range perLayer {
		if _, ok := run.layers[d.name]; !ok {
			t.Errorf("no %s", d.name)
		}
	}
	if got := run.layers["vdisk.decorator_byte_share"]; got != 1 {
		t.Errorf("decorator saw %v of the vdisk.Stats bytes, want 1", got)
	}
}

// TestExactTagsRepeat settles the exact/timed tags: it measures every
// workload's layers twice with the same seed. A metric tagged exact must
// repeat bit-for-bit on every workload; a count tagged timed must differ
// on at least one, or it should be tagged exact.
func TestExactTagsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	repeatsEverywhere := make(map[string]bool)
	for _, d := range perLayer {
		repeatsEverywhere[d.name] = true
	}
	for _, w := range workloads {
		var runs [2]map[string]float64
		for i := range runs {
			lr, err := measureLayers(w, 42)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			runs[i] = lr.layers
		}
		var differ []string
		for _, d := range perLayer {
			a, aok := runs[0][d.name]
			b, bok := runs[1][d.name]
			if !aok || !bok {
				continue // trace.overhead_frac needs the full traced run
			}
			if a == b {
				continue
			}
			repeatsEverywhere[d.name] = false
			if !d.fromClock() {
				differ = append(differ, d.name)
			}
			if d.exact {
				t.Errorf("%s: %s is tagged exact but read %v then %v", w.name, d.name, a, b)
			}
		}
		t.Logf("%s: counts that differ between same-seed runs: %s", w.name, strings.Join(differ, " "))
	}
	var untagged []string
	for _, d := range perLayer {
		if !d.exact && !d.fromClock() && repeatsEverywhere[d.name] {
			untagged = append(untagged, d.name)
		}
	}
	sort.Strings(untagged)
	if len(untagged) > 0 {
		t.Errorf("tagged timed but repeated on every workload; tag them exact: %s", strings.Join(untagged, " "))
	}
}
