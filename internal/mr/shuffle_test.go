package mr_test

import (
	"testing"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/metrics"
	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// Pipelined-shuffle integration suite: the serial and pipelined shuffle
// paths must be byte-identical — with staging in memory, overflowed to
// disk, and under injected faults — and the pipeline must demonstrably
// overlap the map phase (that overlap is its whole reason to exist).

// TestPipelinedShuffleMatchesSerial runs the same job three ways — serial
// shuffle, pipelined with the default staging budget, and pipelined with
// a 1-byte budget that forces every staged segment to disk — and requires
// byte-identical outputs.
func TestPipelinedShuffleMatchesSerial(t *testing.T) {
	serialC, corpus := newFTCluster(t, nil)
	serialJob := ftJob(corpus, "wc-shuffle-serial")
	serialJob.SerialShuffle = true
	serialRes, err := mr.Run(serialC, serialJob)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	ref := readOutputs(t, serialC, serialRes)
	if serialRes.ShuffleEarlySegments != 0 || serialRes.ShuffleStagingPeak != 0 {
		t.Errorf("serial shuffle reported staging activity: early %d, peak %d",
			serialRes.ShuffleEarlySegments, serialRes.ShuffleStagingPeak)
	}

	cases := []struct {
		name       string
		buffer     int64
		wantSpills bool
	}{
		{"default-buffer", 0, false},
		{"one-byte-buffer", 1, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, corpus := newFTCluster(t, nil)
			job := ftJob(corpus, "wc-shuffle-"+tc.name)
			job.ShuffleBufferBytes = tc.buffer
			res, err := mr.Run(c, job)
			if err != nil {
				t.Fatalf("pipelined run: %v", err)
			}
			assertOutputsMatch(t, c, res, ref)
			if tc.wantSpills && res.ShuffleStagedSpills == 0 {
				t.Error("1-byte staging budget produced no staged spills")
			}
			if !tc.wantSpills && res.ShuffleStagedSpills != 0 {
				t.Errorf("default staging budget overflowed %d segments", res.ShuffleStagedSpills)
			}
		})
	}
}

// TestShuffleFetchPlaneVariantsMatchSerial covers the staged path of
// compressed segments: under CompressRuns a 1-byte staging budget makes
// copiers stage prefix-compressed segments on the staging disk, reduce
// attempts read them back in that format, and the output must be
// byte-identical to a serial-shuffle reference. (The plain-format 1-byte
// cell is in TestPipelinedShuffleMatchesSerial.)
func TestShuffleFetchPlaneVariantsMatchSerial(t *testing.T) {
	serialC, corpus := newFTCluster(t, nil)
	serialJob := ftJob(corpus, "wc-variant-serial")
	serialJob.SerialShuffle = true
	serialRes, err := mr.Run(serialC, serialJob)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	ref := readOutputs(t, serialC, serialRes)

	t.Run("compressed-one-byte-buffer", func(t *testing.T) {
		c, corpus := newFTCluster(t, nil)
		job := ftJob(corpus, "wc-variant-compressed")
		job.CompressRuns = true
		job.ShuffleBufferBytes = 1
		res, err := mr.Run(c, job)
		if err != nil {
			t.Fatalf("pipelined run: %v", err)
		}
		assertOutputsMatch(t, c, res, ref)
		if hits := res.Agg.Counters[metrics.CtrShuffleStagedHits]; res.ShuffleStagedSpills == 0 || hits == 0 {
			t.Fatalf("%d staged spills, %d staged hits: the 1-byte budget must stage segments on disk for reducers to read back",
				res.ShuffleStagedSpills, hits)
		}
	})
}

// TestEarlyFetchOverlapsMapPhase gives the job two full waves of map
// tasks (16 splits over 8 map slots), so first-wave outputs commit while
// second-wave tasks are still computing and the copier pools must stage
// segments before the map phase ends.
func TestEarlyFetchOverlapsMapPhase(t *testing.T) {
	cfg := cluster.Fast(ftNodes)
	cfg.BlockSize = 64 << 10 // 16 splits of the 1 MiB corpus
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	w, err := c.FS.Create("corpus.txt", 0)
	if err != nil {
		t.Fatalf("create corpus: %v", err)
	}
	gen := textgen.CorpusConfig{Vocabulary: 5000, Alpha: 1.0, WordsPerLine: 8, Seed: 42}
	if _, err := textgen.Corpus(w, gen, ftCorpus); err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close corpus: %v", err)
	}

	res, err := mr.Run(c, ftJob("corpus.txt", "wc-overlap"))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ShuffleEarlySegments == 0 {
		t.Error("two map waves ran but no segment was staged before the map phase finished")
	}
	if res.ShuffleStagingPeak == 0 {
		t.Error("staging buffer high-water mark is zero despite staged segments")
	}
}

// TestPipelinedShuffleUnderChaosMatchesSerial reruns a slice of the
// determinism matrix against a serial-shuffle reference, pinning that the
// staged path keeps byte identity when attempts fail, retry and recover.
func TestPipelinedShuffleUnderChaosMatchesSerial(t *testing.T) {
	serialC, corpus := newFTCluster(t, nil)
	serialJob := ftJob(corpus, "wc-chaos-serial")
	serialJob.SerialShuffle = true
	serialRes, err := mr.Run(serialC, serialJob)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	ref := readOutputs(t, serialC, serialRes)

	cfg := chaos.Config{Seed: 17, FailRate: 0.20, KillNode: -1}
	c, corpus := newFTCluster(t, &cfg)
	res, err := mr.Run(c, ftJob(corpus, "wc-chaos-pipelined"))
	if err != nil {
		t.Fatalf("pipelined run under chaos: %v\nchaos log: %v", err, c.Chaos.Log())
	}
	assertOutputsMatch(t, c, res, ref)
	assertCounterIdentity(t, res)
}
