package mr_test

import (
	"testing"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/mr"
)

// TestIngestSerialVsBatchedIdentity is the reader acceptance gate: a job
// whose map phase reads its splits through the block-batched reader must
// produce byte-identical output to the single-process reference, which
// reads each input serially from start to end — fault-free and under an
// injected-fault cell from the chaos matrix. A reader that drops,
// duplicates or reorders a boundary line fails against ground truth.
// Adversarial arena chunk sizes are covered reader-to-reader against the
// bufio lineScanner oracle in blockread_test.go.
func TestIngestSerialVsBatchedIdentity(t *testing.T) {
	ref := ftReference(t)

	kill := chaos.Config{Seed: 5, FailRate: 0.05, KillNode: 2, KillAfterOps: 40,
		DelayRate: 1, Delay: 2 * time.Millisecond}
	cells := []struct {
		name string
		cfg  *chaos.Config
	}{
		{"batched-default", nil},
		{"batched-chaos-kill", &kill},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			c, corpus := newFTCluster(t, cell.cfg)
			job := ftJob(corpus, "wc-ingest-"+cell.name)
			res, err := mr.Run(c, job)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			assertOutputsMatch(t, c, res, ref)
			assertCounterIdentity(t, res)
		})
	}
}

// TestIngestSerialVsBatchedSynText covers the second corpus shape of the
// chaos matrix: SynText output read through the batched reader must match
// the serially reading reference too.
func TestIngestSerialVsBatchedSynText(t *testing.T) {
	cref, corpus := newFTCluster(t, nil)
	ref, err := mr.RunReference(cref, ftSynJob(corpus, "syn-ingest-ref"))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	t.Run("batched", func(t *testing.T) {
		c, corpus := newFTCluster(t, nil)
		res, err := mr.Run(c, ftSynJob(corpus, "syn-ingest-batched"))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		assertOutputsMatch(t, c, res, ref)
	})
}
