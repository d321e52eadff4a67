package main

import (
	"encoding/json"
	"fmt"
	"os"

	"mrtext"
	"mrtext/internal/trace/critpath"
)

// The shuffle regression harness: the same throttled SynText job under the
// serial shuffle and under copier pools of increasing fan-out. The cluster
// geometry is chosen so the pipeline has something to overlap — two full
// map waves on a throttled fabric — and the report pins both the
// wall-clock effect and the staging activity (early segments, spills,
// peak) for each fan-out. Every run is traced and fed through the
// critical-path analyzer, so each configuration also carries its blame
// attribution, and the fan-out configurations explain where their
// map-wall inflation over the serial baseline went.
//
// The scaling sweep (docs/SHUFFLE_SCALING.md) repeats the serial /
// copiers-1 / copiers-4 comparison at 64–256 simulated nodes under weak
// scaling: the corpus grows with the cluster (nodes/4 MiB) and the block
// size is derived so every cell runs two full map waves, so per-node work
// is constant and the curve isolates how the fetch plane behaves as
// fan-out grows. The assertion mode is the CI gate for the governor: at
// every swept node count, copier-steal coverage per early-staged segment
// at copiers-4 must not exceed the copiers-1 value (small slack for
// timer jitter) — fan-out may no longer buy contention per unit of
// overlap achieved.

// shuffleBenchRun is one configuration's measurement in BENCH_shuffle.json.
type shuffleBenchRun struct {
	Config        string  `json:"config"`
	Copiers       int     `json:"copiers"` // 0 means serial shuffle
	WallMS        float64 `json:"wall_ms"`
	MapWallMS     float64 `json:"map_wall_ms"`
	ReduceWallMS  float64 `json:"reduce_wall_ms"`
	EarlySegments int     `json:"early_segments"`
	StagedSpills  int     `json:"staged_spills"`
	StagingPeakB  int64   `json:"staging_peak_bytes"`
	FetchRetries  int     `json:"fetch_retries"`
	// ReduceSpeedup is serial reduce-wall / this config's reduce-wall;
	// 1.0 for the serial baseline itself.
	ReduceSpeedup float64 `json:"reduce_speedup_vs_serial"`
	// BatchFetches/BatchSegments count copier batch operations and the
	// segments they carried (ratio = batching factor); GovThrottles counts
	// batches the governor parked first.
	BatchFetches  int `json:"batch_fetches,omitempty"`
	BatchSegments int `json:"batch_segments,omitempty"`
	GovThrottles  int `json:"governor_throttles,omitempty"`
	// CopierStealMS and GovWaitMS are aggregate activity (all task spans,
	// not just the critical path): map-task time covered by copier
	// activity against the task's node, and copier time deliberately
	// parked by the governor. Raw steal coverage grows with *successful*
	// overlap (every early-staged segment is copy activity during the map
	// phase), so the scaling assertion gates on StealPerEarlySegMS — the
	// coverage each unit of overlap cost — which fan-out must shrink.
	CopierStealMS    float64 `json:"copier_steal_activity_ms"`
	GovWaitMS        float64 `json:"governor_wait_activity_ms"`
	StealPerEarlySeg float64 `json:"steal_per_early_segment_ms,omitempty"`
	// MapBlameMS and ReduceBlameMS split the phase walls of the reported
	// iteration by cause, from the critical-path analyzer.
	MapBlameMS    map[string]float64 `json:"map_blame_ms,omitempty"`
	ReduceBlameMS map[string]float64 `json:"reduce_blame_ms,omitempty"`
	// MapInflation attributes this configuration's map-wall excess over
	// the serial baseline to fan-out causes; nil for the baseline itself.
	MapInflation *mapInflation `json:"map_inflation_vs_serial,omitempty"`
}

// mapInflation explains a fan-out configuration's map-wall inflation over
// the serial baseline: per-cause blame deltas for the causes the copier
// fan-out can introduce (copier CPU steal, staging backpressure, fabric
// and retry waits, perturbed spill/sort timing, scheduling gaps — map
// compute itself is deliberately excluded), plus whatever the deltas do
// not cover.
type mapInflation struct {
	InflationMS      float64            `json:"inflation_ms"`
	AttributedMS     map[string]float64 `json:"attributed_ms"`
	ResidualMS       float64            `json:"residual_ms"`
	ResidualFraction float64            `json:"residual_fraction"`
}

// shuffleScalingCell is one node count of the 64–256 node scaling sweep:
// the serial baseline and two fan-outs at that cluster size, corpus sized
// for weak scaling (constant per-node work).
type shuffleScalingCell struct {
	Nodes    int               `json:"nodes"`
	CorpusMB int64             `json:"corpus_mb"`
	BlockKB  int64             `json:"block_kb"`
	Runs     []shuffleBenchRun `json:"runs"`
}

// shuffleBenchReport is the BENCH_shuffle.json schema.
type shuffleBenchReport struct {
	App      string            `json:"app"`
	CorpusMB int64             `json:"corpus_mb"`
	Nodes    int               `json:"nodes"`
	Iters    int               `json:"iters"`
	Runs     []shuffleBenchRun `json:"runs,omitempty"`
	// Scaling is the weak-scaling sweep over simulated node counts.
	Scaling []shuffleScalingCell `json:"scaling,omitempty"`
}

// fanOutCauses are the blame causes a copier fan-out can add to the map
// phase. Map compute is excluded on purpose: attributing inflation to
// "the maps got slower" would be restating the symptom.
var fanOutCauses = []critpath.Cause{
	critpath.CauseCopierSteal,
	critpath.CauseStagingBackpressure,
	critpath.CauseFabricWait,
	critpath.CauseFetchRetry,
	critpath.CauseSpillSort,
	critpath.CauseScheduler,
}

// blameMS renders one phase's non-zero causes as a name→milliseconds map.
func blameMS(p critpath.PhaseBlame) map[string]float64 {
	m := make(map[string]float64)
	for c := critpath.Cause(0); c < critpath.NumCauses; c++ {
		if p.Causes[c] > 0 {
			m[c.String()] = float64(p.Causes[c].Microseconds()) / 1e3
		}
	}
	return m
}

// attributeInflation explains cfg's map-wall inflation over the serial
// baseline as per-cause blame deltas. Deltas are clamped at zero (a cause
// that shrank does not offset one that grew) and the attributed total is
// capped at the inflation itself, so the residual fraction stays in [0,1].
func attributeInflation(serial, cfg shuffleBenchRun) *mapInflation {
	inf := &mapInflation{
		InflationMS:  cfg.MapWallMS - serial.MapWallMS,
		AttributedMS: make(map[string]float64),
	}
	var attributed float64
	for _, c := range fanOutCauses {
		d := cfg.MapBlameMS[c.String()] - serial.MapBlameMS[c.String()]
		if d > 0 {
			inf.AttributedMS[c.String()] = d
			attributed += d
		}
	}
	if inf.InflationMS > 0 {
		covered := attributed
		if covered > inf.InflationMS {
			covered = inf.InflationMS
		}
		inf.ResidualMS = inf.InflationMS - covered
		inf.ResidualFraction = inf.ResidualMS / inf.InflationMS
	}
	return inf
}

// shuffleBenchCfg names one fan-out configuration.
type shuffleBenchCfg struct {
	name    string
	copiers int
}

// stealSlackMS absorbs scheduler jitter in the scaling assertion: a
// fraction of a millisecond of steal coverage per early-staged segment
// is noise, not contention. (Measured margins are 3–4×, ~20–35 ms/seg.)
const stealSlackMS = 1.0

// runShuffleBench measures the serial shuffle against copier fan-outs on
// the classic 4-node cell (when base is true) and across the scaleNodes
// weak-scaling sweep, writing the combined report to out. Base
// configurations run iters times on a fresh cluster with the lowest-wall
// iteration reported; scaling cells run once each (nine throttled jobs at
// up to 256 nodes are already minutes of simulated I/O). With assert set,
// the sweep fails unless copier-steal per early-staged segment at
// copiers-4 stays at or below the copiers-1 value in every cell.
func runShuffleBench(out string, iters int, megabytes int64, scaleNodes []int, base, assert bool) error {
	if iters < 1 {
		iters = 1
	}
	rep := shuffleBenchReport{App: "syntext", CorpusMB: megabytes, Nodes: 4, Iters: iters}

	if base {
		cfgs := []shuffleBenchCfg{
			{"serial", 0},
			{"copiers-1", 1},
			{"copiers-2", 2},
			{"copiers-4", 4},
		}
		for _, bc := range cfgs {
			var best *mrtext.Result
			var bestReport *mrtext.TraceReport
			for it := 0; it < iters; it++ {
				res, tr, err := runShuffleConfig(4, megabytes<<20, 1<<20, bc.copiers)
				if err != nil {
					return fmt.Errorf("%s iter %d: %w", bc.name, it, err)
				}
				if best == nil || res.Wall < best.Wall {
					report, err := mrtext.AnalyzeTrace(tr)
					if err != nil {
						return fmt.Errorf("%s iter %d: analyzing trace: %w", bc.name, it, err)
					}
					best, bestReport = res, report
				}
			}
			rep.Runs = append(rep.Runs, benchRun(bc, best, bestReport))
		}
		finishRuns(rep.Runs)
		printRuns("base 4 nodes", rep.Runs)
	}

	for _, n := range scaleNodes {
		cell, err := runScalingCell(n)
		if err != nil {
			return fmt.Errorf("scaling %d nodes: %w", n, err)
		}
		rep.Scaling = append(rep.Scaling, cell)
		printRuns(fmt.Sprintf("scaling %d nodes (%d MiB)", cell.Nodes, cell.CorpusMB), cell.Runs)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)

	if assert {
		if err := assertStealShrinks(rep); err != nil {
			return err
		}
		fmt.Println("ASSERT OK: copier-steal per early-staged segment at copiers-4 within the copiers-1 bound in every cell")
	}
	return nil
}

// runScalingCell measures one node count of the weak-scaling sweep:
// corpus nodes/4 MiB, block size derived for two full map waves, one run
// each of serial, copiers-1 and copiers-4.
func runScalingCell(nodes int) (shuffleScalingCell, error) {
	corpusMB := int64(nodes) / 4
	if corpusMB < 4 {
		corpusMB = 4
	}
	target := corpusMB << 20
	// Two waves: splits = 2 × (nodes × 2 map slots), so block = target /
	// (4 × nodes), floored at 64 KiB so tiny sweeps stay realistic.
	block := target / int64(4*nodes)
	if block < 64<<10 {
		block = 64 << 10
	}
	cell := shuffleScalingCell{Nodes: nodes, CorpusMB: corpusMB, BlockKB: block >> 10}
	cfgs := []shuffleBenchCfg{
		{"serial", 0},
		{"copiers-1", 1},
		{"copiers-4", 4},
	}
	for _, bc := range cfgs {
		res, tr, err := runShuffleConfig(nodes, target, block, bc.copiers)
		if err != nil {
			return cell, fmt.Errorf("%s: %w", bc.name, err)
		}
		report, err := mrtext.AnalyzeTrace(tr)
		if err != nil {
			return cell, fmt.Errorf("%s: analyzing trace: %w", bc.name, err)
		}
		cell.Runs = append(cell.Runs, benchRun(bc, res, report))
	}
	finishRuns(cell.Runs)
	return cell, nil
}

// benchRun builds one configuration's record from its result and report.
func benchRun(bc shuffleBenchCfg, res *mrtext.Result, report *mrtext.TraceReport) shuffleBenchRun {
	return shuffleBenchRun{
		Config:        bc.name,
		Copiers:       bc.copiers,
		WallMS:        float64(res.Wall.Microseconds()) / 1e3,
		MapWallMS:     float64(res.MapWall.Microseconds()) / 1e3,
		ReduceWallMS:  float64(res.ReduceWall.Microseconds()) / 1e3,
		EarlySegments: res.ShuffleEarlySegments,
		StagedSpills:  res.ShuffleStagedSpills,
		StagingPeakB:  res.ShuffleStagingPeak,
		FetchRetries:  res.ShuffleFetchRetries,
		BatchFetches:  res.ShuffleBatchFetches,
		BatchSegments: res.ShuffleBatchSegments,
		GovThrottles:  res.ShuffleGovThrottles,
		CopierStealMS: float64(report.Activity[critpath.CauseCopierSteal].Microseconds()) / 1e3,
		GovWaitMS:     float64(report.Activity[critpath.CauseGovernorWait].Microseconds()) / 1e3,
		MapBlameMS:    blameMS(report.Map),
		ReduceBlameMS: blameMS(report.Reduce),
	}
}

// finishRuns derives the cross-run fields — reduce speedup against the
// serial baseline (runs[0]) and the map-inflation attribution — in place.
func finishRuns(runs []shuffleBenchRun) {
	if len(runs) == 0 {
		return
	}
	serial := runs[0]
	for i := range runs {
		if runs[i].ReduceWallMS > 0 {
			runs[i].ReduceSpeedup = serial.ReduceWallMS / runs[i].ReduceWallMS
		}
		if runs[i].Copiers > 0 {
			runs[i].MapInflation = attributeInflation(serial, runs[i])
			if runs[i].EarlySegments > 0 {
				runs[i].StealPerEarlySeg = runs[i].CopierStealMS / float64(runs[i].EarlySegments)
			}
		}
	}
}

// printRuns renders one cell's runs for the console.
func printRuns(label string, runs []shuffleBenchRun) {
	fmt.Printf("-- %s --\n", label)
	for _, r := range runs {
		fmt.Printf("%-10s wall %8.1f ms (map %8.1f, shuffle+reduce %8.1f, %.2fx) early %3d spills %3d peak %8d B steal %6.1f ms (%.1f ms/seg)\n",
			r.Config, r.WallMS, r.MapWallMS, r.ReduceWallMS, r.ReduceSpeedup,
			r.EarlySegments, r.StagedSpills, r.StagingPeakB, r.CopierStealMS, r.StealPerEarlySeg)
		if r.Copiers > 0 {
			fmt.Printf("           %d segments in %d batches, %d governor throttles (%.1f ms parked)\n",
				r.BatchSegments, r.BatchFetches, r.GovThrottles, r.GovWaitMS)
		}
		if r.MapInflation != nil {
			fmt.Printf("           map inflation %+.1f ms, residual %.1f ms (%.0f%% unattributed)\n",
				r.MapInflation.InflationMS, r.MapInflation.ResidualMS, 100*r.MapInflation.ResidualFraction)
		}
	}
}

// assertStealShrinks is the CI gate over the governed fetch plane: in
// every cell that carries both fan-outs, the copier-steal coverage per
// early-staged segment at copiers-4 must not exceed the copiers-1 value
// beyond the jitter slack. Raw coverage is the wrong gate — it grows
// with the overlap the pipeline successfully achieves — but coverage per
// unit of overlap is exactly the contention cost fan-out must cut. A
// fan-out with zero early segments is compared on raw steal (both are
// ~0: no overlap means no copy activity inside map windows).
func assertStealShrinks(rep shuffleBenchReport) error {
	perSeg := func(r *shuffleBenchRun) float64 {
		if r.EarlySegments > 0 {
			return r.CopierStealMS / float64(r.EarlySegments)
		}
		return r.CopierStealMS
	}
	check := func(label string, runs []shuffleBenchRun) error {
		var c1, c4 *shuffleBenchRun
		for i := range runs {
			switch runs[i].Copiers {
			case 1:
				c1 = &runs[i]
			case 4:
				c4 = &runs[i]
			}
		}
		if c1 == nil || c4 == nil {
			return nil
		}
		if perSeg(c4) > perSeg(c1)+stealSlackMS {
			return fmt.Errorf("shufflebench: %s: copier-steal per early-staged segment grew with fan-out: copiers-4 %.2f ms/seg > copiers-1 %.2f ms/seg (+%.1f slack)",
				label, perSeg(c4), perSeg(c1), stealSlackMS)
		}
		return nil
	}
	if err := check("base", rep.Runs); err != nil {
		return err
	}
	for _, cell := range rep.Scaling {
		if err := check(fmt.Sprintf("%d nodes", cell.Nodes), cell.Runs); err != nil {
			return err
		}
	}
	return nil
}

// runShuffleConfig executes one traced, throttled SynText job with the
// given copier fan-out (0 = serial shuffle) on a fresh cluster of the
// given geometry.
func runShuffleConfig(nodes int, target, blockSize int64, copiers int) (*mrtext.Result, *mrtext.Tracer, error) {
	cfg := mrtext.LocalSmallCluster()
	cfg.Nodes = nodes
	cfg.BlockSize = blockSize
	c, err := mrtext.NewCluster(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := mrtext.GenerateCorpus(c, "corpus.txt", mrtext.DefaultCorpus(), target); err != nil {
		return nil, nil, err
	}
	job := mrtext.SynText(mrtext.SynTextConfig{CPUFactor: 4, Storage: 0.8}, "corpus.txt")
	if copiers <= 0 {
		job.SerialShuffle = true
	} else {
		job.ShuffleCopiers = copiers
	}
	tr := mrtext.NewTracer(traceCapacity(nodes, target, blockSize))
	job.Trace = tr
	res, err := mrtext.Run(c, job)
	if err != nil {
		return nil, nil, err
	}
	if d := tr.Dropped(); d > 0 {
		return nil, nil, fmt.Errorf("tracer ring dropped %d events at %d nodes; activity attribution would be incomplete — raise traceCapacity", d, nodes)
	}
	return res, tr, nil
}

// traceCapacity sizes a cell's tracer so the ring never wraps: a wrapped
// ring evicts the earliest events — the map-task spans — and the activity
// view then attributes zero copier-steal, silently passing the assert
// gate. Segments dominate the event volume (splits × partitions, each
// with a copy span plus a handful of wait/spill/fetch spans), so budget
// generously per segment and keep the default as the floor.
func traceCapacity(nodes int, target, blockSize int64) int {
	splits := (target + blockSize - 1) / blockSize
	partitions := int64(2 * nodes) // LocalSmall: one reducer per reduce slot
	events := 12*splits*partitions + 64*splits + 1<<18
	return int(events)
}
