package main

import (
	"fmt"

	"mrtext/internal/trace/critpath"
)

// metricDef describes one reported metric. The registry below is the one
// source for the metric names, units and directions the benchmark prints
// and BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (zero for
	// per-layer metrics, which carry no bound).
	bound float64
	// exact marks a per-layer metric that repeats bit-for-bit across two
	// runs with the same seed; everything else depends on the clock or
	// the schedule. TestExactTagsRepeat settles every tag.
	exact bool
	// clock marks a ratio computed from clock readings, which can never
	// be exact (times and rates are marked by their unit).
	clock bool
}

// fromClock reports whether the metric is computed from clock readings.
func (d metricDef) fromClock() bool {
	return d.clock || d.unit == "s" || d.unit == "MiB/s"
}

// endToEnd are the metrics a user of the runtime sees, measured with
// tracing off. The time metrics carry the widest bound, 0.25: on a shared
// 2-vCPU host, minute-long contention episodes slow CPU-bound jobs by up
// to a quarter, and set-up is mostly simulated disk time.
var endToEnd = []metricDef{
	{name: "job_wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.2},
}

// perLayer are the traced run's metrics, grouped by the module that does
// the work. README.md maps each to the end-to-end metric it should move.
var perLayer = concat(
	// ingest: a standalone pass over the job's splits with the batched
	// block reader.
	[]metricDef{
		{name: "mr.ingest.records", unit: "count", better: "higher", exact: true},
		{name: "mr.ingest.read_s", unit: "s", better: "lower"},
		{name: "mr.ingest.mib_per_s", unit: "MiB/s", better: "higher"},
	},
	// apps: user map/combine/reduce time from Result.Agg.
	[]metricDef{
		{name: "apps.map_user_s", unit: "s", better: "lower"},
		{name: "apps.combine_user_s", unit: "s", better: "lower"},
		{name: "apps.reduce_user_s", unit: "s", better: "lower"},
	},
	// spillbuf: the map-side collector.
	[]metricDef{
		{name: "spillbuf.emit_s", unit: "s", better: "lower"},
		{name: "spillbuf.spills", unit: "count", better: "lower"},
		{name: "spillbuf.map_idle_frac", unit: "ratio", better: "lower", clock: true},
		{name: "spillbuf.support_idle_frac", unit: "ratio", better: "lower", clock: true},
	},
	// kvio: sort, combine, spill runs and the final merge.
	[]metricDef{
		{name: "kvio.sort_s", unit: "s", better: "lower"},
		{name: "kvio.merge_s", unit: "s", better: "lower"},
		{name: "kvio.spill_records", unit: "count", better: "lower"},
		{name: "kvio.spill_mib", unit: "MiB", better: "lower"},
		{name: "kvio.merge_mib", unit: "MiB", better: "lower", exact: true},
		{name: "kvio.combine_out_in", unit: "ratio", better: "lower"},
	},
	// core/freqbuf.
	[]metricDef{
		{name: "freqbuf.profile_s", unit: "s", better: "lower"},
		{name: "freqbuf.hit_ratio", unit: "ratio", better: "higher", exact: true},
		{name: "freqbuf.evictions", unit: "count", better: "lower", exact: true},
		{name: "freqbuf.profiled", unit: "count", better: "lower", exact: true},
	},
	// core/spillmatch: the spill-percentage decisions.
	[]metricDef{
		{name: "spillmatch.mean_spill_pct", unit: "ratio", better: "higher"},
		{name: "spillmatch.decisions", unit: "count", better: "lower"},
	},
	// shuffle: the copier pool, staging and the governor.
	[]metricDef{
		{name: "mr.shuffle.op_s", unit: "s", better: "lower"},
		{name: "mr.shuffle.mib", unit: "MiB", better: "lower", exact: true},
		{name: "mr.shuffle.segments", unit: "count", better: "lower", exact: true},
		{name: "mr.shuffle.early_frac", unit: "ratio", better: "higher"},
		{name: "mr.shuffle.batch_factor", unit: "ratio", better: "higher"},
		{name: "mr.shuffle.staged_spills", unit: "count", better: "lower"},
		{name: "mr.shuffle.staging_peak_mib", unit: "MiB", better: "lower"},
		{name: "mr.shuffle.gov_throttles", unit: "count", better: "lower"},
		{name: "mr.shuffle.wire_saved_mib", unit: "MiB", better: "higher", exact: true},
	},
	// fabric: Stats deltas over the traced job.
	[]metricDef{
		{name: "fabric.mib", unit: "MiB", better: "lower"},
		{name: "fabric.transfers", unit: "count", better: "lower"},
		{name: "fabric.max_in_flight", unit: "count", better: "lower"},
		{name: "fabric.max_node_in_mib", unit: "MiB", better: "lower"},
	},
	// vdisk: Stats deltas, plus time inside disk calls measured by a
	// decorator around every node disk.
	[]metricDef{
		{name: "vdisk.write_mib", unit: "MiB", better: "lower"},
		{name: "vdisk.read_mib", unit: "MiB", better: "lower"},
		{name: "vdisk.ops", unit: "count", better: "lower"},
		{name: "vdisk.call_s", unit: "s", better: "lower"},
		{name: "vdisk.max_node_call_s", unit: "s", better: "lower"},
		{name: "vdisk.decorator_byte_share", unit: "ratio", better: "higher", exact: true},
	},
	// dfs: job output.
	[]metricDef{
		{name: "dfs.output_io_s", unit: "s", better: "lower"},
		{name: "dfs.output_mib", unit: "MiB", better: "lower", exact: true},
	},
	// mr runner: phases, attempts and placement.
	[]metricDef{
		{name: "mr.map_wall_s", unit: "s", better: "lower"},
		{name: "mr.reduce_wall_s", unit: "s", better: "lower"},
		{name: "mr.attempts", unit: "count", better: "lower", exact: true},
		{name: "mr.failed_attempts", unit: "count", better: "lower", exact: true},
		{name: "mr.stolen_map_tasks", unit: "count", better: "lower"},
		{name: "mr.queue_wait_s", unit: "s", better: "lower"},
	},
	blameMetrics(),
	[]metricDef{
		{name: "activity.copier-steal_s", unit: "s", better: "lower"},
		{name: "activity.governor-wait_s", unit: "s", better: "lower"},
	},
	// trace: the tracer itself.
	[]metricDef{
		{name: "trace.overhead_frac", unit: "ratio", better: "lower", clock: true},
		{name: "trace.events", unit: "count", better: "lower"},
		{name: "trace.dropped", unit: "count", better: "lower", exact: true},
	},
)

// blameMetrics names the critical-path blame of both phases by cause.
func blameMetrics() []metricDef {
	var defs []metricDef
	for _, phase := range []string{"map", "reduce"} {
		for c := critpath.Cause(0); c < critpath.NumCauses; c++ {
			defs = append(defs, metricDef{name: blameName(phase, c), unit: "s", better: "lower"})
		}
	}
	return defs
}

func blameName(phase string, c critpath.Cause) string {
	return fmt.Sprintf("blame.%s.%s_s", phase, c)
}

func concat(groups ...[]metricDef) []metricDef {
	var all []metricDef
	for _, g := range groups {
		all = append(all, g...)
	}
	return all
}
