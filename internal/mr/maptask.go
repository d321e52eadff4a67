package mr

import (
	"errors"
	"fmt"
	"time"

	"mrtext/internal/chaos"
	"mrtext/internal/cluster"
	"mrtext/internal/core/freqbuf"
	"mrtext/internal/kvio"
	"mrtext/internal/metrics"
	"mrtext/internal/spillbuf"
	"mrtext/internal/trace"
	"mrtext/internal/vdisk"
)

// spanner locates one task's spans in the trace: the tracer (nil when
// tracing is off) plus the task attempt's fixed (node, task, slot,
// attempt) coordinates.
type spanner struct {
	tr      *trace.Tracer
	node    int
	task    int
	slot    int
	attempt int
}

// start opens a span for this task attempt on the given lane.
func (sc spanner) start(kind trace.Kind, lane trace.Lane) trace.Span {
	return sc.tr.StartAttempt(kind, lane, sc.node, sc.task, sc.slot, sc.attempt)
}

// mapOutput locates one finished map task's partitioned output run.
type mapOutput struct {
	node  int
	index kvio.RunIndex
}

// mapCollector is the Collector handed to user map() code. It implements
// the full map-side emit path: partitioning, the frequency-buffering
// intercept, and the spill-buffer append, with the paper's operation
// accounting (user map time vs. emit overhead vs. profiling overhead).
// The user/emit split is attributed by the sampled EmitTimer rather than
// a clock stamp per record, so the profiling itself stays off the per-
// record hot path.
type mapCollector struct {
	job   *Job
	tm    *metrics.TaskMetrics
	et    *metrics.EmitTimer
	buf   *spillbuf.Buffer
	freq  *freqbuf.Buffer
	cache *freqbuf.Cache // node cache for top-k sharing (nil if disabled)

	scanner    lineSource // the task's input scanner (for record-count extrapolation)
	emitted    int64
	combineAcc time.Duration // combine time spent inside freqbuf (via the timed combiner)
	published  bool
	sp         spanner     // freq-buffer eviction instants
	plan       *chaos.Plan // nil when chaos is off: the guard below is the whole cost
}

// Collect implements Collector.
func (mc *mapCollector) Collect(key, value []byte) error {
	mc.et.BeforeEmit()
	err := mc.emit(key, value)
	mc.et.AfterEmit()
	return err
}

func (mc *mapCollector) emit(key, value []byte) error {
	if mc.plan != nil {
		if err := mc.plan.Check(chaos.SiteEmit); err != nil {
			return err
		}
	}
	part := mc.job.Partition(key, mc.job.NumReducers)
	mc.emitted++
	mc.tm.Inc(metrics.CtrMapOutputRecords, 1)
	mc.tm.Inc(metrics.CtrMapOutputBytes, spillbuf.RecordBytes(key, value))

	if mc.freq != nil {
		t0 := time.Now()
		combineBefore := mc.combineAcc
		absorbed, overflow, err := mc.freq.Offer(part, key, value)
		combineDelta := mc.combineAcc - combineBefore
		span := time.Since(t0)
		mc.tm.Add(metrics.OpProfile, span-combineDelta)
		// The whole frequency-buffer span is attributed to OpProfile and
		// OpCombineUser above; keep it out of the emit measurement.
		mc.et.Exclude(span)
		if err != nil {
			return err
		}
		if absorbed {
			mc.tm.Inc(metrics.CtrFreqHits, 1)
		}
		if !mc.published && mc.cache != nil && mc.freq.Stage() == freqbuf.StageOptimize {
			// Keyed by the run-unique file prefix, not the job name: top-k
			// sharing is a within-run optimization, and a name-keyed entry
			// would leak one run's key profile into the next run (or into a
			// concurrent same-named job) on a long-lived cluster.
			mc.cache.Put(mc.job.filePrefix, mc.freq.TopK())
			mc.published = true
		}
		if len(overflow) > 0 {
			mc.sp.tr.Instant(trace.KindFreqEviction, trace.LaneMap, mc.sp.node, mc.sp.task, int64(len(overflow)))
		}
		for _, r := range overflow {
			mc.tm.Inc(metrics.CtrFreqEvictions, 1)
			if err := mc.append(r.Part, r.Key, r.Value); err != nil {
				return err
			}
		}
		if absorbed {
			return nil
		}
	}
	return mc.append(part, key, value)
}

// append sends one record down the standard spill path, excluding any
// buffer-full block time from the emit accounting (it is already counted
// as map-thread idle time).
func (mc *mapCollector) append(part int, key, value []byte) error {
	waited, err := mc.buf.Append(part, key, value)
	mc.et.Exclude(waited)
	return err
}

// finish attributes trailing user time (input lines that emitted nothing).
func (mc *mapCollector) finish() {
	mc.et.Finish()
}

// writeSpillRun turns one spill into a sorted, partitioned run on the node
// disk and returns the run index. The support goroutine calls it once per
// spill. The grouping strategy is either the standard sort-based GROUP BY
// or, under the HashGroupSpills extension, a hash-based one: raw records
// are grouped and combined in a hash table and only the (far fewer)
// aggregates are sorted.
func writeSpillRun(disk vdisk.Disk, name string, parts int, recs kvio.PackedRecords, job *Job, combine CombineFunc, tm *metrics.TaskMetrics, sp spanner) (kvio.RunIndex, error) {
	if job.HashGroupSpills && combine != nil {
		return writeSpillRunHashed(disk, name, parts, recs, job, combine, tm, sp)
	}
	t0 := time.Now()
	sortSpan := sp.start(trace.KindSort, trace.LaneSupport)
	kvio.SortPacked(recs)
	sortSpan.EndCounts(int64(recs.Len()), recs.ArenaBytes())
	tm.Add(metrics.OpSort, time.Since(t0))
	debugAssertSortedPacked(recs, name)

	t1 := time.Now()
	var combineDur time.Duration
	rw, err := kvio.NewRunSink(disk, name, parts, job.CompressRuns)
	if err != nil {
		return kvio.RunIndex{}, err
	}
	var vals [][]byte
	i := 0
	n := recs.Len()
	var combineIn, combineOut int64
	for i < n {
		j := i + 1
		for j < n && recs.Meta[j].Part == recs.Meta[i].Part && recs.KeyEqual(i, j) {
			j++
		}
		if combine == nil || j-i == 1 {
			for k := i; k < j; k++ {
				if err := rw.Append(recs.Part(k), recs.Key(k), recs.Value(k)); err != nil {
					return kvio.RunIndex{}, err
				}
			}
		} else {
			vals = vals[:0]
			for k := i; k < j; k++ {
				vals = append(vals, recs.Value(k))
			}
			combineIn += int64(j - i)
			c0 := time.Now()
			err := combine(recs.Key(i), vals, func(k, v []byte) error {
				combineOut++
				return rw.Append(recs.Part(i), k, v)
			})
			combineDur += time.Since(c0)
			if err != nil {
				return kvio.RunIndex{}, fmt.Errorf("mr: combine during spill: %w", err)
			}
		}
		i = j
	}
	idx, err := rw.Close()
	if err != nil {
		return kvio.RunIndex{}, err
	}
	// Combine runs interleaved with the spill write; its span is the
	// accumulated user-combine duration anchored at the write start.
	sp.tr.Complete(trace.KindCombine, trace.LaneSupport, sp.node, sp.task, sp.slot, t1, combineDur)
	tm.Add(metrics.OpCombineUser, combineDur)
	tm.Add(metrics.OpSpillIO, time.Since(t1)-combineDur)
	tm.Inc(metrics.CtrSpillRecords, idx.TotalRecords())
	tm.Inc(metrics.CtrSpillBytes, idx.TotalBytes())
	tm.Inc(metrics.CtrSpillCount, 1)
	tm.Inc(metrics.CtrCombineInRecords, combineIn)
	tm.Inc(metrics.CtrCombineOutRecords, combineOut)
	return idx, nil
}

// writeSpillRunHashed is the hash-based GROUP BY spill path (§VII future
// work, after Lin et al.): group raw records by (partition, key) in a hash
// table, combine each group once, sort only the combined aggregates, and
// write them out. For skewed text keys the aggregates are a small fraction
// of the raw records, so the sort shrinks dramatically. Hash grouping
// replaces the sort-based grouping, so its time is attributed to OpSort.
func writeSpillRunHashed(disk vdisk.Disk, name string, parts int, recs kvio.PackedRecords, job *Job, combine CombineFunc, tm *metrics.TaskMetrics, sp spanner) (kvio.RunIndex, error) {
	type group struct {
		part int
		key  []byte
		vals [][]byte
	}
	groupSpan := sp.start(trace.KindSort, trace.LaneSupport)
	t0 := time.Now()
	n := recs.Len()
	groups := make(map[string]*group, n/4+16)
	for i := 0; i < n; i++ {
		key := recs.Key(i) // aliases the arena, stable for this call
		g, ok := groups[string(key)]
		if !ok {
			g = &group{part: recs.Part(i), key: key}
			groups[string(key)] = g
		}
		g.vals = append(g.vals, recs.Value(i))
	}
	tm.Add(metrics.OpSort, time.Since(t0))

	var combineDur time.Duration
	var combined []kvio.Record
	var combineIn, combineOut int64
	t1 := time.Now()
	for _, g := range groups {
		if len(g.vals) == 1 {
			combined = append(combined, kvio.Record{Part: g.part, Key: g.key, Value: g.vals[0]})
			continue
		}
		combineIn += int64(len(g.vals))
		c0 := time.Now()
		err := combine(g.key, g.vals, func(k, v []byte) error {
			combineOut++
			combined = append(combined, kvio.Record{Part: g.part, Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
			return nil
		})
		combineDur += time.Since(c0)
		if err != nil {
			return kvio.RunIndex{}, fmt.Errorf("mr: combine during hashed spill: %w", err)
		}
	}
	kvio.SortRecords(combined) // only the aggregates: the whole point
	groupSpan.EndCounts(int64(len(combined)), 0)
	tm.Add(metrics.OpSort, time.Since(t1)-combineDur)
	debugAssertSorted(combined, name)
	sp.tr.Complete(trace.KindCombine, trace.LaneSupport, sp.node, sp.task, sp.slot, t1, combineDur)
	tm.Add(metrics.OpCombineUser, combineDur)

	w0 := time.Now()
	rw, err := kvio.NewRunSink(disk, name, parts, job.CompressRuns)
	if err != nil {
		return kvio.RunIndex{}, err
	}
	for _, r := range combined {
		if err := rw.Append(r.Part, r.Key, r.Value); err != nil {
			return kvio.RunIndex{}, err
		}
	}
	idx, err := rw.Close()
	if err != nil {
		return kvio.RunIndex{}, err
	}
	tm.Add(metrics.OpSpillIO, time.Since(w0))
	tm.Inc(metrics.CtrSpillRecords, idx.TotalRecords())
	tm.Inc(metrics.CtrSpillBytes, idx.TotalBytes())
	tm.Inc(metrics.CtrSpillCount, 1)
	tm.Inc(metrics.CtrCombineInRecords, combineIn)
	tm.Inc(metrics.CtrCombineOutRecords, combineOut)
	return idx, nil
}

// runMapTask executes one attempt of a map task on the given node: the
// map goroutine reads the split and applies map(); the support goroutine
// sorts, combines and spills; the attempt ends with the merge of all spill
// runs (plus the drained frequency-buffer aggregates) into one partitioned
// output run, written under the attempt's temp namespace. The returned
// created list names the attempt's surviving files (on success, just the
// uncommitted output run) so the runner can commit-by-rename or sweep.
func runMapTask(c *cluster.Cluster, job *Job, taskIdx int, split Split, node, slot, attempt int, plan *chaos.Plan) (mapOutput, TaskReport, []string, error) {
	if plan != nil {
		if d := plan.Delay(); d > 0 {
			time.Sleep(d) // manufactured straggler
		}
	}
	start := time.Now()
	tm := metrics.NewTaskMetrics()
	disk := c.Disks[node]
	dir := attemptDir(job.filePrefix, taskIdx, attempt)
	var created []string
	report := TaskReport{Kind: "map", Index: taskIdx, Node: node}
	sp := spanner{tr: job.Trace, node: node, task: taskIdx, slot: slot, attempt: attempt}
	taskSpan := sp.start(trace.KindMapTask, trace.LaneMap)
	endTaskSpan := func() {
		taskSpan.EndCounts(tm.Counter(metrics.CtrMapOutputRecords), tm.Counter(metrics.CtrMapOutputBytes))
	}
	fail := func(err error) (mapOutput, TaskReport, []string, error) {
		report.Wall = time.Since(start)
		report.Metrics = tm.Snapshot()
		endTaskSpan()
		return mapOutput{}, report, created, fmt.Errorf("mr: map task %d attempt %d (node %d): %w", taskIdx, attempt, node, err)
	}

	// Memory budget: frequency-buffering carves its table out of the spill
	// buffer so total memory stays constant (§V-B2).
	bufBytes := job.SpillBufferBytes
	var freq *freqbuf.Buffer
	var cache *freqbuf.Cache
	mc := &mapCollector{
		job:  job,
		tm:   tm,
		et:   metrics.NewEmitTimer(tm, metrics.DefaultEmitWarmup, metrics.DefaultEmitPeriod),
		sp:   sp,
		plan: plan,
	}

	ctrl := job.newController()
	if job.FreqBuf != nil {
		fb := job.FreqBuf
		tableBytes := int64(float64(bufBytes) * fb.MemFraction)
		bufBytes -= tableBytes

		var timedCombine CombineFunc
		if job.Combine != nil {
			timedCombine = func(key []byte, vals [][]byte, emit func(k, v []byte) error) error {
				t0 := time.Now()
				err := job.Combine(key, vals, emit)
				d := time.Since(t0)
				mc.combineAcc += d
				tm.Add(metrics.OpCombineUser, d)
				return err
			}
		}
		// The scanner is created after the freq buffer; the estimator
		// reads it through the collector, which is bound below.
		expected := func() int64 {
			if mc.scanner == nil {
				return 1 << 20
			}
			consumed := mc.scanner.Consumed()
			if consumed <= 0 || mc.emitted == 0 {
				return 1 << 20
			}
			return int64(float64(mc.emitted)/float64(consumed)*float64(split.Len)) + 1
		}
		var err error
		freq, err = freqbuf.New(freqbuf.Config{
			K:               fb.K,
			MemoryBytes:     tableBytes,
			SampleFraction:  fb.SampleFraction,
			ValuesPerKeyCap: fb.ValuesPerKeyCap,
			ExpectedRecords: expected,
		}, timedCombine)
		if err != nil {
			return fail(err)
		}
		if fb.ShareTopK {
			cache = c.FreqCaches[node]
			if keys, ok := cache.Get(job.filePrefix); ok {
				freq.InstallTopK(keys, func(k []byte) int { return job.Partition(k, job.NumReducers) })
			}
		}
		mc.freq = freq
		mc.cache = cache
	}

	buf, err := spillbuf.New(bufBytes, ctrl, tm)
	if err != nil {
		return fail(err)
	}
	buf.AttachTrace(job.Trace, node, taskIdx, slot)
	mc.buf = buf

	// Support goroutine: consume spills. It appends to runs and created;
	// both are read only after the goroutine is joined via supportErr.
	var runs []kvio.RunIndex
	supportErr := make(chan error, 1)
	go func() {
		spillSeq := 0
		for {
			spill, ok := buf.NextSpill()
			if !ok {
				supportErr <- nil
				return
			}
			debugAssert(spill.Seq == spillSeq, "spill sequence mismatch: buffer handed seq %d, support expected %d", spill.Seq, spillSeq)
			if plan != nil {
				if err := plan.Check(chaos.SiteSpillWrite); err != nil {
					// Closing from the consumer side unblocks a producer
					// waiting for buffer space it would otherwise wait on
					// forever; its ErrClosed is superseded at the join.
					buf.Close()
					supportErr <- err
					return
				}
			}
			spillSpan := sp.start(trace.KindSpill, trace.LaneSupport)
			spillRecords := int64(spill.Recs.Len())
			consumeStart := time.Now()
			name := attemptSpillName(dir, spillSeq)
			spillSeq++
			created = append(created, name)
			idx, err := writeSpillRun(disk, name, job.NumReducers, spill.Recs, job, job.Combine, tm, sp)
			if err != nil {
				spillSpan.EndCounts(spillRecords, spill.Bytes)
				buf.Release(spill, time.Since(consumeStart))
				buf.Close() // unblock the producer; see the check above
				supportErr <- err
				return
			}
			runs = append(runs, idx)
			spillSpan.EndCounts(spillRecords, spill.Bytes)
			buf.Release(spill, time.Since(consumeStart))
		}
	}()

	// Map goroutine: read the split and apply map().
	scanner, err := openBlockLines(c.FS, split, node, defaultIngestChunk)
	if err != nil {
		buf.Close()
		<-supportErr
		return fail(err)
	}
	mc.scanner = scanner
	mapper := job.NewMapper()
	mc.et.Restart()
	var mapErr error
	for {
		if job.cancel.Load() {
			mapErr = errJobCanceled
			break
		}
		if plan != nil {
			if err := plan.Check(chaos.SiteRecordRead); err != nil {
				mapErr = err
				break
			}
		}
		off, line, ok, err := scanner.Next()
		if err != nil {
			mapErr = err
			break
		}
		if !ok {
			break
		}
		tm.Inc(metrics.CtrMapInputRecords, 1)
		if err := mapper.Map(off, line, mc); err != nil {
			mapErr = fmt.Errorf("map(): %w", err)
			break
		}
	}
	mc.finish()
	if cerr := scanner.Close(); cerr != nil && mapErr == nil {
		mapErr = fmt.Errorf("closing input split: %w", cerr)
	}

	// Drain the frequency buffer: its aggregates join the merge directly.
	var drained []kvio.Record
	if freq != nil && mapErr == nil {
		t0 := time.Now()
		before := mc.combineAcc
		drained, err = freq.Drain()
		tm.Add(metrics.OpProfile, time.Since(t0)-(mc.combineAcc-before))
		if err != nil {
			mapErr = err
		}
		report.FreqStats = freq.Stats()
		tm.Inc(metrics.CtrFreqMisses, report.FreqStats.Misses)
		tm.Inc(metrics.CtrFreqProfiled, report.FreqStats.Profiled)
	}

	buf.Close()
	// The support goroutine's error wins over a map-side ErrClosed: when the
	// consumer dies it closes the buffer, so the producer's failure is just
	// the echo of the support failure.
	if err := <-supportErr; err != nil && (mapErr == nil || errors.Is(mapErr, spillbuf.ErrClosed)) {
		mapErr = fmt.Errorf("support thread: %w", err)
	}
	if mapErr != nil {
		return fail(mapErr)
	}

	// Merge all spill runs (plus drained frequent-key aggregates) into the
	// attempt's partitioned output run; the runner commits the winning
	// attempt by renaming it to the canonical map-output name.
	outName := attemptMapOutName(dir)
	created = append(created, outName)
	drainByPart, err := splitByPartition(drained, job.NumReducers)
	if err != nil {
		return fail(err)
	}
	mergeSpan := sp.start(trace.KindMerge, trace.LaneMap)
	outIdx, err := mergeRuns(disk, outName, runs, drainByPart, job, plan, tm)
	if err != nil {
		mergeSpan.End()
		return fail(err)
	}
	mergeSpan.EndCounts(outIdx.TotalRecords(), outIdx.TotalBytes())
	tm.Inc(metrics.CtrMergeBytes, outIdx.TotalBytes())

	// Spill files are no longer needed. Removal is best-effort cleanup:
	// failures are counted, not fatal.
	for _, run := range runs {
		if err := disk.Remove(run.Name); err != nil {
			tm.Inc(metrics.CtrCleanupErrors, 1)
		}
	}

	report.Wall = time.Since(start)
	report.Spill = buf.Stats()
	report.Metrics = tm.Snapshot()
	endTaskSpan()
	// The spills are gone; the only surviving attempt file is the output
	// run, which the runner either commits or sweeps.
	return mapOutput{node: node, index: outIdx}, report, []string{outName}, nil
}

// mergeRuns merges every spill run, plus the drained frequent-key
// aggregates (drained[p] for partition p), partition by partition into
// one output run named outName, combining as it goes. Every exit closes
// what it opened: the run streams of the partition being merged and the
// output sink.
func mergeRuns(disk vdisk.Disk, outName string, runs []kvio.RunIndex, drained [][]kvio.Record, job *Job, plan *chaos.Plan, tm *metrics.TaskMetrics) (kvio.RunIndex, error) {
	out, err := kvio.NewRunSink(disk, outName, job.NumReducers, job.CompressRuns)
	if err != nil {
		return kvio.RunIndex{}, err
	}
	var combineAcc time.Duration
	combine := job.Combine
	if combine != nil {
		combine = func(key []byte, vals [][]byte, emit func(k, v []byte) error) error {
			t0 := time.Now()
			err := job.Combine(key, vals, emit)
			combineAcc += time.Since(t0)
			return err
		}
	}
	mergePart := func(p int) error {
		if job.cancel.Load() {
			return errJobCanceled
		}
		if plan != nil {
			if err := plan.Check(chaos.SiteMerge); err != nil {
				return err
			}
		}
		streams := make([]kvio.Stream, 0, len(runs)+1)
		for _, run := range runs {
			s, err := kvio.OpenRunPart(disk, run, p)
			if err != nil {
				for _, open := range streams {
					err = errors.Join(err, open.Close())
				}
				return err
			}
			streams = append(streams, s)
		}
		if len(drained[p]) > 0 {
			streams = append(streams, kvio.NewSliceStream(drained[p]))
		}
		// MergeInto closes the streams, on failure as on success.
		_, _, err := kvio.MergeInto(streams, p, out, combine)
		return err
	}
	for p := 0; p < job.NumReducers; p++ {
		t0 := time.Now()
		before := combineAcc
		if err := mergePart(p); err != nil {
			_, cerr := out.Close()
			return kvio.RunIndex{}, errors.Join(err, cerr)
		}
		delta := combineAcc - before
		tm.Add(metrics.OpMerge, time.Since(t0)-delta)
		tm.Add(metrics.OpCombineUser, delta)
	}
	return out.Close()
}

// splitByPartition groups already-sorted drained records by partition,
// preserving key order within each partition. A record carrying an
// out-of-range partition is a routing bug upstream (it would silently
// land in the wrong reducer's output), so it fails the task instead of
// being coerced somewhere plausible.
func splitByPartition(recs []kvio.Record, parts int) ([][]kvio.Record, error) {
	out := make([][]kvio.Record, parts)
	for _, r := range recs {
		if r.Part < 0 || r.Part >= parts {
			return nil, fmt.Errorf("mr: drained record key %q routed to partition %d (have %d partitions)", r.Key, r.Part, parts)
		}
		out[r.Part] = append(out[r.Part], r)
	}
	return out, nil
}
