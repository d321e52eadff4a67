package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mrtext/internal/cluster"
	"mrtext/internal/mr"
)

// digests holds one job's output: the SHA-256 of each partition file.
type digests map[int][sha256.Size]byte

// jobSample is one job run through mr.Run.
type jobSample struct {
	wall time.Duration
	cpu  time.Duration
	res  *mr.Result
	out  digests
	err  error
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runJob runs one job to completion and collects its output digests.
func runJob(c *cluster.Cluster, job *mr.Job) jobSample {
	s := timeJob(c, job)
	collect(c, &s)
	return s
}

// timeJob times one mr.Run call, wall and CPU. The heap is collected
// first so each job starts from the same garbage-free state.
func timeJob(c *cluster.Cluster, job *mr.Job) jobSample {
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	res, err := mr.Run(c, job)
	return jobSample{wall: time.Since(start), cpu: cpuTime() - cpu0, res: res, err: err}
}

// collect reads a finished job's output back, outside the timing.
func collect(c *cluster.Cluster, s *jobSample) {
	if s.err == nil {
		s.out, s.err = readOutputs(c, s.res)
	}
}

// readOutputs hashes every output partition and removes its file, reading
// the partitions concurrently: each read pays simulated disk and NIC
// latency that would otherwise dominate the benchmark's own time.
func readOutputs(c *cluster.Cluster, res *mr.Result) (digests, error) {
	out := make(digests, len(res.Outputs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for p, name := range res.Outputs {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int, name string) {
			defer wg.Done()
			defer func() { <-sem }()
			data, err := c.FS.ReadFile(name)
			if err == nil {
				err = c.FS.Remove(name)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("reading output %s: %w", name, err)
				}
				return
			}
			out[p] = sha256.Sum256(data)
		}(p, name)
	}
	wg.Wait()
	return out, firstErr
}

// referenceDigests hashes the partitions mr.RunReference produced.
func referenceDigests(ref map[int][]byte) digests {
	d := make(digests, len(ref))
	for p, data := range ref {
		d[p] = sha256.Sum256(data)
	}
	return d
}

// matches reports whether a job's output is byte-identical to the
// reference: the same partitions, each with the same digest.
func (d digests) matches(ref digests) bool {
	if len(d) != len(ref) {
		return false
	}
	for p, sum := range ref {
		if got, ok := d[p]; !ok || got != sum {
			return false
		}
	}
	return true
}

// countFailures counts the samples that returned an error or whose output
// differs from the reference.
func countFailures(samples []jobSample, ref digests) int {
	failed := 0
	for _, s := range samples {
		if s.err != nil || !s.out.matches(ref) {
			failed++
		}
	}
	return failed
}

// timedRun is the result of an untraced run.
type timedRun struct {
	samples []jobSample
	setups  []time.Duration
	peakRSS float64
	failed  int
}

// runTimed sets the workload up setupRuns times, then runs untraced jobs
// on the last cluster until the measuring time has passed and at least the
// workload's minJobs have completed. The reference output is computed
// after the timed jobs and the peak-RSS reading, so neither the timing nor
// the memory figure includes it.
func runTimed(w workload, seed int64, seconds time.Duration, setupRuns int) (*timedRun, error) {
	tr := &timedRun{}
	var c *cluster.Cluster
	for i := 0; i < setupRuns; i++ {
		c = nil // let the previous set-up's cluster be collected
		runtime.GC()
		var d time.Duration
		var err error
		if c, d, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		tr.setups = append(tr.setups, d)
	}
	start := time.Now()
	for len(tr.samples) < w.minJobs || time.Since(start) < seconds {
		tr.samples = append(tr.samples, runJob(c, w.job()))
	}
	tr.peakRSS = peakRSSMiB()
	ref, err := mr.RunReference(c, w.job())
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	tr.failed = countFailures(tr.samples, referenceDigests(ref))
	return tr, nil
}

// median returns the median of ds (the mean of the middle two for an even
// count).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
