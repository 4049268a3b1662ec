package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"tinca/internal/core"
	"tinca/internal/sim"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured phase (host time)
	// ops, when positive, fixes the measured phase's op count instead of
	// its duration. Simulated metrics and counts of a single-client
	// workload then repeat to the last bit for a seed, on any host.
	ops    int64
	trace  bool
	setups int // how many times set-up runs; setup_s is the median
	// tracePath receives the Chrome trace of a traced run ("" writes none).
	tracePath string
	// fault injects a protocol violation into the Tinca cache, to show the
	// content checks can fail (smoke_test.go).
	fault core.Fault
}

// result is what one run reports.
type result struct {
	attempted int64
	failed    int64
	problems  []string // failed assertions; any makes the run incorrect
	metrics   map[string]float64
	notes     []string // extra lines for the human-readable report
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// stop decides when a measured loop ends: after cfg.ops operations, or at
// the first chunk boundary past cfg.seconds.
type stop struct {
	ops      int64
	deadline time.Time
}

func (c runConfig) stopFrom(start time.Time) stop {
	return stop{ops: c.ops, deadline: start.Add(time.Duration(c.seconds * float64(time.Second)))}
}

func (s stop) done(ops int64, now time.Time) bool {
	if s.ops > 0 {
		return ops >= s.ops
	}
	return !now.Before(s.deadline)
}

// clientRun is what one closed-loop client observed in a measured phase.
type clientRun struct {
	ops    int64
	failed int64
	chunk  int64
	marks  []time.Duration // host time at every chunk boundary
	lat    latDist         // simulated latency per op
	host   *hist           // host latency per op, ns
}

// closedLoop issues step after step from one goroutine, each only when the
// previous returned, until st says stop. step reports whether the op
// succeeded and passed its content check. Host time is read once per op
// (an op's latency runs from the previous op's end to its own, so the loop
// is inside it); simulated latency is one atomic clock load either side.
func closedLoop(clock *sim.Clock, tr *tracer, ln int, st stop, chunk int64, step func() bool) clientRun {
	run := clientRun{chunk: chunk, marks: make([]time.Duration, 0, 1<<16), lat: latDist{}, host: &hist{}}
	start := time.Now()
	prev := start
	for {
		for i := int64(0); i < chunk; i++ {
			tr.beginIfOn(ln, kOp)
			s0 := clock.Now()
			ok := step()
			run.lat.add(int64(clock.Now() - s0))
			tr.endIfOn(ln)
			now := time.Now()
			run.host.record(int64(now.Sub(prev)))
			prev = now
			if !ok {
				run.failed++
			}
		}
		run.ops += chunk
		run.marks = append(run.marks, prev.Sub(start))
		if st.done(run.ops, prev) {
			return run
		}
	}
}

// elapsed is the host time the loop ran.
func (c clientRun) elapsed() time.Duration { return c.marks[len(c.marks)-1] }

// segmentRate is the op rate of the median of ten equal op-count segments
// of the phase (fewer when the phase has under ten chunks). Whole-run rates
// moved by 18% between runs on the 2-core sandbox; segment medians shed the
// stretches a neighbour or the collector stole.
func (c clientRun) segmentRate() float64 {
	n := len(c.marks)
	if n == 0 {
		return 0
	}
	segs, per := 10, n/10
	if per == 0 {
		segs, per = n, 1
	}
	rates := make([]float64, segs)
	prev := time.Duration(0)
	for i := range rates {
		end := c.marks[(i+1)*per-1]
		rates[i] = float64(int64(per)*c.chunk) / (end - prev).Seconds()
		prev = end
	}
	return median(rates)
}

// latDist counts per-op simulated latencies exactly: they take few distinct
// values, so a map is both small and lossless.
type latDist map[int64]int64

func (d latDist) add(ns int64) { d[ns]++ }

func (d latDist) merge(o latDist) {
	for v, n := range o {
		d[v] += n
	}
}

func (d latDist) count() int64 {
	var n int64
	for _, c := range d {
		n += c
	}
	return n
}

// quantile returns the q-th sample (nearest rank) in ns.
func (d latDist) quantile(q float64) int64 {
	vals := make([]int64, 0, len(d))
	for v := range d {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	rank := int64(math.Ceil(q * float64(d.count())))
	var seen int64
	for _, v := range vals {
		seen += d[v]
		if seen >= rank {
			return v
		}
	}
	return 0
}

// tailQuantile is the highest quantile of n samples that still has ten
// samples beyond it, the furthest into the tail the sample supports.
func tailQuantile(n int64) float64 {
	if n <= 10 {
		return 0
	}
	return 1 - 10/float64(n)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// hostMeter brackets a measured phase with runtime.MemStats readings.
type hostMeter struct{ before runtime.MemStats }

func startHostMeter() *hostMeter {
	m := &hostMeter{}
	runtime.GC() // every phase starts from a collected heap
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns mallocs since start and the live heap in MB: what is still
// allocated after a collection at the end of the phase. (The heap obtained
// from the OS moves in 16MB steps with the collector's timing; how much
// garbage the phase made is what the malloc count is for.)
func (m *hostMeter) stop() (mallocs int64, heapMB float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	mallocs = int64(after.Mallocs - m.before.Mallocs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	return mallocs, float64(after.HeapAlloc) / (1 << 20)
}

// latencyNote states a latency sample's size and the furthest percentile
// into the tail it supports.
func latencyNote(ruler string, n int64, tailQ, tailUS float64) string {
	return fmt.Sprintf("%s latency: %d samples, p%.4f = %.3f us", ruler, n, 100*tailQ, tailUS)
}
