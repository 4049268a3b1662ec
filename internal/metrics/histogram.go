package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free latency histogram with log-linear buckets:
// values are grouped by power of two (octave) and each octave is split
// into histSubBuckets linear sub-buckets, bounding the relative error of
// any reported quantile to 1/histSubBuckets (12.5%). Record is a handful
// of atomic adds — no locks, no allocation — so it is safe on data paths;
// hot paths that must pay nothing when observability is off should hold a
// nil *Histogram and branch on it (see internal/core's obs).
//
// Values are conventionally nanoseconds, but the histogram is unit-blind
// (flush-burst sizes use the same type).
type Histogram struct {
	name  string
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
	bkt   [histBuckets]atomic.Int64
}

const (
	// histOctaves covers values up to 2^histOctaves-1; 2^42 ns ≈ 73
	// simulated minutes, far beyond any phase this repo times.
	histOctaves    = 42
	histSubShift   = 3 // 8 sub-buckets per octave
	histSubBuckets = 1 << histSubShift
	histBuckets    = histOctaves * histSubBuckets
)

// NewHistogram returns an empty histogram. Most callers obtain histograms
// from a Recorder (Hist) so snapshots travel with the counters.
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }

// bucketIndex maps a value to its log-linear bucket.
func bucketIndex(v int64) int {
	if v < histSubBuckets {
		// Values below one full sub-bucket row index linearly into the
		// first octave rows.
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	oct := bits.Len64(uint64(v)) - 1 // position of the high bit
	sub := (v >> (uint(oct) - histSubShift)) & (histSubBuckets - 1)
	i := (oct-histSubShift+1)*histSubBuckets + int(sub)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpper is the inclusive upper bound of bucket i (the largest value
// that maps to it).
func bucketUpper(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	oct := i/histSubBuckets + histSubShift - 1
	sub := int64(i%histSubBuckets) + 1
	return (1 << uint(oct)) + (sub << (uint(oct) - histSubShift)) - 1
}

// Record adds one observation. Safe for concurrent use; never blocks.
func (h *Histogram) Record(v int64) {
	h.bkt[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.bkt {
		h.bkt[i].Store(0)
	}
}

// Snapshot copies the histogram's state. The copy is not atomic across
// buckets (concurrent Records may straddle it), which shifts a quantile by
// at most the in-flight observations — the same contract Snapshot has for
// counters.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Name:  h.name,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.bkt {
		if n := h.bkt[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64, 8)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram at one instant.
// Buckets maps bucket index to occupancy (absent = zero); snapshots from
// histograms with different names may still be merged when aggregating
// across recorders.
type HistSnapshot struct {
	Name    string
	Count   int64
	Sum     int64
	Max     int64
	Buckets map[int]int64
}

// Merge returns the bucket-wise sum of s and o (for aggregating shards or
// repeated runs). Max is the larger of the two.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Name: s.Name, Count: s.Count + o.Count, Sum: s.Sum + o.Sum, Max: s.Max}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	if len(s.Buckets)+len(o.Buckets) > 0 {
		out.Buckets = make(map[int]int64, len(s.Buckets)+len(o.Buckets))
		for i, n := range s.Buckets {
			out.Buckets[i] += n
		}
		for i, n := range o.Buckets {
			out.Buckets[i] += n
		}
	}
	return out
}

// Sub returns s - old bucket-wise, for interval measurements over a live
// histogram. Max cannot be subtracted and is carried from s (it is an
// upper bound for the interval).
func (s HistSnapshot) Sub(old HistSnapshot) HistSnapshot {
	out := HistSnapshot{Name: s.Name, Count: s.Count - old.Count, Sum: s.Sum - old.Sum, Max: s.Max}
	if len(s.Buckets) > 0 {
		out.Buckets = make(map[int]int64, len(s.Buckets))
		for i, n := range s.Buckets {
			if d := n - old.Buckets[i]; d != 0 {
				out.Buckets[i] = d
			}
		}
	}
	return out
}

// Quantile returns the value at quantile q in [0,1]: the upper bound of
// the bucket holding the q-th observation, so the true value is at most
// one sub-bucket width (12.5% relative) below the report. Returns 0 for
// an empty snapshot; q outside [0,1] is clamped.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count-1)) + 1
	var seen int64
	for i := 0; i < histBuckets; i++ {
		n, ok := s.Buckets[i]
		if !ok {
			continue
		}
		seen += n
		if seen >= rank {
			u := bucketUpper(i)
			if u > s.Max && s.Max > 0 {
				return s.Max
			}
			return u
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Summary condenses the snapshot to the quantiles the evaluation tables
// report.
func (s HistSnapshot) Summary() LatencySummary {
	return LatencySummary{
		Count:  s.Count,
		MeanNS: int64(s.Mean()),
		P50NS:  s.Quantile(0.50),
		P95NS:  s.Quantile(0.95),
		P99NS:  s.Quantile(0.99),
		MaxNS:  s.Max,
	}
}

// LatencySummary is the typed quantile digest surfaced through the
// Stats() structs. All values are nanoseconds except Count.
type LatencySummary struct {
	Count  int64
	MeanNS int64
	P50NS  int64
	P95NS  int64
	P99NS  int64
	MaxNS  int64
}

// String renders the summary compactly for tables and the tincafs shell.
func (l LatencySummary) String() string {
	if l.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		l.Count, fmtNS(l.MeanNS), fmtNS(l.P50NS), fmtNS(l.P95NS), fmtNS(l.P99NS), fmtNS(l.MaxNS))
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
