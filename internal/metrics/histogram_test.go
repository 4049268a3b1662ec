package metrics

import (
	"math/rand"
	"sync"
	"testing"
)

// sweepValues covers the linear range, every octave boundary ±1, and a
// spread of random values across the full 42-octave span.
func sweepValues() []int64 {
	vs := make([]int64, 0, 4096)
	for v := int64(0); v < 1024; v++ {
		vs = append(vs, v)
	}
	for oct := 3; oct < histOctaves; oct++ {
		b := int64(1) << uint(oct)
		vs = append(vs, b-1, b, b+1)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vs = append(vs, r.Int63n(int64(1)<<40))
	}
	return vs
}

func TestBucketBoundsInvariant(t *testing.T) {
	for _, v := range sweepValues() {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if u := bucketUpper(i); u < v {
			t.Fatalf("bucketUpper(%d)=%d below its own value %d", i, u, v)
		}
		if i > 0 {
			if l := bucketUpper(i - 1); l >= v {
				t.Fatalf("value %d: previous bucket upper %d not below it (bucket %d)", v, l, i)
			}
		}
		// The report (bucket upper) overstates v by at most one sub-bucket
		// width: 1/8 relative for values past the linear range.
		if v >= histSubBuckets {
			if err := bucketUpper(i) - v; err > v>>histSubShift {
				t.Fatalf("value %d reported as %d: error %d beyond 12.5%%", v, bucketUpper(i), err)
			}
		}
	}
	// bucketUpper is strictly monotonic, so cumulative Prometheus buckets
	// are well ordered.
	for i := 1; i < histBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketUpper not monotonic at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
}

func TestHistogramCountSumMax(t *testing.T) {
	h := NewHistogram("t")
	var sum int64
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
		sum += v
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != sum || s.Max != 1000 {
		t.Fatalf("count=%d sum=%d max=%d", s.Count, s.Sum, s.Max)
	}
	if m := s.Mean(); m != float64(sum)/1000 {
		t.Fatalf("mean = %v", m)
	}
	// Negative values clamp into bucket 0 but still count.
	h.Record(-5)
	if s = h.Snapshot(); s.Count != 1001 {
		t.Fatalf("negative value dropped: count=%d", s.Count)
	}
}

func TestQuantileSmallExact(t *testing.T) {
	h := NewHistogram("t")
	for v := int64(0); v < histSubBuckets; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	// Values below histSubBuckets index linearly, so quantiles are exact.
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("q0 = %d", got)
	}
	if got := s.Quantile(1); got != 7 {
		t.Fatalf("q1 = %d", got)
	}
	// rank = int64(0.5*(8-1))+1 = 4, the 4th smallest of 0..7.
	if got := s.Quantile(0.5); got != 3 {
		t.Fatalf("q0.5 = %d", got)
	}
	// Out-of-range q clamps instead of panicking.
	if s.Quantile(-1) != 0 || s.Quantile(2) != 7 {
		t.Fatal("q outside [0,1] not clamped")
	}
}

func TestQuantileRelativeError(t *testing.T) {
	h := NewHistogram("t")
	for v := int64(1); v <= 10000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		true_ := int64(q * 10000)
		got := s.Quantile(q)
		if got < true_ {
			t.Fatalf("q%.2f = %d below true value %d", q, got, true_)
		}
		if got > true_+true_/8+1 {
			t.Fatalf("q%.2f = %d overstates true value %d by more than 12.5%%", q, got, true_)
		}
	}
	// A quantile never exceeds the recorded max even when the bucket's
	// nominal upper bound does.
	if got := s.Quantile(1); got != s.Max {
		t.Fatalf("q1 = %d, max = %d", got, s.Max)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s HistSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot not zero")
	}
	if sum := s.Summary(); sum.Count != 0 || sum.String() != "n=0" {
		t.Fatalf("empty summary = %+v %q", sum, sum.String())
	}
}

func TestMergeAndSub(t *testing.T) {
	a, b := NewHistogram("t"), NewHistogram("t")
	for v := int64(1); v <= 100; v++ {
		a.Record(v)
		b.Record(v * 1000)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 200 || m.Max != 100000 {
		t.Fatalf("merge count=%d max=%d", m.Count, m.Max)
	}
	var total int64
	for _, n := range m.Buckets {
		total += n
	}
	if total != 200 {
		t.Fatalf("merged bucket occupancy %d", total)
	}

	// Interval measurement: snapshot, record more, Sub isolates the delta.
	pre := a.Snapshot()
	for v := int64(1); v <= 50; v++ {
		a.Record(v)
	}
	d := a.Snapshot().Sub(pre)
	if d.Count != 50 || d.Sum != 50*51/2 {
		t.Fatalf("sub count=%d sum=%d", d.Count, d.Sum)
	}
	if q := d.Quantile(1.0); q < 50 || q > 56 {
		t.Fatalf("interval q1 = %d", q)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram("t")
	h.Record(42)
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 || len(s.Buckets) != 0 {
		t.Fatalf("reset left %+v", s)
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := NewHistogram("t")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(w*per + i))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d", s.Count)
	}
	const n = workers * per
	if s.Sum != n*(n-1)/2 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if s.Max != n-1 {
		t.Fatalf("max = %d", s.Max)
	}
}

func TestRecorderHistRegistry(t *testing.T) {
	r := NewRecorder()
	if hs := r.HistSnapshots(); len(hs) != 0 {
		t.Fatalf("fresh recorder holds histograms: %v", hs)
	}
	h := r.Hist(HistFSRead)
	h.Record(100)
	h.Record(200)
	if r.Hist(HistFSRead) != h {
		t.Fatal("Hist returned a second histogram for the same ID")
	}
	if s := r.HistSnapshot(HistFSRead); s.Count != 2 || s.Name != "fs.read_ns" {
		t.Fatalf("fs.read_ns = %+v", s)
	}
	if s := r.HistSnapshot(HistFSWrite); s.Count != 0 || s.Name != "fs.write_ns" {
		t.Fatalf("never-created histogram = %+v", s)
	}
	if hs := r.HistSnapshots(); len(hs) != 1 || hs[0].Name != "fs.read_ns" || hs[0].Count != 2 {
		t.Fatalf("HistSnapshots = %v", hs)
	}
}

// BenchmarkRecorderIncParallel prices one counter increment under
// contention (run with -bench and -cpu): a fixed atomic slot, no lookup.
func BenchmarkRecorderIncParallel(b *testing.B) {
	r := NewRecorder()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Inc(CacheReadHit)
		}
	})
}

func BenchmarkHistogramRecordParallel(b *testing.B) {
	h := NewHistogram("bench")
	b.RunParallel(func(pb *testing.PB) {
		var v int64
		for pb.Next() {
			v++
			h.Record(v)
		}
	})
}
