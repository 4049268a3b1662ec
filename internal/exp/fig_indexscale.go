package exp

import (
	"fmt"
	"testing"
	"time"

	"tinca/internal/blockdev"
	"tinca/internal/core"
	"tinca/internal/index"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// IndexScale is the "fig: index scale" bench behind PR 6's index redesign:
// the cost of a block-number lookup on the open-addressed bucket table
// (internal/index) as the resident set grows from 100K to 10M entries.
// Lookups are DRAM bookkeeping with no simulated device cost, so this
// figure — alone among the experiments — reports host wall time per
// operation; the claim under test is a flatness claim (hit cost roughly
// constant in table size, allocations exactly zero), not an
// absolute-latency claim.
//
// The figure also opens a real cache and measures allocations per read
// on the public paths (reported in the note): Read into a caller buffer,
// and the zero-copy ReadView/Close pair. TestIndexScale holds both at
// zero: the whole point of the redesigned read API is that a warm read
// allocates nothing.
func IndexScale(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("fig: index scale — lookup cost vs resident entries, open-addressed bucket table",
		"entries", "insert ns/op", "hit ns/op", "allocs/op", "grows")

	// Entry counts; -scale shrinks them for quick runs (floor 10K).
	sizes := []int{o.scaled(100_000, 10_000), o.scaled(1_000_000, 20_000), o.scaled(10_000_000, 40_000)}
	const probes = 2_000_000 // lookups per measurement, spread over the table

	var hitNS []float64 // per size, in sizes order
	for _, n := range sizes {
		m := index.New(0)
		// Keys are block numbers scattered by a multiplicative hash so
		// probe order doesn't correlate with insertion order.
		key := func(i int) uint64 { return (uint64(i)*0x9E3779B97F4A7C15 + 1) % (1 << 56) }
		t0 := time.Now()
		for i := 0; i < n; i++ {
			m.Put(key(i), int32(i))
		}
		insertNS := float64(time.Since(t0)) / float64(n)

		t0 = time.Now()
		var sink int32
		for i := 0; i < probes; i++ {
			v, ok := m.Get(key(i % n))
			if !ok {
				return nil, fmt.Errorf("indexscale: lost key %d of %d", i%n, n)
			}
			sink ^= v
		}
		lookupNS := float64(time.Since(t0)) / float64(probes)
		_ = sink

		allocs := testing.AllocsPerRun(1000, func() {
			m.Get(key(probes % n))
		})
		t.AddRow(n, insertNS, lookupNS, allocs, m.Grows())
		hitNS = append(hitNS, lookupNS)
		key2 := "bucket_" + humanCount(n)
		t.SetMetric(key2+"_hit_ns", lookupNS)
		t.SetMetric(key2+"_get_allocs", allocs)
	}
	if hitNS[0] > 0 {
		t.SetMetric("bucket_hit_flatness_x", hitNS[len(hitNS)-1]/hitNS[0])
	}

	// Real-cache allocations per warm read. The cache itself caps the
	// resident set at its capacity (a 10M-block working set would need a
	// 40GB simulated device), so this section runs at a feasible size and
	// leans on the microbenchmark above for the scale axis.
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(8<<20, pmem.PCM, clock, rec)
	disk := blockdev.New(1<<16, blockdev.SSD, clock, rec)
	c, err := core.Open(mem, disk, core.Options{})
	if err != nil {
		return nil, err
	}
	const hot = 512
	p := make([]byte, core.BlockSize)
	for b := uint64(0); b < hot; b++ {
		if err := c.Read(b, p); err != nil {
			return nil, err
		}
	}
	var i int
	readAllocs := testing.AllocsPerRun(5000, func() {
		i++
		if err := c.Read(uint64(i%hot), p); err != nil {
			panic(err)
		}
	})
	viewAllocs := testing.AllocsPerRun(5000, func() {
		i++
		v, err := c.ReadView(uint64(i % hot))
		if err != nil {
			panic(err)
		}
		if err := v.Close(); err != nil {
			panic(err)
		}
	})
	if err := c.Close(); err != nil {
		return nil, err
	}
	t.SetMetric("read_allocs_per_op", readAllocs)
	t.SetMetric("readview_allocs_per_op", viewAllocs)
	t.Note = fmt.Sprintf("host wall ns/op (DRAM bookkeeping has no simulated cost); flatness and allocs are the claims, not absolute ns; "+
		"a warm cache read on the public API allocates %v/op (Read) and %v/op (ReadView+Close)", readAllocs, viewAllocs)
	return t, nil
}

// humanCount renders 100000 as "100k", 10000000 as "10m" for metric keys.
func humanCount(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dm", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dk", n/1_000)
	default:
		return fmt.Sprint(n)
	}
}
