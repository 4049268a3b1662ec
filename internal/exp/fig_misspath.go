package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tinca/internal/blockdev"
	"tinca/internal/core"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// MissPathScaling is the "fig: miss-path scaling" bench: read-miss
// throughput of the transactional cache at 1/4/8 concurrent readers on a
// span four times the cache capacity, so nearly every read is a miss
// that must fill from disk and evict a victim. Every row runs the miss
// pipeline (fill reads before any lock, per-shard free caches, background
// watermark eviction) on a disk that overlaps queued reads (NCQ depth 8,
// the hardware the pipeline exists to keep busy); the speedup column is
// against the one-reader row, which is what a miss path serialized on a
// global lock delivers at any reader count. Throughput is simulated-time
// work per read, so the row ratios isolate the locking structure from
// host scheduling noise.
func MissPathScaling(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("fig: miss-path scaling — read-miss throughput vs concurrent readers",
		"goroutines", "reads/s (sim)", "sim ns/op", "hit %", "speedup")

	total := o.scaled(8000, 1500)
	workerCounts := []int{1, 4, 8}

	type result struct {
		perSec, nsPerOp, hitPct float64
		stats                   core.CacheStats
	}
	run := func(workers int) (result, error) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(2<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.NCQ(blockdev.SSD, 8), clock, rec)
		c, err := core.Open(mem, disk, core.Options{RingBytes: 4096, EvictLowWater: 48})
		if err != nil {
			return result{}, err
		}
		span := 4 * c.Capacity()
		t0 := clock.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Workers pull block numbers from one shared counter, so
				// the access stream is a single sequential scan over 4x
				// capacity no matter how the host schedules goroutines:
				// the LRU always evicts ahead of the scan, every read is a
				// miss on a distinct block, and the hit rate cannot drift
				// with scheduling the way per-worker partitions would.
				p := make([]byte, core.BlockSize)
				for {
					i := next.Add(1) - 1
					if i >= int64(total) {
						return
					}
					if err := c.Read(uint64(int(i)%span), p); err != nil {
						panic(fmt.Sprintf("reader %d: %v", w, err))
					}
				}
			}()
		}
		wg.Wait()
		elapsed := (clock.Now() - t0).Seconds()
		st := c.Stats()
		if err := c.Close(); err != nil {
			return result{}, err
		}
		reads := float64(total)
		r := result{
			perSec:  reads / elapsed,
			nsPerOp: elapsed * 1e9 / reads,
			stats:   st,
		}
		if h, m := float64(st.ReadHits), float64(st.ReadMisses); h+m > 0 {
			r.hitPct = 100 * h / (h + m)
		}
		return r, nil
	}

	var base float64 // the one-reader row's reads/s
	for _, workers := range workerCounts {
		r, err := run(workers)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			base = r.perSec
		}
		speedup := r.perSec / base
		t.AddRow(workers, r.perSec, r.nsPerOp, r.hitPct, fmt.Sprintf("%.2fx", speedup))
		key := fmt.Sprintf("concurrent_%dg", workers)
		t.SetMetric(key+"_reads_per_sec", r.perSec)
		t.SetMetric(key+"_sim_ns_per_op", r.nsPerOp)
		t.SetMetric(key+"_hit_pct", r.hitPct)
		t.SetMetric(key+"_speedup_x", speedup)
		// The watermark evictor's health: how often a foreground
		// allocation found the pool empty and had to evict itself.
		if total := r.stats.Evictions; total > 0 {
			pct := 100 * float64(r.stats.DirectEvictions) / float64(total)
			t.SetMetric(key+"_direct_evict_pct", pct)
			if cur, ok := t.Metrics["direct_evict_pct"]; !ok || pct > cur {
				t.SetMetric("direct_evict_pct", pct)
			}
		}
		if workers == 8 {
			t.SetMetric("miss_speedup_8g_x", speedup)
		}
	}
	t.Note = "span = 4x capacity so ~every read fills from disk and evicts; fills read disk before any lock and reclaim via the background watermark evictor, so distinct-block misses overlap on the NCQ disk; speedup is against the 1-goroutine row"
	return t, nil
}
