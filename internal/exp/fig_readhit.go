package exp

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"tinca/internal/blockdev"
	"tinca/internal/core"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// ReadHitScaling is the "fig: read-hit scaling" bench: aggregate read-hit
// throughput at 1/4/8/16 concurrent readers hammering a small hot set
// that all lands in ONE metadata shard — the worst case for a hit path
// that takes the shard mutex, which serializes every hit, and the case
// the per-slot seqlock fast path (readfast.go) exists for. The NVM
// profile overlaps concurrent block loads (pmem.Channels, depth 8), so
// with no DRAM bookkeeping serializing them, the hardware parallelism
// shows up as simulated-time speedup over the one-reader row (which is
// what the mutex-serialized path delivers at any reader count). The
// readers run on one P (runActors); the disk serves only the warm-up.
//
// A final row pits 8 readers against a concurrent committer
// that keeps COWing and sealing blocks of the same hot set; the fast-hit
// ratio ReadHitFast/(ReadHitFast+ReadHitSlow) of that row is the
// "fast_hit_ratio" metric the exp test holds above 0.95 — mid-seal
// (log-role) windows and seqlock retries must stay rare even with a
// writer interleaving.
func ReadHitScaling(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("fig: read-hit scaling — aggregate hit throughput vs concurrent readers, one hot shard",
		"goroutines", "writer", "reads/s (sim)", "sim ns/op", "fast-hit %", "speedup")

	total := o.scaled(60000, 8000)
	workerCounts := []int{1, 4, 8, 16}
	// 64 hot blocks, all ≡ 0 mod shardCount(16): every hit lands in the
	// same shard.
	const hotBlocks = 64
	hot := func(n int) uint64 { return uint64(n%hotBlocks) * 16 }

	type result struct {
		perSec, nsPerOp, fastPct float64
		stats                    core.CacheStats
	}
	run := func(workers int, writer bool) (result, error) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(2<<20, pmem.Channels(pmem.NVDIMM, 8), clock, rec)
		disk := blockdev.New(1<<16, blockdev.SSD, clock, rec)
		c, err := core.Open(mem, disk, core.Options{RingBytes: 4096})
		if err != nil {
			return result{}, err
		}
		// Warm the hot set: one sequential pass fills every block, so the
		// measured region below is hit-only.
		p := make([]byte, core.BlockSize)
		for n := 0; n < hotBlocks; n++ {
			if err := c.Read(hot(n), p); err != nil {
				return result{}, err
			}
		}
		warm := c.Stats()
		t0 := clock.Now()
		// Readers pull from one shared counter so the total read count is
		// exact and the stream's block sequence does not depend on host
		// scheduling. Actor number workers, when present, is the writer.
		var next, readersDone atomic.Int64
		reading := func() bool { return readersDone.Load() < int64(workers) }
		actors := workers
		if writer {
			actors++
		}
		err = runActors(actors, func(w int) error {
			buf := make([]byte, core.BlockSize)
			if w == workers {
				// One committer keeps rewriting hot blocks: each commit COWs
				// the block through a log-role window and a seal, so readers
				// keep crossing mutating slots. Paced off the shared read
				// counter (one commit per 64 reads) so the commit pipeline's
				// much larger sim cost doesn't drown the read throughput the
				// figure measures — the interference pattern, not the commit
				// rate, is what the fast-hit ratio probes.
				for n := 0; reading(); n++ {
					for next.Load() < int64(n)*64 && reading() {
						runtime.Gosched()
					}
					tx := c.Begin()
					tx.Write(hot(n), buf)
					if err := tx.Commit(); err != nil {
						return fmt.Errorf("writer: %w", err)
					}
				}
				return nil
			}
			defer readersDone.Add(1)
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return nil
				}
				if err := c.Read(hot(int(i)), buf); err != nil {
					return fmt.Errorf("reader %d: %w", w, err)
				}
			}
		})
		if err != nil {
			return result{}, err
		}
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
		if f, s := float64(st.ReadHitFast-warm.ReadHitFast), float64(st.ReadHitSlow-warm.ReadHitSlow); f+s > 0 {
			r.fastPct = 100 * f / (f + s)
		}
		return r, nil
	}

	var base float64 // the one-reader row's reads/s
	for _, workers := range workerCounts {
		r, err := run(workers, false)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			base = r.perSec
		}
		speedup := r.perSec / base
		t.AddRow(workers, "no", r.perSec, r.nsPerOp, r.fastPct, fmt.Sprintf("%.2fx", speedup))
		key := fmt.Sprintf("seqlock_%dg", workers)
		t.SetMetric(key+"_reads_per_sec", r.perSec)
		t.SetMetric(key+"_sim_ns_per_op", r.nsPerOp)
		t.SetMetric(key+"_fast_hit_pct", r.fastPct)
		t.SetMetric(key+"_speedup_x", speedup)
		if workers == 8 {
			t.SetMetric("readhit_speedup_8g_x", speedup)
		}
	}
	// Mixed row: 8 readers + 1 committer on the hot set. Its fast-hit
	// ratio is the figure's health metric.
	r, err := run(8, true)
	if err != nil {
		return nil, err
	}
	t.AddRow(8, "yes", r.perSec, r.nsPerOp, r.fastPct, fmt.Sprintf("%.2fx", r.perSec/base))
	t.SetMetric("seqlock_8g_writer_reads_per_sec", r.perSec)
	t.SetMetric("fast_hit_ratio", r.fastPct/100)
	t.SetMetric("seqlock_8g_writer_seqlock_retries", float64(r.stats.SeqlockRetries))
	t.SetMetric("seqlock_8g_writer_touch_ring_drops", float64(r.stats.TouchRingDrops))
	t.Note = "64 hot blocks on one metadata shard, warmed, hit-only; hits run readfast.go's zero-lock path on an NVM profile that overlaps up to 8 loads (pmem.Channels); the writer row adds a committer COWing the same hot set; speedup is against the 1-goroutine row"
	return t, nil
}
