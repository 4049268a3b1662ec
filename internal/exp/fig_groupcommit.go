package exp

import (
	"fmt"
	"sync"

	"tinca/internal/blockdev"
	"tinca/internal/core"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// GroupCommitScaling is the "fig: group-commit scaling" bench: commit
// throughput of the transactional cache at 1/2/4/8 concurrent committers.
// Every committer repeatedly rewrites the same hot block set, so
// concurrently arriving commits coalesce into one ring-buffer seal: the
// batch absorbs duplicate blocks into a single NVM write and amortizes
// the ordering fences and the Head persist over the whole group.
// Throughput is simulated-time work per acknowledged commit, so the row
// ratios isolate the protocol savings from host scheduling noise.
func GroupCommitScaling(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("fig: group-commit scaling — commit throughput vs concurrent committers",
		"goroutines", "commits/s (sim)", "speedup", "avg batch", "absorbed/commit")

	const hotBlocks = 4 // every transaction rewrites these
	total := o.scaled(1200, 160)

	run := func(workers int) (perSec, avgBatch, absorbed float64, err error) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(16<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		c, err := core.Open(mem, disk, core.Options{
			SealWaitNS: 200_000,
		})
		if err != nil {
			return 0, 0, 0, err
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
					for b := uint64(0); b < hotBlocks; b++ {
						txn.Write(b, block)
					}
					if err := txn.Commit(); err != nil {
						panic(fmt.Sprintf("worker %d: %v", w, err))
					}
				}
			}()
		}
		wg.Wait()
		elapsed := (clock.Now() - t0).Seconds()
		st := c.Stats()
		if err := c.Close(); err != nil {
			return 0, 0, 0, err
		}
		commits := float64(per * workers)
		return commits / elapsed, st.AvgGroupSize(), float64(st.AbsorbedBlocks) / commits, nil
	}

	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		perSec, avgBatch, absorbed, err := run(workers)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			base = perSec
		}
		t.AddRow(workers, perSec, fmt.Sprintf("%.2fx", perSec/base), avgBatch, absorbed)
	}
	t.Note = "one seal per batch: duplicate hot blocks are absorbed and the fences/Head persist amortize, so per-commit NVM work shrinks as committers pile up"
	return t, nil
}
