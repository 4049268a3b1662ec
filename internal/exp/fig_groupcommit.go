package exp

import (
	"fmt"

	"tinca/internal/core"
	"tinca/internal/pmem"
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

	total := o.scaled(1200, 160)
	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		r, err := commitRun(pmem.NVDIMM, core.Options{SealWaitNS: 200_000}, workers, total, hotSet)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			base = r.perSec
		}
		commits := float64(total / workers * workers)
		t.AddRow(workers, r.perSec, fmt.Sprintf("%.2fx", r.perSec/base),
			r.stats.AvgGroupSize(), float64(r.stats.AbsorbedBlocks)/commits)
	}
	t.Note = "one seal per batch: duplicate hot blocks are absorbed and the fences/Head persist amortize, so per-commit NVM work shrinks as committers pile up"
	return t, nil
}

// hotSet is the block set every committer of the group-commit and
// commit-phase figures rewrites: the same four blocks, so concurrent
// commits absorb each other's writes.
func hotSet(int) []uint64 { return []uint64{0, 1, 2, 3} }
