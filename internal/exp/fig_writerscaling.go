package exp

import (
	"fmt"

	"tinca/internal/core"
	"tinca/internal/pmem"
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
// Its committers run on one P (runActors). A committer blocked on the
// single ring's lock is not runnable on any P count, so the R=1 column
// is what a serialized seal delivers.
func WriterScaling(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("fig: writer scaling — disjoint-shard commit throughput, single ring vs CommitRings=16",
		"goroutines", "R=1 commits/s", "R=16 commits/s", "speedup")

	total := o.scaled(1200, 160)
	// Disjoint per-worker blocks: w, w+16, w+32, w+48 — all in shard (and
	// ring, at R=16) w mod 16.
	blocks := func(w int) []uint64 {
		return []uint64{uint64(w % 16), uint64(w%16 + 16), uint64(w%16 + 32), uint64(w%16 + 48)}
	}
	run := func(workers, rings int) (float64, error) {
		r, err := commitRun(pmem.Banks(pmem.NVDIMM, 16), core.Options{SealWaitNS: 200_000, CommitRings: rings},
			workers, total, blocks)
		return r.perSec, err
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
