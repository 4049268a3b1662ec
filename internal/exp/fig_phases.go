package exp

import (
	"fmt"

	"tinca/internal/blockdev"
	"tinca/internal/classic"
	"tinca/internal/core"
	"tinca/internal/jbd"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// CommitPhaseBreakdown is the "fig: commit-phase breakdown" bench: where
// does a commit's time actually go, per pipeline phase, for Tinca vs the
// Classic journal at 1/4/8 concurrent committers.
//
// Tinca's commit is the five-phase persist pipeline of Section 4.4 (plus
// the leader-election wait and batch absorption of group commit); Classic's
// is JBD2's descriptor+log write, commit block, and checkpoint. Both runs
// enable the observability layer (simulated-clock phase histograms), so
// the p50/p99 columns are the same simulated nanoseconds the throughput
// figures integrate — and the share column shows which phase amortizes as
// committers pile up (Tinca's fences and Head persist) and which cannot
// (Classic's serialized journal writes).
func CommitPhaseBreakdown(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("fig: commit-phase breakdown — per-phase commit time, Tinca vs Classic",
		"system", "committers", "phase", "count", "p50", "p99", "share")

	total := o.scaled(1200, 160)

	// Phase rows per system: histogram name plus the label printed in the
	// table. The final entry is the whole-commit aggregate; its share cell
	// is left blank (it is the denominator's superset, not a slice).
	type phase struct {
		hist  metrics.Hist
		label string
	}
	tincaPhases := []phase{
		{metrics.HistCommitWait, "wait"},
		{metrics.HistCommitAbsorb, "absorb"},
		{metrics.HistCommitData, "data"},
		{metrics.HistCommitEntries, "entries"},
		{metrics.HistCommitRing, "ring+head"},
		{metrics.HistCommitSwitch, "switch"},
		{metrics.HistCommitTail, "tail+fence"},
	}
	classicPhases := []phase{
		{metrics.HistJBDLog, "desc+log"},
		{metrics.HistJBDCommitBlk, "commit blk"},
		{metrics.HistJBDCheckpoint, "checkpoint"},
	}

	emit := func(system string, workers int, rec *metrics.Recorder,
		phases []phase, totalHist metrics.Hist) {
		var denom int64
		snaps := make([]metrics.HistSnapshot, len(phases))
		for i, p := range phases {
			snaps[i] = rec.HistSnapshot(p.hist)
			denom += snaps[i].Sum
		}
		for i, p := range phases {
			s := snaps[i]
			if s.Count == 0 {
				continue
			}
			t.AddRow(system, workers, p.label, s.Count,
				fmtDurNS(s.Quantile(0.50)), fmtDurNS(s.Quantile(0.99)),
				fmt.Sprintf("%.1f%%", 100*ratio(float64(s.Sum), float64(denom))))
		}
		if s := rec.HistSnapshot(totalHist); s.Count > 0 {
			t.AddRow(system, workers, "whole commit", s.Count,
				fmtDurNS(s.Quantile(0.50)), fmtDurNS(s.Quantile(0.99)), "")
		}
	}

	runClassic := func(workers int) (*metrics.Recorder, error) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(16<<20, pmem.NVDIMM, clock, rec)
		mem.Observe(true)
		const dataBlocks = 16384
		disk := blockdev.New(dataBlocks+512, blockdev.Null, clock, rec)
		cc, err := classic.Open(mem, disk, classic.Options{JournalBoundary: dataBlocks})
		if err != nil {
			return nil, err
		}
		j, err := jbd.Open(cc, rec, jbd.Options{
			Start:   dataBlocks,
			Blocks:  512,
			Observe: true,
			Clock:   clock,
		})
		if err != nil {
			return nil, err
		}
		block := make([]byte, jbd.BlockSize)
		per := total / workers
		err = runActors(workers, func(w int) error {
			var updates []jbd.Update
			for _, no := range hotSet(w) {
				updates = append(updates, jbd.Update{No: no, Data: block})
			}
			for range per {
				if err := j.CommitTxn(jbd.Txn{Updates: updates}); err != nil {
					return fmt.Errorf("committer %d: %w", w, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := j.Close(); err != nil {
			return nil, err
		}
		return rec, cc.Close()
	}

	for _, workers := range []int{1, 4, 8} {
		r, err := commitRun(pmem.NVDIMM, core.Options{SealWaitNS: 200_000, Observe: true}, workers, total, hotSet)
		if err != nil {
			return nil, err
		}
		emit("Tinca", workers, r.rec, tincaPhases, metrics.HistCommitTotal)
		rec, err := runClassic(workers)
		if err != nil {
			return nil, err
		}
		emit("Classic", workers, rec, classicPhases, metrics.HistJBDCommit)
	}
	t.Note = "simulated time per phase; share is the phase's part of the summed pipeline time. Tinca's fences/Head persist amortize across a batch as committers grow; Classic's journal writes serialize"
	return t, nil
}

// fmtDurNS renders a simulated nanosecond duration for table cells.
func fmtDurNS(ns int64) string {
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
