package exp

import (
	"fmt"

	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
	"tinca/internal/workload"
)

// RecoveryScale produces "fig: recovery scale" — restart time as a
// function of NVM size, with the checkpoint writer off and on. Off,
// recovery's scan phase bulk-loads the whole entry table, so restart
// time grows linearly with capacity. On, recovery loads the newest
// checkpoint frame (sized by the resident set the workload actually
// built, identical at every size here) plus the delta journal, so the
// curve flat-lines: the growth ratio largest/smallest is the headline
// metric (recovery_scale_on_growth), gated at <= 2x by
// TestRecoveryScaleFlat.
//
// Each size fills the cache with the same fio stream, crashes inside a
// forced group seal at a fixed fraction of its persist-op count
// (measured on a throwaway stack, as in RecoveryBreakdown), and remounts.
// Everything is driven by the simulated clock, so the table is
// bit-identical run to run.
func RecoveryScale(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("fig: recovery scale (restart time vs NVM size, checkpoint off/on)",
		"NVM size", "ckpt", "capacity", "resident", "scan", "rebuild", "total", "frame epoch", "deltas")

	build := func(nvmMB int, ckpt bool) (*stack.Stack, error) {
		s, err := buildStack(stack.Tinca, func(c *stack.Config) {
			c.NVMBytes = nvmMB << 20
			c.FlightRecorder = true
			if ckpt {
				// A real interval (not every-commit): the figure should show
				// the steady-state cost, a frame every ~100µs of simulated
				// time plus journal deltas in between.
				c.CheckpointIntervalNS = 100_000
			}
		})
		if err != nil {
			return nil, err
		}
		// The same bounded working set at every size: what varies across
		// the x-axis is device capacity, not residency, which is exactly
		// the regime where checkpointed restart should be flat.
		if _, err := workload.RunFio(s.FS, workload.FioConfig{
			FileBytes: 4 << 20, ReadPct: 0, Ops: o.scaled(1200, 200), Seed: o.Seed,
		}); err != nil {
			return nil, err
		}
		return s, nil
	}
	victim := func(s *stack.Stack) {
		_ = s.FS.WriteFile("/crash-victim", make([]byte, 32<<10))
		_ = s.FS.Sync()
	}

	us := func(ns int64) string { return fmt.Sprintf("%.1fµs", float64(ns)/1000) }
	minMax := map[bool][2]float64{} // ckpt -> {smallest-size total, largest-size total}
	sizes := []int{8, 16, 32, 64}
	for _, nvmMB := range sizes {
		for _, ckpt := range []bool{false, true} {
			probe, err := build(nvmMB, ckpt)
			if err != nil {
				return nil, err
			}
			before := probe.Mem.PersistOps()
			victim(probe)
			sealOps := probe.Mem.PersistOps() - before

			s, err := build(nvmMB, ckpt)
			if err != nil {
				return nil, err
			}
			capacity := s.TCache.Capacity()
			s.Mem.ArmCrash(int64(0.7 * float64(sealOps)))
			if crashed, _ := pmem.CatchCrash(func() { victim(s) }); !crashed {
				return nil, fmt.Errorf("exp: %dMB ckpt=%v trial did not crash inside the seal (%d ops)", nvmMB, ckpt, sealOps)
			}
			s.Crash(sim.NewRand(o.Seed), 0.5)
			if err := s.Remount(); err != nil {
				return nil, err
			}
			rs := s.TCache.RecoveryStats()
			if !rs.Ran {
				return nil, fmt.Errorf("exp: remount at %dMB ckpt=%v did not run recovery", nvmMB, ckpt)
			}
			if ckpt != rs.FromCheckpoint {
				return nil, fmt.Errorf("exp: %dMB ckpt=%v but recovery FromCheckpoint=%v", nvmMB, ckpt, rs.FromCheckpoint)
			}

			mode := "off"
			if ckpt {
				mode = "on"
			}
			t.AddRow(fmt.Sprintf("%dMB", nvmMB), mode, capacity, rs.Resident,
				us(rs.ScanNS), us(rs.RebuildNS), us(rs.TotalNS), rs.CkptEpoch, rs.DeltaSlots)
			prefix := fmt.Sprintf("recovery_scale_%dmb_%s_", nvmMB, mode)
			t.SetMetric(prefix+"total_ns", float64(rs.TotalNS))
			t.SetMetric(prefix+"scan_ns", float64(rs.ScanNS))
			t.SetMetric(prefix+"entries_scanned", float64(rs.EntriesScanned))

			mm := minMax[ckpt]
			if nvmMB == sizes[0] {
				mm[0] = float64(rs.TotalNS)
			}
			if nvmMB == sizes[len(sizes)-1] {
				mm[1] = float64(rs.TotalNS)
			}
			minMax[ckpt] = mm
		}
	}
	// Growth ratios: restart time at the largest size over the smallest.
	// Off grows with capacity (the linear baseline); on is the flatness
	// the checkpoint subsystem promises, gated in CI at <= 2x.
	for _, ckpt := range []bool{false, true} {
		mode := "off"
		if ckpt {
			mode = "on"
		}
		mm := minMax[ckpt]
		if mm[0] > 0 {
			t.SetMetric("recovery_scale_"+mode+"_growth", mm[1]/mm[0])
		}
	}
	t.Note = fmt.Sprintf("same working set at every size; %dMB/%dMB growth: off is the linear full-scan baseline, on must stay flat (<=2x, CI-gated)",
		sizes[len(sizes)-1], sizes[0])
	return t, nil
}
