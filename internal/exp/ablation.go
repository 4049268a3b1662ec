package exp

import (
	"fmt"

	"tinca/internal/core"
	"tinca/internal/metrics"
	"tinca/internal/stack"
	"tinca/internal/workload"
)

// Ablations runs the design-choice benches flagged in DESIGN.md §6:
//
//   - role switch vs. double writes inside the cache (what journalling
//     would cost Tinca);
//   - COW block write vs. UBJ-style commit-in-place with a critical-path
//     memcpy (the Section 5.4.4 comparison);
//   - ring-buffer size sensitivity (1MB default).
//
// Both ablations are cost hooks on the same seal Tinca runs, so each row
// differs from the Tinca row by its mechanism's NVM bytes alone.
func Ablations(o Options) (*Table, error) {
	o = o.withDefaults()
	t := NewTable("Ablations: Tinca design choices (Fio random write)",
		"variant", "write IOPS", "clflush/write", "disk blks/write")

	run := func(mod func(*stack.Config)) (iops, clflush, disk float64, err error) {
		s, err := buildStack(stack.Tinca, mod)
		if err != nil {
			return 0, 0, 0, err
		}
		cfg := workload.FioConfig{
			FileBytes: 32 << 20, ReadPct: 0,
			Ops: o.scaled(4000, 400), Seed: o.Seed,
		}
		if err := workload.LayoutFio(s.FS, cfg); err != nil {
			return 0, 0, 0, err
		}
		cfg.SkipLayout = true
		var cnt workload.Counts
		m, err := measure(s, func() error {
			var e error
			cnt, e = workload.RunFio(s.FS, cfg)
			return e
		})
		if err != nil {
			return 0, 0, 0, err
		}
		return m.perSecond(cnt.WriteOps),
			m.per(metrics.NVMCLFlush, cnt.WriteOps),
			m.per(metrics.DiskBlocksWrite, cnt.WriteOps), nil
	}

	cases := []struct {
		name string
		mod  func(*stack.Config)
	}{
		{"Tinca (role switch + COW)", nil},
		{"ablation: double writes in cache", func(c *stack.Config) { c.Ablation = core.AblationDoubleWrite }},
		{"ablation: UBJ-style commit-in-place", func(c *stack.Config) { c.Ablation = core.AblationUBJ }},
		{"ring 64KB", func(c *stack.Config) { c.RingBytes = 64 << 10 }},
		{"ring 4MB", func(c *stack.Config) { c.RingBytes = 4 << 20 }},
	}
	for _, cs := range cases {
		iops, clflush, disk, err := run(cs.mod)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", cs.name, err)
		}
		t.AddRow(cs.name, iops, clflush, disk)
	}
	t.Note = "expected: double-write ablation ≈ journalling cost; UBJ pays a critical-path memcpy on hits; ring size is not performance-critical"
	return t, nil
}
