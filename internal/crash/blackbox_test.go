package crash

import (
	"strings"
	"testing"

	"tinca/internal/core"
	"tinca/internal/stack"
)

// TestBlackbox runs the forensic path end to end: a midway crash whose
// report, recovery breakdown and oracle all hold; the persist stream of
// the sweep the same SweepConfig describes; and the kind it requires.
func TestBlackbox(t *testing.T) {
	t.Run("midway", func(t *testing.T) {
		res, err := Blackbox(SweepConfig{Kind: stack.Tinca, Seed: 7, Ops: 40}, -1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Crashed || res.Boundary != res.BoundarySpace/2 {
			t.Fatalf("midway crash did not fire: crashed=%v boundary %d of %d", res.Crashed, res.Boundary, res.BoundarySpace)
		}
		if !strings.Contains(res.Report, "seal-persist") {
			t.Fatalf("report shows no commit point:\n%s", res.Report)
		}
		if !res.Recovery.Ran {
			t.Fatal("recovery breakdown missing")
		}
		if res.Err != nil {
			t.Fatalf("blackbox trial inconsistent: %v", res.Err)
		}
	})
	t.Run("sweep-stream", func(t *testing.T) {
		// Ops left at its default: the blackbox must still span the
		// sweep's boundary space, or it re-runs a different stream.
		cfg := SweepConfig{Kind: stack.Tinca, Seed: 3}
		bb, err := Blackbox(cfg, -1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		// MaxBoundaries and EvictPs pick which trials run, not the stream.
		cfg.MaxBoundaries, cfg.EvictPs = 1, []float64{1}
		res, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bb.BoundarySpace != res.BoundarySpace {
			t.Fatalf("blackbox spans %d persist ops, the sweep %d", bb.BoundarySpace, res.BoundarySpace)
		}
	})
	t.Run("classic", func(t *testing.T) {
		if _, err := Blackbox(SweepConfig{Kind: stack.Classic, Seed: 7, Ops: 40}, -1, 0.5); err == nil {
			t.Fatal("blackbox accepted the Classic kind, which has no flight recorder")
		}
	})
}

// TestTincaOptionsRejectedOnClassic checks that every entry point refuses
// a Tinca-only sweep option on the Classic kind instead of silently
// running without it.
func TestTincaOptionsRejectedOnClassic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SweepConfig
	}{
		{"fault", SweepConfig{Fault: core.FaultSkipDataFlush}},
		{"checkpoint", SweepConfig{Checkpoint: true}},
		{"rings", SweepConfig{Rings: 4}},
		{"l3", SweepConfig{L3: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Kind, cfg.Seed, cfg.Ops = stack.Classic, 1, 5
			if _, err := Sweep(cfg); err == nil {
				t.Error("Sweep accepted it")
			}
			trace := GenTrace(cfg.Seed, cfg.Ops)
			if _, err := runTrial(cfg.trial([][]Op{trace}, 0, 0)); err == nil {
				t.Error("a trial ran with it")
			}
			if _, err := Minimize(cfg, Failure{}); err == nil {
				t.Error("Minimize accepted it")
			}
			spec := ReplaySpec{Boundary: 0, Trace: trace}
			bindOptions(&spec, &cfg, true)
			if _, err := Replay(spec); err == nil {
				t.Errorf("Replay accepted it: %s", spec)
			}
			if _, err := ParseReplaySpec(spec.String()); err == nil {
				t.Errorf("ParseReplaySpec accepted %s", spec)
			}
		})
	}
}
