package main

import (
	"runtime"
	"strings"
	"testing"
)

// simulated reports whether a per-layer metric is on the simulated ruler
// or an exact count, and so must repeat to the last bit for a seed.
func simulated(name string) bool {
	for _, host := range []string{"host", "trace.overhead_pct", "workload.read_ops_per_s", "workload.write_ops_per_s"} {
		if strings.Contains(name, host) {
			return false
		}
	}
	return true
}

func mustRun(t *testing.T, w workloadDef, cfg runConfig) result {
	t.Helper()
	res, err := run(cfg, w.spec)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.correct() {
		t.Fatalf("%s: failed=%d problems=%v", w.name, res.failed, res.problems)
	}
	return res
}

// With one client, stock device profiles and nothing in the background, the
// simulated clock and every counter are functions of the seed alone: not of
// the host, not of GOMAXPROCS, not of the run. The seed must reach the
// generators: another seed gives other numbers.
func TestSimulatedMetricsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("sets every single-client workload up seven times")
	}
	for _, w := range workloads {
		if w.spec.clients != 1 {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 11, ops: 2048, setups: 1}
			first := mustRun(t, w, cfg)
			prev := runtime.GOMAXPROCS(1)
			second := mustRun(t, w, cfg)
			runtime.GOMAXPROCS(prev)
			if a, b := first.metrics["sim_ops_per_s"], second.metrics["sim_ops_per_s"]; a != b {
				t.Errorf("sim_ops_per_s: %v at GOMAXPROCS=%d, %v at GOMAXPROCS=1", a, prev, b)
			}
			if first.attempted != second.attempted {
				t.Errorf("attempted: %d then %d", first.attempted, second.attempted)
			}

			other := cfg
			other.seed = 12
			if a, b := first.metrics["sim_ops_per_s"], mustRun(t, w, other).metrics["sim_ops_per_s"]; a == b {
				t.Errorf("sim_ops_per_s is %v for seeds 11 and 12: the seed does not reach the generator", a)
			}

			cfg.trace = true
			traced := mustRun(t, w, cfg)
			prev = runtime.GOMAXPROCS(1)
			again := mustRun(t, w, cfg)
			runtime.GOMAXPROCS(prev)
			for name, v := range traced.metrics {
				if simulated(name) && again.metrics[name] != v {
					t.Errorf("%s: %v at GOMAXPROCS=%d, %v at GOMAXPROCS=1", name, v, prev, again.metrics[name])
				}
			}
		})
	}
}
