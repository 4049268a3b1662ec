package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"tinca/internal/core"
)

// BENCHMARK.json is what the driver reads and catalog.go is what the
// program emits; the file is the rendering of the tables, byte for byte
// (regenerate it with `go run -C benchmark . -manifest > BENCHMARK.json`).
func TestManifestIsBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifest()) {
		t.Error("BENCHMARK.json differs from what catalog.go declares; regenerate it with -manifest")
	}
}

func TestCatalogWithinTheContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, want at most 200", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(m.name)
		if !unit.MatchString(m.unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("%s: better is %q", m.name, m.better)
		}
		setup = setup || m == metricDef{"setup_s", "s", "lower", m.bound}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", m.name, m.bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// emits checks that a run reported exactly the declared names, as finite
// numbers, in a result line the driver can parse.
func emits(t *testing.T, cfg runConfig, res result) {
	t.Helper()
	declaredNames := map[string]bool{}
	for _, m := range declared(cfg) {
		declaredNames[m.name] = true
	}
	for name := range res.metrics {
		if !declaredNames[name] {
			t.Errorf("emitted %q, which BENCHMARK.json does not declare", name)
		}
	}
	var doc struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal(resultLine(cfg, res), &doc); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if doc.Correct == nil || doc.Attempted == nil || doc.Failed == nil || *doc.Attempted < 1 {
		t.Errorf("result line lacks correct/attempted/failed: %s", resultLine(cfg, res))
	}
	for _, m := range declared(cfg) {
		got, ok := doc.Metrics[m.name]
		if !ok || got.Value == nil || got.Unit != m.unit || math.IsNaN(*got.Value) {
			t.Errorf("%s: missing from the result line or without its unit %q", m.name, m.unit)
		}
		if !cfg.trace && *got.Value == 0 {
			t.Errorf("%s is 0: an end-to-end metric must never be", m.name)
		}
	}
}

// Every workload, a few thousand ops: content checks and CheckConsistency
// pass, every end-to-end name is emitted and no other, none is zero.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 3, ops: 1024, setups: 1}
			emits(t, cfg, mustRun(t, w, cfg))
		})
	}
}

// The traced run on the two workloads the parity and determinism tests do
// not trace: two clients, and crash cycles whose injected panics unwind
// through the span wrappers. mustRun fails on any problem the run itself
// found, which includes share columns that do not sum to 100±0.5.
func TestSmokeTraced(t *testing.T) {
	probeValues := runProbes(time.Millisecond)
	for _, name := range []string{"rw_2client", "crash_recover"} {
		t.Run(name, func(t *testing.T) {
			w, _ := selectWorkloads(name)
			cfg := runConfig{seed: 3, ops: 8192, trace: true, tracePath: t.TempDir() + "/trace.json"}
			res := mustRun(t, w[0], cfg)
			for n, v := range probeValues {
				res.metrics[n] = v
			}
			emits(t, cfg, res)
			for _, col := range []string{".host_share_pct", ".sim_share_pct"} {
				sum := 0.0
				for _, l := range tracedLayers {
					sum += res.metrics[l+col]
				}
				if math.Abs(sum-100) > 0.5 {
					t.Errorf("%s sums to %.3f over the layers, want 100±0.5", col, sum)
				}
			}
			var doc struct{ TraceEvents []json.RawMessage }
			raw, err := os.ReadFile(cfg.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
			}
		})
	}
}

// A check that cannot fail checks nothing: a cache that skips the data
// flush of its commits must lose acked writes or return torn blocks.
func TestCrashCheckCatchesSkippedFlush(t *testing.T) {
	w, _ := selectWorkloads("crash_recover")
	res, err := run(runConfig{seed: 3, ops: 30_000, setups: 1, fault: core.FaultSkipDataFlush}, w[0].spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.correct() {
		t.Errorf("FaultSkipDataFlush went unnoticed: failed=%d of %d", res.failed, res.attempted)
	}
}
