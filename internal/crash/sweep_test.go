package crash

import (
	"reflect"
	"strings"
	"testing"

	"tinca/internal/core"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
)

// TestSweepSerialExhaustive crashes a trace at every persist-op boundary
// it spans, across the evictP grid, for both stack kinds. This is the
// exhaustive counterpart of the random Trial tests: no boundary is left
// unsampled, so an ordering bug cannot hide between random draws.
func TestSweepSerialExhaustive(t *testing.T) {
	for _, kind := range []stack.Kind{stack.Tinca, stack.Classic} {
		res, err := Sweep(SweepConfig{Kind: kind, Seed: 11, Ops: 15})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(res.Failures) != 0 {
			f := res.Failures[0]
			t.Fatalf("%v: %d failures; first at boundary %d evictP %v: %v",
				kind, len(res.Failures), f.Boundary, f.EvictP, f.Err)
		}
		if res.BoundarySpace == 0 || res.Boundaries != int(res.BoundarySpace) {
			t.Fatalf("%v: swept %d of %d boundaries", kind, res.Boundaries, res.BoundarySpace)
		}
		// Every in-stream boundary must actually fire: 3 evictPs per
		// boundary, all crashing.
		if res.Crashes != res.Runs {
			t.Fatalf("%v: only %d/%d trials crashed; boundary space over-counted", kind, res.Crashes, res.Runs)
		}
		t.Logf("%v: %d boundaries x 3 evictPs = %d trials, all consistent", kind, res.Boundaries, res.Runs)
	}
}

// TestSweepCheckpointed re-runs the exhaustive serial sweep with the
// checkpoint writer firing at every commit point (IntervalNS=1), so every
// boundary the sweep visits is also a boundary inside or between
// checkpoint writes. Any ordering bug in the journal-first protocol or
// the frame commit point shows up as an oracle failure here.
func TestSweepCheckpointed(t *testing.T) {
	res, err := Sweep(SweepConfig{Kind: stack.Tinca, Seed: 11, Ops: 15, Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		f := res.Failures[0]
		t.Fatalf("%d failures; first at boundary %d evictP %v: %v",
			len(res.Failures), f.Boundary, f.EvictP, f.Err)
	}
	if res.Crashes != res.Runs {
		t.Fatalf("only %d/%d trials crashed; boundary space over-counted", res.Crashes, res.Runs)
	}
	// The checkpointed boundary space must be strictly wider than the plain
	// one: the writer's journal records and frame persists add persist ops,
	// and if they don't the sweep silently stopped covering the new code.
	plain, err := Sweep(SweepConfig{Kind: stack.Tinca, Seed: 11, Ops: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundarySpace <= plain.BoundarySpace {
		t.Fatalf("checkpoint writer added no persist boundaries: %d vs %d",
			res.BoundarySpace, plain.BoundarySpace)
	}
	t.Logf("checkpointed: %d boundaries (plain %d), %d trials, all consistent",
		res.Boundaries, plain.BoundarySpace, res.Runs)
}

// TestSweepMultiRing runs the exhaustive serial sweep on the CommitRings=16
// layout: every persist of the per-ring seal protocol — the 16B
// generation-stamped records, the per-ring Head persists, and the
// multi-ring Tail-flip window of cross-shard seals — becomes a crash
// boundary, and the generation-merged recovery must hold the oracle at
// each one. The multi-ring boundary space must also be strictly wider
// than the single-ring one: the split adds per-ring pointer persists, and
// if it doesn't, the sweep silently stopped covering the new protocol.
func TestSweepMultiRing(t *testing.T) {
	res, err := Sweep(SweepConfig{Kind: stack.Tinca, Seed: 11, Ops: 15, Rings: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		f := res.Failures[0]
		t.Fatalf("%d failures; first at boundary %d evictP %v: %v",
			len(res.Failures), f.Boundary, f.EvictP, f.Err)
	}
	if res.Crashes != res.Runs {
		t.Fatalf("only %d/%d trials crashed; boundary space over-counted", res.Crashes, res.Runs)
	}
	plain, err := Sweep(SweepConfig{Kind: stack.Tinca, Seed: 11, Ops: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundarySpace <= plain.BoundarySpace {
		t.Fatalf("multi-ring seals added no persist boundaries: %d vs %d",
			res.BoundarySpace, plain.BoundarySpace)
	}
	t.Logf("rings=16: %d boundaries (single-ring %d), %d trials, all consistent",
		res.Boundaries, plain.BoundarySpace, res.Runs)
}

// TestSweepL3Tiered re-runs the exhaustive serial sweep on the tiered
// stack (DESIGN.md §16): a 512-slot L2 disk plus object store behind
// the cache, with the upload and prefetch pipelines live and a low
// dirty bound forcing destage/upload/backpressure churn. The tier adds
// no NVM persists, so the boundary space matches the plain sweep; the
// point is the oracle verifying that recovery through the tier's slot
// map re-attach loses nothing at any NVM persist boundary.
func TestSweepL3Tiered(t *testing.T) {
	res, err := Sweep(SweepConfig{Kind: stack.Tinca, Seed: 11, Ops: 15, L3: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		f := res.Failures[0]
		t.Fatalf("%d failures; first at boundary %d evictP %v: %v",
			len(res.Failures), f.Boundary, f.EvictP, f.Err)
	}
	if res.Crashes != res.Runs {
		t.Fatalf("only %d/%d trials crashed; boundary space over-counted", res.Crashes, res.Runs)
	}
	t.Logf("l3: %d boundaries x evictPs = %d trials, all consistent", res.Boundaries, res.Runs)
}

// TestSweepMultiRingGroup crashes the concurrency matrix on the
// multi-ring layout: namespaced FS workers plus raw committers whose
// four-consecutive-block transactions span four rings, so every trial
// exercises the cross-ring seal (ring locks in index order, one
// generation, Tails flipped ring by ring).
func TestSweepMultiRingGroup(t *testing.T) {
	res, err := Sweep(SweepConfig{
		Kind:          stack.Tinca,
		Seed:          23,
		Ops:           10,
		MaxBoundaries: 50,
		Rings:         16,
		Group:         GroupConfig{Blocks: 4, FSWorkers: 4, RawCommitters: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		f := res.Failures[0]
		t.Fatalf("%d failures; first at boundary %d evictP %v: %v",
			len(res.Failures), f.Boundary, f.EvictP, f.Err)
	}
	if res.Crashes == 0 {
		t.Fatal("no multi-ring group trial crashed; sweep is vacuous")
	}
	t.Logf("rings=16 group: %d trials (%d crashed) over %d-op boundary space, all consistent",
		res.Runs, res.Crashes, res.BoundarySpace)
}

// TestSweepGroupCommit runs the group-commit-aware oracle: concurrent
// namespaced FS workers plus raw core.Txn committers under
// GroupCommitBlocks > 0, crashed across the boundary space. Verifies
// batch prefix-atomicity per worker and block-level txn atomicity for
// the raw streams.
func TestSweepGroupCommit(t *testing.T) {
	for _, tc := range []struct {
		kind stack.Kind
		raw  int
	}{
		{stack.Tinca, 2},
		{stack.Classic, 0},
	} {
		res, err := Sweep(SweepConfig{
			Kind:          tc.kind,
			Seed:          23,
			Ops:           10,
			MaxBoundaries: 50,
			Group:         GroupConfig{Blocks: 4, FSWorkers: 4, RawCommitters: tc.raw},
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if len(res.Failures) != 0 {
			f := res.Failures[0]
			t.Fatalf("%v: %d failures; first at boundary %d evictP %v: %v",
				tc.kind, len(res.Failures), f.Boundary, f.EvictP, f.Err)
		}
		if res.Crashes == 0 {
			t.Fatalf("%v: no group trial crashed; sweep is vacuous", tc.kind)
		}
		t.Logf("%v: %d trials (%d crashed) over %d-op boundary space, all consistent",
			tc.kind, res.Runs, res.Crashes, res.BoundarySpace)
	}
}

// TestSweepCatchesInjectedFault validates the harness itself: a cache
// that skips the committed-data flushes (FaultSkipDataFlush) must be
// caught by the sweep at evictP 0, then shrunk to a tiny deterministic
// reproducer whose replay line fails on its own. The multi-ring and
// tiered cases check that the sweep's layout options survive into the
// replay line and the minimized reproducer: a reproducer that dropped
// them would replay a different persist stream.
func TestSweepCatchesInjectedFault(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rings int
		l3    bool
	}{
		{"single-ring", 0, false},
		{"rings=4", 4, false},
		{"l3", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SweepConfig{
				Kind:    stack.Tinca,
				Seed:    5,
				Ops:     25,
				EvictPs: []float64{0},
				Fault:   core.FaultSkipDataFlush,
				Rings:   tc.rings,
				L3:      tc.l3,
			}
			res, err := Sweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) == 0 {
				t.Fatal("sweep missed the injected skip-data-flush fault; the oracle is vacuous")
			}
			t.Logf("fault caught at %d/%d trials; first: boundary %d: %v",
				len(res.Failures), res.Runs, res.Failures[0].Boundary, res.Failures[0].Err)

			// The sweep's own replay line carries its options and fails.
			line := cfg.ReplayLine(res.Failures[0])
			spec, err := ParseReplaySpec(line)
			if err != nil {
				t.Fatalf("replay line does not parse: %v\n%s", err, line)
			}
			if spec.Rings != tc.rings || spec.L3 != tc.l3 {
				t.Fatalf("replay line lost sweep options (rings=%d l3=%v): %s", tc.rings, tc.l3, line)
			}
			if _, err := Replay(spec); err == nil {
				t.Fatalf("replay line does not reproduce: %s", line)
			}

			min, err := Minimize(cfg, res.Failures[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(min.Spec.Trace) > 10 {
				t.Fatalf("minimizer left %d ops, want <= 10: %v", len(min.Spec.Trace), min.Spec.Trace)
			}
			if min.Spec.Rings != tc.rings || min.Spec.L3 != tc.l3 {
				t.Fatalf("minimized spec lost sweep options (rings=%d l3=%v): %s", tc.rings, tc.l3, min.Spec)
			}
			t.Logf("minimized to %d ops (boundary %d) in %d trials: %s",
				len(min.Spec.Trace), min.Spec.Boundary, min.Trials, min.Spec)

			// The reproducer line must round-trip and still fail.
			line = min.Spec.String()
			spec, err = ParseReplaySpec(line)
			if err != nil {
				t.Fatalf("reproducer line does not parse: %v\n%s", err, line)
			}
			if _, err := Replay(spec); err == nil {
				t.Fatalf("reproducer does not reproduce: %s", line)
			}

			// And the same sweep without the fault must be clean — the
			// failures above are the fault, not harness noise.
			cfg.Fault = core.FaultNone
			res, err = Sweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) != 0 {
				t.Fatalf("fault-free control sweep failed: %v", res.Failures[0].Err)
			}
		})
	}
}

// TestTornEntryReproducers replays the minimal reproducers a sweep found
// when pmem tore every store per 8-byte word but the cache entry still
// relied on a 16-byte failure-atomic update (plain, -checkpoint, -rings 16
// and -l3 sweeps). Each crashes one op mid-seal with an entry or ring
// record half persisted; each must recover consistent.
func TestTornEntryReproducers(t *testing.T) {
	for _, line := range []string{
		"kind=tinca boundary=38 evictp=0.5 fault=none seed=3 trace=c:/f0001",
		"kind=tinca boundary=21 evictp=0.5 fault=none ckpt=1 seed=3 trace=c:/f0001",
		"kind=tinca boundary=40 evictp=0.5 fault=none rings=16 seed=3 trace=c:/f0001",
		"kind=tinca boundary=36 evictp=0.5 fault=none l3=1 seed=11 trace=c:/f0001",
	} {
		spec, err := ParseReplaySpec(line)
		if err != nil {
			t.Fatalf("%v\n%s", err, line)
		}
		if _, err := Replay(spec); err != nil {
			t.Errorf("%s: %v", line, err)
		}
	}
}

// TestTraceEncodeDecodeRoundTrip covers the reproducer encoding over the
// full op mix the generator produces.
func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	trace := GenTrace(99, 400)
	line, err := EncodeTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, back) {
		t.Fatal("trace does not round-trip through its encoding")
	}
	// Arbitrary (non-patterned) data must survive via the hex fallback.
	odd := Op{Kind: opWrite, Path: "/x", Off: 7, Data: []byte{1, 1, 2, 3, 5, 8}}
	tok, err := EncodeOp(odd)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tok, "x010102030508") {
		t.Fatalf("non-patterned data not hex-encoded: %q", tok)
	}
	got, err := DecodeOp(tok)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(odd, got) {
		t.Fatalf("op %v decoded as %v", odd, got)
	}
}

// TestReplaySpecRoundTrip pins the full reproducer-line format.
func TestReplaySpecRoundTrip(t *testing.T) {
	spec := ReplaySpec{
		Kind:     stack.Classic,
		Boundary: -1,
		EvictP:   0.25,
		Fault:    core.FaultNone,
		Seed:     1234,
		Trace:    GenTrace(3, 20),
	}
	back, err := ParseReplaySpec(spec.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, spec.String())
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("spec does not round-trip:\n  %s\n  %s", spec.String(), back.String())
	}
	// Checkpointed reproducers must round-trip too — a dropped ckpt=1
	// would replay the failure against the wrong layout and "pass".
	spec.Kind, spec.Ckpt = stack.Tinca, true
	back, err = ParseReplaySpec(spec.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, spec.String())
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("ckpt spec does not round-trip:\n  %s\n  %s", spec.String(), back.String())
	}
	// And multi-ring ones: without rings=4 the replay would seal on the
	// single-ring layout, a different persist stream.
	spec.Rings = 4
	if !strings.Contains(spec.String(), " rings=4 ") {
		t.Fatalf("rings missing from the line: %s", spec.String())
	}
	back, err = ParseReplaySpec(spec.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, spec.String())
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("rings spec does not round-trip:\n  %s\n  %s", spec.String(), back.String())
	}
	// Same for tiered reproducers: without l3=1 the replay would mount
	// a flat disk where the failure needed the tier.
	spec.L3 = true
	back, err = ParseReplaySpec(spec.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, spec.String())
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("l3 spec does not round-trip:\n  %s\n  %s", spec.String(), back.String())
	}
	if _, err := ParseReplaySpec("kind=tinca boundary=1"); err == nil {
		t.Fatal("traceless spec accepted")
	}
	if _, err := ParseReplaySpec("kind=nope trace=c:/f0001"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestRecoveryCrashIdempotence crashes the workload, then keeps crashing
// *recovery itself* at successive persist-op boundaries — re-crashing the
// half-recovered image each time — until a recovery pass runs to
// completion. The final state must still satisfy the before/after oracle:
// recovery must be idempotent under repeated failure.
//
// Recovery only persists when it finds repair work (an interrupted
// transaction or stray log entries), so a workload crash at a quiescent
// boundary yields a persist-free recovery that no armed crash can hit.
// The test therefore spreads workload crashes over many boundaries and
// requires that crashing recovery was exercised at least once overall.
func TestRecoveryCrashIdempotence(t *testing.T) {
	for _, kind := range []stack.Kind{stack.Tinca, stack.Classic} {
		total := 0
		for wb := int64(50); wb <= 1000; wb += 50 {
			total += recoveryCrashScenario(t, kind, wb, false)
		}
		if total == 0 {
			t.Fatalf("%v: no workload boundary produced a crashable recovery; test is vacuous", kind)
		}
		t.Logf("%v: consistent through %d crashes during recovery across workload boundaries", kind, total)
	}
}

// TestRecoveryCrashIdempotenceCheckpointed is the idempotence loop with
// the checkpoint writer at every commit point: the re-crashed images now
// carry a frame plus journal deltas, and each crashed recovery pass must
// leave a state the next checkpoint-aware pass still recovers exactly.
func TestRecoveryCrashIdempotenceCheckpointed(t *testing.T) {
	total := 0
	for wb := int64(50); wb <= 1000; wb += 50 {
		total += recoveryCrashScenario(t, stack.Tinca, wb, true)
	}
	if total == 0 {
		t.Fatal("no workload boundary produced a crashable recovery; test is vacuous")
	}
	t.Logf("consistent through %d crashes during checkpointed recovery", total)
}

// recoveryCrashScenario runs one workload crash at boundary wb, then the
// crash-every-recovery-boundary loop, then the trial's own verify phase.
// It returns how many recovery passes were themselves crashed.
func recoveryCrashScenario(t *testing.T, kind stack.Kind, wb int64, ckpt bool) int {
	t.Helper()
	ex, err := execute(trialSpec{
		cfg:       SweepConfig{Kind: kind, Checkpoint: ckpt},
		traces:    [][]Op{GenTrace(17, 30)},
		boundary:  wb,
		evictP:    0.5,
		imageSeed: wb,
	})
	if err != nil {
		t.Fatalf("%v wb=%d: %v", kind, wb, err)
	}
	s := ex.s

	// Crash recovery at boundary 0, 1, 2, ... of the (progressively
	// re-crashed) image until one pass completes untouched. That pass's
	// image is power-failed too, so verify's own remount is one more
	// recovery of a recovered image.
	reRng := sim.NewRand(wb * 31)
	recoveryCrashes := 0
	for b := int64(0); ; b++ {
		if b > 1_000_000 {
			t.Fatalf("%v wb=%d: recovery never completed", kind, wb)
		}
		var remountErr error
		s.Mem.ArmCrash(b)
		crashed, _ := pmem.CatchCrash(func() { remountErr = s.Remount() })
		s.Mem.DisarmCrash()
		s.Crash(reRng, 0.5)
		if !crashed {
			if remountErr != nil {
				t.Fatalf("%v wb=%d: remount after %d recovery crashes: %v", kind, wb, recoveryCrashes, remountErr)
			}
			break
		}
		recoveryCrashes++
	}

	if err := ex.verify(); err != nil {
		t.Fatalf("%v wb=%d after %d recovery crashes: %v", kind, wb, recoveryCrashes, err)
	}
	return recoveryCrashes
}
