package core

import (
	"sync"
	"testing"

	"tinca/internal/metrics"
)

func commitSome(t *testing.T, c *Cache, workers, perWorker int) {
	t.Helper()
	var wg sync.WaitGroup
	block := blockOf(0xAB)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				txn := c.Begin()
				txn.Write(uint64(w*perWorker+i)%64, block)
				txn.Write(uint64(w), block)
				if err := txn.Commit(); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
}

func TestObservePhaseHistograms(t *testing.T) {
	r := newRig(t, 8<<20, Options{Observe: true})
	commitSome(t, r.cache, 4, 30)

	st := r.cache.Stats()
	if st.CommitLatency.Count != 120 {
		t.Fatalf("commit latency count = %d", st.CommitLatency.Count)
	}
	if st.CommitLatency.P50NS <= 0 || st.CommitLatency.MaxNS < st.CommitLatency.P50NS {
		t.Fatalf("implausible commit latency %+v", st.CommitLatency)
	}
	if len(st.CommitPhases) == 0 {
		t.Fatal("no commit phases reported")
	}
	seen := map[string]LatencySummaryCheck{}
	for _, p := range st.CommitPhases {
		seen[p.Phase] = LatencySummaryCheck{p.Count, p.MaxNS}
	}
	// Every pipeline phase must have one sample per seal.
	seals := seen[metrics.HistCommitSeal.String()].Count
	if seals == 0 {
		t.Fatalf("no seals observed: %v", seen)
	}
	for _, h := range []metrics.Hist{
		metrics.HistCommitWait, metrics.HistCommitData, metrics.HistCommitEntries,
		metrics.HistCommitRing, metrics.HistCommitSwitch, metrics.HistCommitTail,
	} {
		if name := h.String(); seen[name].Count != seals {
			t.Fatalf("phase %s has %d samples, want %d (one per seal); phases=%v", name, seen[name].Count, seals, seen)
		}
	}
	// The data phase writes blocks to NVM, so it must be the dominant one.
	if seen[metrics.HistCommitData.String()].MaxNS <= seen[metrics.HistCommitTail.String()].MaxNS {
		t.Fatalf("data phase (%d) not dominating tail flip (%d)",
			seen[metrics.HistCommitData.String()].MaxNS, seen[metrics.HistCommitTail.String()].MaxNS)
	}

	// A fresh device formats; reopening the same device runs (and times)
	// the Section 4.5 recovery pass.
	if err := r.cache.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r.reopen(t, Options{Observe: true})
	if n := r.rec.HistSnapshot(metrics.HistRecovery).Count; n != 1 {
		t.Fatalf("recovery samples = %d", n)
	}
	// A clean reopen never runs the redo branch, so the redo histogram
	// must stay empty: a zero-length sample here would also mean a
	// zero-length span polluting Chrome traces (the gated-redo fix).
	if n := r.rec.HistSnapshot(metrics.HistRecoveryRedo).Count; n != 0 {
		t.Fatalf("redo phase recorded %d samples on a clean reopen, want 0", n)
	}
	// NVM flush/fence cadence histograms are only armed via pmem
	// Observe(), which the stack layer wires; the rig leaves them off.
}

type LatencySummaryCheck struct {
	Count int64
	MaxNS int64
}

func TestObserveOffIsFree(t *testing.T) {
	r := newRig(t, 8<<20, Options{})
	commitSome(t, r.cache, 2, 10)
	st := r.cache.Stats()
	if st.CommitLatency.Count != 0 || len(st.CommitPhases) != 0 {
		t.Fatalf("observability off but stats populated: %+v", st.CommitLatency)
	}
	if hs := r.rec.HistSnapshots(); len(hs) != 0 {
		t.Fatalf("histograms registered without Observe: %v", hs)
	}
}

func TestObserveDoesNotPerturbSimulation(t *testing.T) {
	// Same workload with and without observability must charge the exact
	// same simulated time and counters: instrumentation is deltas only.
	run := func(opts Options) (int64, int64) {
		r := newRig(t, 8<<20, opts)
		commitSome(t, r.cache, 1, 50)
		if err := r.cache.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return int64(r.clock.Now()), r.rec.Get(metrics.NVMCLFlush)
	}
	t0, f0 := run(Options{})
	t1, f1 := run(Options{Observe: true})
	if t0 != t1 || f0 != f1 {
		t.Fatalf("observe changed the simulation: time %d vs %d, clflush %d vs %d", t0, t1, f0, f1)
	}
	// The flight recorder's persists are silent (no clock, no counters), so
	// flying with the black box on must also be bit-identical — that is the
	// contract that lets every figure and every crash-sweep trial keep the
	// recorder enabled.
	t2, f2 := run(Options{FlightRecorder: true})
	if t0 != t2 || f0 != f2 {
		t.Fatalf("flight recorder changed the simulation: time %d vs %d, clflush %d vs %d", t0, t2, f0, f2)
	}
	t3, f3 := run(Options{FlightRecorder: true, Observe: true})
	if t0 != t3 || f0 != f3 {
		t.Fatalf("flight recorder + observe changed the simulation: time %d vs %d, clflush %d vs %d", t0, t3, f0, f3)
	}
}

// TestFlightRecorderDeterministic proves the stronger property the figure
// pipeline relies on: the full counter snapshot — not just time and
// flushes — is identical with the recorder on and off, and two flights of
// the same workload decode to the same event sequence.
func TestFlightRecorderDeterministic(t *testing.T) {
	run := func(opts Options) (metrics.Snapshot, *Cache) {
		r := newRig(t, 8<<20, opts)
		commitSome(t, r.cache, 1, 50)
		if err := r.cache.FlushAll(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		return r.rec.Snapshot(), r.cache
	}
	off, _ := run(Options{})
	on, c1 := run(Options{FlightRecorder: true})
	for k := range on {
		if on[k] != off[k] {
			t.Errorf("counter %s: %d with recorder on, %d off", metrics.Counter(k), on[k], off[k])
		}
	}
	on2, c2 := run(Options{FlightRecorder: true})
	for k := range on2 {
		if on[k] != on2[k] {
			t.Errorf("counter %s: %d vs %d across identical flights", metrics.Counter(k), on[k], on2[k])
		}
	}
	bb1, bb2 := c1.Blackbox(), c2.Blackbox()
	if bb1 == nil || bb2 == nil {
		t.Fatal("no blackbox from a flight-recorded cache")
	}
	if len(bb1.Records) == 0 {
		t.Fatal("flight ring empty after 50 commits")
	}
	if len(bb1.Records) != len(bb2.Records) {
		t.Fatalf("flights diverged: %d vs %d records", len(bb1.Records), len(bb2.Records))
	}
	for i := range bb1.Records {
		if bb1.Records[i] != bb2.Records[i] {
			t.Fatalf("flight record %d diverged: %v vs %v", i, bb1.Records[i], bb2.Records[i])
		}
	}
}

func TestTracerSpansFromCommits(t *testing.T) {
	tr := metrics.NewTracer(1 << 12)
	r := newRig(t, 8<<20, Options{Tracer: tr}) // Tracer implies Observe
	commitSome(t, r.cache, 2, 20)

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
		if s.DurNS < 0 || s.StartNS < 0 {
			t.Fatalf("negative span %+v", s)
		}
	}
	for _, want := range []string{spanData, spanTail, spanSeal, spanCommit} {
		if byName[want] == 0 {
			t.Fatalf("no %q spans; have %v", want, byName)
		}
	}
	// One whole-commit span per transaction.
	if byName[spanCommit] != 40 {
		t.Fatalf("commit spans = %d, want 40 (%v)", byName[spanCommit], byName)
	}
	// Spans carry the committing goroutine id.
	for _, s := range spans {
		if s.Name == spanSeal && s.G == 0 {
			t.Fatalf("seal span without goroutine id: %+v", s)
		}
	}
}
