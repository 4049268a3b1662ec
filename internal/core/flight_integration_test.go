package core

import (
	"testing"

	"tinca/internal/flight"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// TestFlightBlackboxSurvivesCrash drives commits with the recorder on,
// power-fails the device, and checks that the reopened cache decodes a
// coherent pre-crash timeline: the window invariant holds, the last
// sealed generation matches the commit count, and recovery both appended
// its own phase events and populated RecoveryStats.
func TestFlightBlackboxSurvivesCrash(t *testing.T) {
	r := newRig(t, 8<<20, Options{FlightRecorder: true})
	commitSome(t, r.cache, 1, 20)
	preSeq := r.cache.Blackbox().MaxSeq

	r.mem.Crash(sim.NewRand(42), 0.5)
	r.reopen(t, Options{FlightRecorder: true})

	rs := r.cache.RecoveryStats()
	if !rs.Ran {
		t.Fatal("reopen did not run recovery")
	}
	if rs.TotalNS < rs.ScanNS+rs.RedoNS+rs.UndoNS+rs.RebuildNS {
		t.Fatalf("phase durations exceed total: %+v", rs)
	}
	if rs.EntriesScanned == 0 || rs.Resident == 0 {
		t.Fatalf("no entries survived 20 commits: %+v", rs)
	}

	bb := r.cache.Blackbox()
	if bb == nil {
		t.Fatal("no blackbox after reopen")
	}
	if err := bb.CheckWindow(); err != nil {
		t.Fatalf("window invariant broken after crash: %v", err)
	}
	if bb.MaxSeq <= preSeq {
		t.Fatalf("recovery appended no events: pre-crash seq %d, post %d", preSeq, bb.MaxSeq)
	}
	if bb.LastSealedGen != 20 {
		t.Fatalf("last sealed generation = %d, want 20", bb.LastSealedGen)
	}
	var phases []flight.EventType
	sawRedo := false
	for _, rec := range bb.Records {
		switch rec.Type {
		case flight.EvRecoverRedo:
			sawRedo = true
		case flight.EvRecoverBegin, flight.EvRecoverScan,
			flight.EvRecoverUndo, flight.EvRecoverRebuild, flight.EvRecoverDone:
			phases = append(phases, rec.Type)
		}
	}
	if len(phases) != 5 || phases[0] != flight.EvRecoverBegin || phases[4] != flight.EvRecoverDone {
		t.Fatalf("recovery phase events out of order or missing: %v", phases)
	}
	// EvRecoverRedo is emitted exactly when the redo branch ran — a
	// zero-length record for a branch that never executed would pollute
	// the timeline (see the matching observe_test assertion).
	if sawRedo != rs.Redo {
		t.Fatalf("EvRecoverRedo presence %v does not match rs.Redo %v", sawRedo, rs.Redo)
	}
}

// TestFlightLayoutCompatibility pins down the layout contract: with the
// recorder off the layout is byte-identical to the paper's Figure 5 (no
// flight region, same entry/data offsets), and turning it on inserts
// exactly DefaultSlots records between the ring and the entry table.
func TestFlightLayoutCompatibility(t *testing.T) {
	off, err := ComputeLayout(8<<20, LayoutParams{PtrSlots: DefaultPtrSlots})
	if err != nil {
		t.Fatal(err)
	}
	if off.FlightSlots != 0 || off.FlightOff != off.EntryOff {
		t.Fatalf("flight region present with recorder off: %+v", off)
	}
	on, err := ComputeLayout(8<<20, LayoutParams{PtrSlots: DefaultPtrSlots, FlightSlots: flight.DefaultSlots})
	if err != nil {
		t.Fatal(err)
	}
	if on.EntryOff != off.EntryOff+flight.DefaultSlots*pmem.LineSize {
		t.Fatalf("entry table not shifted by the flight region: off=%d on=%d", off.EntryOff, on.EntryOff)
	}
	if on.Capacity >= off.Capacity {
		t.Fatalf("flight region cost no capacity: %d vs %d", on.Capacity, off.Capacity)
	}
	if off.Capacity-on.Capacity > 8 {
		t.Fatalf("flight region too expensive: lost %d blocks", off.Capacity-on.Capacity)
	}

	// A recorder-off cache reports no blackbox and a recorder-on reopen of
	// a recorder-on image attaches to (not reformats) the existing ring.
	r := newRig(t, 8<<20, Options{})
	if r.cache.Blackbox() != nil {
		t.Fatal("blackbox without a flight recorder")
	}
	if err := r.cache.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := newRig(t, 8<<20, Options{FlightRecorder: true})
	commitSome(t, r2.cache, 1, 5)
	seq := r2.cache.Blackbox().MaxSeq
	if err := r2.cache.Close(); err != nil {
		t.Fatal(err)
	}
	r2.reopen(t, Options{FlightRecorder: true})
	if got := r2.cache.Blackbox().MaxSeq; got <= seq {
		t.Fatalf("reopen did not continue the flight sequence: %d then %d", seq, got)
	}
}
