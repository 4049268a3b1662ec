package core

import (
	"fmt"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// TestCrashDuringCommitIsAtomic is the core correctness property of the
// paper (Section 4.5): crash the commit protocol at *every* operation
// boundary, materialize an adversarial crash image (a random subset of
// un-flushed lines persists), recover, and require that the transaction is
// all-or-nothing and all structural invariants hold. It runs on the
// paper's layout, with pointer wear-leveling (the rotated Head/Tail
// encoding must keep the same recovery semantics) and under both
// ablations, whose cost hooks must not weaken the seal.
func TestCrashDuringCommitIsAtomic(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"default", Options{RingBytes: 4096}},
		{"rotate-pointers", Options{RingBytes: 4096, RotatePointers: true}},
		{"double-write", Options{RingBytes: 4096, Ablation: AblationDoubleWrite}},
		{"ubj", Options{RingBytes: 4096, Ablation: AblationUBJ}},
	}
	for _, evictP := range []float64{0, 0.5, 1} {
		evictP := evictP
		t.Run(fmt.Sprintf("evictP=%v", evictP), func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) { crashCommitSweep(t, tc.opts, evictP) })
			}
		})
	}
}

// crashCommitSweep is one TestCrashDuringCommitIsAtomic case: arm the
// crash at k = 0, 1, 2, ... persist ops into the victim commit until the
// commit completes unharmed.
func crashCommitSweep(t *testing.T, opts Options, evictP float64) {
	rng := sim.NewRand(42)
	for k := int64(0); ; k++ {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(1<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		c, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Baseline state: blocks 0..5 hold 'A'; blocks 3..5 are cache
		// hits for the victim transaction (exercising COW), blocks 6..8
		// are misses (exercising FRESH revocation).
		setup := c.Begin()
		for i := uint64(0); i < 6; i++ {
			setup.Write(i, blockOf('A'))
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}

		victimBlocks := []uint64{3, 4, 5, 6, 7, 8}
		mem.ArmCrash(k)
		victim := c.Begin()
		for _, no := range victimBlocks {
			victim.Write(no, blockOf('B'))
		}
		var commitErr error
		crashed, _ := pmem.CatchCrash(func() { commitErr = victim.Commit() })

		if !crashed {
			mem.DisarmCrash()
			if commitErr != nil {
				t.Fatalf("k=%d commit failed without crash: %v", k, commitErr)
			}
			// The commit completed before the crash point: we have
			// covered every boundary inside the protocol. Verify the
			// committed state one last time and stop.
			verifyAtomic(t, mem, disk, opts, victimBlocks, k, true)
			t.Logf("protocol covered in %d operations", k)
			return
		}

		// Power failure: persistent image plus random evictions.
		mem.Crash(rng, evictP)
		verifyAtomic(t, mem, disk, opts, victimBlocks, k, false)
	}
}

// verifyAtomic reopens the cache with opts (running recovery), checks
// invariants, and requires blocks to be all-old or all-new. When mustNew
// is true the commit was acknowledged, so only the new state is
// acceptable.
func verifyAtomic(t *testing.T, mem *pmem.Device, disk *blockdev.Device, opts Options, victims []uint64, k int64, mustNew bool) {
	t.Helper()
	c, err := Open(mem, disk, opts)
	if err != nil {
		t.Fatalf("k=%d recovery: %v", k, err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("k=%d after recovery: %v", k, err)
	}

	// Blocks 0..2 were untouched by the victim transaction.
	for i := uint64(0); i < 3; i++ {
		if got := mustRead(t, c, i)[0]; got != 'A' {
			t.Fatalf("k=%d untouched block %d = %q", k, i, got)
		}
	}

	sawNew, sawOld := false, false
	for _, no := range victims {
		got := mustRead(t, c, no)[0]
		switch {
		case got == 'B':
			sawNew = true
		case got == 'A' && no < 6: // pre-existing blocks roll back to 'A'
			sawOld = true
		case got == 0 && no >= 6: // fresh blocks roll back to absent (zero)
			sawOld = true
		default:
			t.Fatalf("k=%d block %d = %q (neither old nor new)", k, no, got)
		}
	}
	if sawNew && sawOld {
		t.Fatalf("k=%d transaction torn: mixed old and new blocks", k)
	}
	if mustNew && sawOld {
		t.Fatalf("k=%d acknowledged commit lost", k)
	}

	// The recovered cache must stay fully functional.
	post := c.Begin()
	post.Write(100, blockOf('C'))
	if err := post.Commit(); err != nil {
		t.Fatalf("k=%d post-recovery commit: %v", k, err)
	}
	if got := mustRead(t, c, 100)[0]; got != 'C' {
		t.Fatalf("k=%d post-recovery read: %q", k, got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("k=%d post-recovery invariants: %v", k, err)
	}
}

// TestCrashDuringEviction crashes at every boundary of an eviction-heavy
// workload: committed data must never be lost even when the crash hits a
// write-back.
func TestCrashDuringEviction(t *testing.T) {
	rng := sim.NewRand(7)
	// A tiny cache forces constant eviction.
	for k := int64(0); ; k++ {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(256<<10, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		c, err := Open(mem, disk, Options{RingBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		capacity := c.Capacity()
		total := capacity * 2

		// Commit blocks one at a time; acked values are the oracle.
		acked := make(map[uint64]byte)
		mem.ArmCrash(k)
		crashed, _ := pmem.CatchCrash(func() {
			for i := 0; i < total; i++ {
				txn := c.Begin()
				v := byte(i%250) + 1
				txn.Write(uint64(i), blockOf(v))
				if err := txn.Commit(); err != nil {
					panic(fmt.Sprintf("commit %d: %v", i, err))
				}
				acked[uint64(i)] = v
			}
		})
		if !crashed {
			mem.DisarmCrash()
			t.Logf("eviction workload covered in %d operations", k)
			return
		}
		mem.Crash(rng, 0.5)
		rc, err := Open(mem, disk, Options{RingBytes: 512})
		if err != nil {
			t.Fatalf("k=%d recovery: %v", k, err)
		}
		if err := rc.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for no, want := range acked {
			if got := mustRead(t, rc, no)[0]; got != want {
				t.Fatalf("k=%d acked block %d = %d, want %d", k, no, got, want)
			}
		}
		// Skip to coarser steps once past the interesting prefix to keep
		// the test fast; eviction operations repeat the same pattern.
		if k > 2000 {
			k += 97
		}
	}
}

// TestRotatingPointersSpreadWear verifies the endurance payoff: the
// hottest pointer line's wear drops by roughly the rotation factor.
func TestRotatingPointersSpreadWear(t *testing.T) {
	hottest := func(rotate bool) uint32 {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(1<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		c, err := Open(mem, disk, Options{RingBytes: 4096, RotatePointers: rotate})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			txn := c.Begin()
			txn.Write(uint64(i%50), blockOf(byte(i)))
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		_, max := mem.Wear()
		return max
	}
	fixed, rotated := hottest(false), hottest(true)
	if rotated*4 > fixed {
		t.Fatalf("rotation did not spread wear: fixed=%d rotated=%d", fixed, rotated)
	}
}
