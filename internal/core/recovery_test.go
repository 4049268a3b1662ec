package core

import (
	"bytes"
	"fmt"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/flight"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// ckptOpts returns the checkpoint-at-every-commit option set the tests
// use: IntervalNS 1 means every commit point that finds the interval
// elapsed (i.e. all of them) writes a frame, so armed crash boundaries
// land before, inside, and after checkpoint writes.
func ckptOpts() Options {
	return Options{CheckpointIntervalNS: 1}
}

// TestCheckpointCleanReopen pins the happy path: a checkpointed cache
// that closes cleanly reopens from its newest frame, not a full entry
// scan, and serves the same contents.
func TestCheckpointCleanReopen(t *testing.T) {
	r := newRig(t, 8<<20, ckptOpts())
	for i := uint64(0); i < 40; i++ {
		if err := r.cache.CommitBlocks([]uint64{i, i + 100}, [][]byte{blockOf(byte(i)), blockOf(byte(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.cache.Stats()
	if st.Checkpoints == 0 || st.CheckpointEntries == 0 {
		t.Fatalf("checkpoint writer never ran: %+v", st)
	}
	if st.CheckpointJournalRecs == 0 {
		t.Fatal("no delta-journal records despite 40 commits")
	}
	if err := r.cache.Close(); err != nil {
		t.Fatal(err)
	}

	r.reopen(t, ckptOpts())
	rs := r.cache.RecoveryStats()
	if !rs.Ran || !rs.FromCheckpoint {
		t.Fatalf("reopen did not recover from the checkpoint: %+v", rs)
	}
	if rs.CkptEpoch == 0 {
		t.Fatalf("checkpoint epoch not reported: %+v", rs)
	}
	if rs.Failed {
		t.Fatalf("clean reopen marked failed: %+v", rs)
	}
	for i := uint64(0); i < 40; i++ {
		if got := mustRead(t, r.cache, i); !bytes.Equal(got, blockOf(byte(i))) {
			t.Fatalf("block %d corrupted across checkpointed reopen", i)
		}
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointReopenCompatibility verifies the layout gate: a
// checkpoint-off image reopens with checkpoints off (unchanged layout
// version), and flipping the option across a restart reformats rather
// than misreads the device.
func TestCheckpointReopenCompatibility(t *testing.T) {
	r := newRig(t, 8<<20, Options{})
	// Enough blocks that the old image's data region is populated where
	// the checkpointed layout's entry table will sit, filled with a byte
	// whose low (valid) bit is set so stale data would decode as entries.
	for no := uint64(0); no < 200; no++ {
		if err := r.cache.CommitBlocks([]uint64{no}, [][]byte{blockOf('A')}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.cache.Close(); err != nil {
		t.Fatal(err)
	}
	// Same options: contents survive.
	r.reopen(t, Options{})
	if got := mustRead(t, r.cache, 7); !bytes.Equal(got, blockOf('A')) {
		t.Fatal("checkpoint-off image lost a block across reopen")
	}
	if err := r.cache.Close(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint on over a v1 image: different layout version, so Open
	// must treat the device as unformatted (fresh cache, no stale reads).
	r.reopen(t, ckptOpts())
	rs := r.cache.RecoveryStats()
	if rs.Ran {
		t.Fatalf("layout-version flip did not reformat: %+v", rs)
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// crashRecoverOracle runs workload(c) with a crash armed at boundary k,
// materializes the crash image, reopens with the same options and checks
// invariants. It returns false once k is beyond the workload's persist
// span. acked maps disk block -> last acknowledged fill byte; recovery
// must serve exactly that value for every acked block unless the block
// was part of the single in-flight commit, whose blocks must be all-old
// or all-new.
func crashRecoverOracle(t *testing.T, nvmBytes int, opts Options, k int64,
	workload func(c *Cache, acked map[uint64]byte, inflight func(blocks []uint64, fill byte))) bool {
	t.Helper()
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(nvmBytes, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<20, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	acked := map[uint64]byte{}
	var inBlocks []uint64
	var inFill byte
	mem.ArmCrash(k)
	crashed, _ := pmem.CatchCrash(func() {
		workload(c, acked, func(blocks []uint64, fill byte) {
			inBlocks, inFill = blocks, fill
		})
	})
	if !crashed {
		mem.DisarmCrash()
		return false
	}
	mem.Crash(sim.NewRand(9000+k), 0.5)

	rc, err := Open(mem, disk, opts)
	if err != nil {
		t.Fatalf("k=%d: recovery: %v", k, err)
	}
	if err := rc.CheckInvariants(); err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	rs := rc.RecoveryStats()
	if !rs.Ran || rs.Failed {
		t.Fatalf("k=%d: recovery did not run cleanly: %+v", k, rs)
	}

	// The in-flight commit must be atomic: all its blocks new, or none.
	newCount := 0
	for _, no := range inBlocks {
		if bytes.Equal(mustRead(t, rc, no), blockOf(inFill)) {
			newCount++
		}
	}
	if newCount != 0 && newCount != len(inBlocks) {
		t.Fatalf("k=%d: in-flight commit torn: %d of %d blocks new", k, newCount, len(inBlocks))
	}
	inNew := newCount == len(inBlocks) && len(inBlocks) > 0
	inSet := map[uint64]bool{}
	for _, no := range inBlocks {
		inSet[no] = true
	}
	for no, fill := range acked {
		if inSet[no] && inNew {
			continue // legitimately overwritten by the redone in-flight commit
		}
		if got := mustRead(t, rc, no); !bytes.Equal(got, blockOf(fill)) {
			t.Fatalf("k=%d: acked block %d lost (got %x, want %x)", k, no, got[0], fill)
		}
	}
	return true
}

// TestRecoveryWrappedRing sweeps crash boundaries over a workload whose
// commits wrap a tiny 8-slot ring several times, with the checkpoint
// writer both off and at every commit point — the "on" leg lands
// boundaries mid-frame and mid-journal-record. A wrapped ring means the
// interrupted seal's slots are reused positions; recovery must still
// resolve them through the monotonic Head/Tail pair alone.
func TestRecoveryWrappedRing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{RingBytes: 64}},
		{"ckpt", Options{RingBytes: 64, CheckpointIntervalNS: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			covered := 0
			for k := int64(0); ; k++ {
				ok := crashRecoverOracle(t, 1<<20, tc.opts, k,
					func(c *Cache, acked map[uint64]byte, inflight func([]uint64, byte)) {
						// 10 commits x 3 ring slots over an 8-slot ring: the
						// ring wraps after the third commit and keeps wrapping.
						for i := 0; i < 10; i++ {
							fill := byte('a' + i)
							blocks := []uint64{uint64(i % 4), uint64(4 + i%3), uint64(8 + i)}
							inflight(blocks, fill)
							if err := c.CommitBlocks(blocks, [][]byte{blockOf(fill), blockOf(fill), blockOf(fill)}); err != nil {
								panic(fmt.Sprintf("commit %d: %v", i, err))
							}
							for _, no := range blocks {
								acked[no] = fill
							}
							inflight(nil, 0)
						}
					})
				if !ok {
					if covered < 50 {
						t.Fatalf("sweep covered only %d boundaries; workload too small", covered)
					}
					t.Logf("covered %d boundaries", covered)
					return
				}
				covered++
				if k > 400 {
					k += 17
				}
			}
		})
	}
}

// TestRecoveryFullCapacity crashes a cache whose entry table is
// completely full (every slot valid, evictions already happening), again
// with the checkpoint writer off and at every commit point. Full
// occupancy is the worst case for the scan/rebuild fan-out and for frame
// size (count == capacity), and eviction traffic means the delta journal
// carries clear-entry records too.
func TestRecoveryFullCapacity(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{RingBytes: 4096}},
		{"ckpt", Options{RingBytes: 4096, CheckpointIntervalNS: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Size the workload once: fill well past capacity so the steady
			// state is a full table with evictions.
			probe := newRig(t, 1<<20, tc.opts)
			capBlocks := probe.cache.Capacity()
			total := capBlocks + capBlocks/2
			covered, sawFull := 0, false
			for k := int64(0); ; k++ {
				ok := crashRecoverOracle(t, 1<<20, tc.opts, k,
					func(c *Cache, acked map[uint64]byte, inflight func([]uint64, byte)) {
						for i := 0; i < total; i += 4 {
							fill := byte(i)
							blocks := []uint64{uint64(i), uint64(i + 1), uint64(i + 2), uint64(i + 3)}
							inflight(blocks, fill)
							if err := c.CommitBlocks(blocks, [][]byte{blockOf(fill), blockOf(fill), blockOf(fill), blockOf(fill)}); err != nil {
								panic(fmt.Sprintf("commit %d: %v", i, err))
							}
							// Evicted blocks land on the Null disk, which
							// discards writes — only track blocks that stay
							// resident-recent enough to never be evicted.
							// Keep the oracle to the last capBlocks/2 blocks.
							for _, no := range blocks {
								acked[no] = fill
							}
							for no := range acked {
								if no+uint64(capBlocks/2) < uint64(i) {
									delete(acked, no)
								}
							}
							inflight(nil, 0)
						}
					})
				if !ok {
					if !sawFull {
						t.Fatal("sweep never crashed a full table; workload too small")
					}
					t.Logf("covered %d boundaries at capacity %d", covered, capBlocks)
					return
				}
				covered++
				if covered == 1 {
					sawFull = true
				}
				// The interesting boundaries are late (table already full):
				// stride fast through the fill phase, densely at the end.
				if k < int64(total)*50 {
					k += int64(total) / 2
				} else {
					k += 31
				}
			}
		})
	}
}

// TestRecoverySerialParallelParity is the determinism contract behind the
// shard-parallel fan-out: for every crash boundary of a checkpointed
// workload, recovering with the serialRecovery oracle and with the default
// parallel fan-out must produce bit-identical persistent images, identical block
// contents, and the same final simulated clock. Any hidden ordering
// dependence between recovery workers fails this sweep.
func TestRecoverySerialParallelParity(t *testing.T) {
	runVariant := func(k int64, serial bool) (crashed bool, state, img []byte, now uint64) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(1<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		opts := Options{RingBytes: 4096, CheckpointIntervalNS: 1, serialRecovery: serial}
		c, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatal(err)
		}
		mem.ArmCrash(k)
		crashed, _ = pmem.CatchCrash(func() {
			for i := 0; i < 8; i++ {
				fill := byte('B' + i)
				blocks := []uint64{uint64(i), uint64(16 + i%3), uint64(32 + i)}
				if err := c.CommitBlocks(blocks, [][]byte{blockOf(fill), blockOf(fill), blockOf(fill)}); err != nil {
					panic(fmt.Sprintf("commit %d: %v", i, err))
				}
			}
		})
		if !crashed {
			mem.DisarmCrash()
			return false, nil, nil, 0
		}
		mem.Crash(sim.NewRand(5000+k), 0.5)
		rc, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatalf("k=%d serial=%v recovery: %v", k, serial, err)
		}
		if err := rc.CheckInvariants(); err != nil {
			t.Fatalf("k=%d serial=%v: %v", k, serial, err)
		}
		rs := rc.RecoveryStats()
		if serial && !rs.Ran {
			t.Fatalf("k=%d: no recovery ran", k)
		}
		for i := uint64(0); i < 48; i++ {
			state = append(state, mustRead(t, rc, i)...)
		}
		return true, state, mem.SnapshotPersist(), uint64(clock.Now())
	}

	for k := int64(0); ; k++ {
		pc, pState, pImg, pNow := runVariant(k, false)
		sc, sState, sImg, sNow := runVariant(k, true)
		if pc != sc {
			t.Fatalf("k=%d: parallel crashed=%v but serial crashed=%v", k, pc, sc)
		}
		if !pc {
			t.Logf("parity sweep covered %d boundaries", k)
			return
		}
		if pNow != sNow {
			t.Fatalf("k=%d: recovery charged different simulated time: parallel %d, serial %d", k, pNow, sNow)
		}
		if !bytes.Equal(pImg, sImg) {
			t.Fatalf("k=%d: post-recovery persistent images differ between serial and parallel recovery", k)
		}
		if !bytes.Equal(pState, sState) {
			t.Fatalf("k=%d: recovered block contents differ between serial and parallel recovery", k)
		}
		if k > 500 {
			k += 23
		}
	}
}

// TestRecoveryFailureSurfaced corrupts the persistent Tail pointer past
// Head and verifies the satellite contract for a recovery that gives up:
// Open returns the structural error AND the flight ring carries a
// terminal recover-fail event with the matching code, so a dead restart
// is diagnosable from the image alone.
func TestRecoveryFailureSurfaced(t *testing.T) {
	r := newRig(t, 8<<20, Options{FlightRecorder: true})
	commitSome(t, r.cache, 1, 5)
	lay := r.cache.Layout()
	if err := r.cache.Close(); err != nil {
		t.Fatal(err)
	}
	// Tail is read as the max over its rotation slots; one poisoned slot
	// beyond Head is enough.
	r.mem.Persist8(lay.TailOff, 1<<40)

	if _, err := Open(r.mem, r.disk, Options{FlightRecorder: true}); err == nil {
		t.Fatal("Open accepted an image with Tail beyond Head")
	}
	bb := flight.Decode(r.mem, lay.FlightOff, lay.FlightSlots)
	if !bb.RecoverFailed {
		t.Fatal("failed recovery left no recover-fail flight record")
	}
	if bb.RecoverFailCode != recFailHeadBehindTail {
		t.Fatalf("recover-fail code = %d, want %d", bb.RecoverFailCode, recFailHeadBehindTail)
	}
	var buf bytes.Buffer
	if err := bb.Report(&buf, 16); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("RECOVERY FAILED")) {
		t.Fatalf("blackbox report does not surface the failure:\n%s", buf.String())
	}
}

// TestCheckpointConcurrentCommits exercises the checkpoint writer under
// the concurrent group-commit path (the race-detector matrix runs this
// package with -race): many goroutines committing while every batch
// close fires a frame write and evictions append journal deltas from
// shard-locked contexts.
func TestCheckpointConcurrentCommits(t *testing.T) {
	r := newRig(t, 8<<20, ckptOpts())
	commitSome(t, r.cache, 4, 30)
	st := r.cache.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints under concurrent commits")
	}
	if err := r.cache.Close(); err != nil {
		t.Fatal(err)
	}
	r.reopen(t, ckptOpts())
	if rs := r.cache.RecoveryStats(); !rs.FromCheckpoint {
		t.Fatalf("reopen after concurrent commits did not use the checkpoint: %+v", rs)
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
