package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// mrOpts is the multi-ring option set the tests use: 4 commit rings over
// a ring region small enough (8 slots per ring) that every ring wraps
// several times within a short workload.
func mrOpts() Options {
	return Options{CommitRings: 4, RingBytes: 512}
}

// TestMultiRingStress hammers a CommitRings=16 cache with 16 disjoint-
// shard committers (one private ring each), a cross-shard committer, the
// watermark evictor, and the checkpoint writer firing at every commit
// point — the full concurrency matrix of DESIGN.md §8, run under -race
// in CI. Afterwards the per-ring counters must account for every seal,
// invariants must hold, and a clean reopen must serve the data back.
func TestMultiRingStress(t *testing.T) {
	opts := Options{CommitRings: 16, CheckpointIntervalNS: 1}
	r := newRig(t, 8<<20, opts)
	const workers, per = 16, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := r.cache.Begin()
				if i%8 == 7 {
					// Cross-shard: four consecutive blocks span four rings
					// and take the multi-ring seal in index order. The
					// 256+ range never collides with the disjoint writes.
					for b := uint64(0); b < 4; b++ {
						txn.Write(256+uint64(w)*4+b, blockOf(byte(w)))
					}
				} else {
					// Disjoint shards: worker w only touches blocks ≡ w
					// (mod 16), so these seals ride worker w's private ring.
					txn.Write(uint64(w+16*(i%8)), blockOf(byte(i)))
					txn.Write(uint64(w+16*(8+i%4)), blockOf(byte(i)))
				}
				if err := txn.Commit(); err != nil {
					panic(fmt.Sprintf("worker %d: %v", w, err))
				}
			}
		}()
	}
	wg.Wait()

	st := r.cache.Stats()
	if len(st.RingSeals) != 16 {
		t.Fatalf("RingSeals has %d rings, want 16", len(st.RingSeals))
	}
	var seals int64
	for _, n := range st.RingSeals {
		seals += n
	}
	if seals == 0 {
		t.Fatal("no per-ring seals recorded")
	}
	if st.CrossShardTxns == 0 {
		t.Fatal("no cross-shard transactions recorded despite multi-ring writes")
	}
	if st.Checkpoints == 0 {
		t.Fatal("checkpoint writer never ran under multi-ring commits")
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.Close(); err != nil {
		t.Fatal(err)
	}
	r.reopen(t, opts)
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Spot-check the last cross-shard batch of every worker.
	for w := 0; w < workers; w++ {
		for b := uint64(0); b < 4; b++ {
			if got := mustRead(t, r.cache, 256+uint64(w)*4+b); !bytes.Equal(got, blockOf(byte(w))) {
				t.Fatalf("worker %d cross-shard block %d corrupted across reopen", w, b)
			}
		}
	}
}

// TestMultiRingWrappedBoundarySweep sweeps crash boundaries over a
// multi-ring workload whose per-shard commits wrap every one of the four
// 8-slot rings, interleaved with cross-ring commits that seal several
// rings under one generation. Recovery must resolve reused per-ring slot
// positions through each ring's monotonic Head/Tail pair and keep every
// commit atomic — including the cross-ring ones, whose torn phase-E
// window (some Tails flipped, some not) rolls forward.
func TestMultiRingWrappedBoundarySweep(t *testing.T) {
	workload := func(c *Cache, acked map[uint64]byte, inflight func([]uint64, byte)) {
		for i := 0; i < 20; i++ {
			fill := byte('a' + i)
			var blocks []uint64
			if i%5 == 4 {
				// Cross-ring: four consecutive shards, four rings, one gen.
				blocks = []uint64{uint64(i), uint64(i + 1), uint64(i + 2), uint64(i + 3)}
			} else {
				// Same ring (mod 4): three slots per seal on ring i%4, so
				// each ring's 8 slots wrap after three of these (i%5 != 4
				// gives every ring four such seals over the 20 commits).
				s := uint64(i % 4)
				blocks = []uint64{s, s + 16, s + 32 + uint64(16*(i/4))}
			}
			inflight(blocks, fill)
			bufs := make([][]byte, len(blocks))
			for j := range bufs {
				bufs[j] = blockOf(fill)
			}
			if err := c.CommitBlocks(blocks, bufs); err != nil {
				panic(fmt.Sprintf("commit %d: %v", i, err))
			}
			for _, no := range blocks {
				acked[no] = fill
			}
			inflight(nil, 0)
		}
	}

	// The workload must actually wrap each ring: verify on a crash-free run.
	probe := newRig(t, 1<<20, mrOpts())
	workload(probe.cache, map[uint64]byte{}, func([]uint64, byte) {})
	heads, _ := probe.cache.RingPointers()
	slots := uint64(probe.cache.Layout().RingSlots)
	for ring, h := range heads {
		if h <= slots {
			t.Fatalf("ring %d head %d never wrapped its %d slots; workload too small", ring, h, slots)
		}
	}
	if err := probe.cache.Close(); err != nil {
		t.Fatal(err)
	}

	covered := 0
	for k := int64(0); ; k++ {
		if !crashRecoverOracle(t, 1<<20, mrOpts(), k, workload) {
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
}

// TestMultiRingSerialParallelParity is the §8 determinism contract: for
// every crash boundary of a checkpointed multi-ring workload, recovering
// with the serialRecovery oracle and with the default parallel fan-out
// must produce bit-identical persistent images, identical block contents, the same
// final simulated clock, and the same restored generation clock. The
// generation-merged replay (per-ring scan + ascending-gen apply) must be
// indistinguishable from any serial schedule.
func TestMultiRingSerialParallelParity(t *testing.T) {
	runVariant := func(k int64, serial bool) (crashed bool, state, img []byte, now, gen uint64) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(1<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		opts := Options{CommitRings: 4, RingBytes: 2048, CheckpointIntervalNS: 1, serialRecovery: serial}
		c, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatal(err)
		}
		mem.ArmCrash(k)
		crashed, _ = pmem.CatchCrash(func() {
			for i := 0; i < 8; i++ {
				fill := byte('B' + i)
				var blocks []uint64
				if i%2 == 1 {
					blocks = []uint64{uint64(i), uint64(i + 1), uint64(i + 2)} // cross-ring
				} else {
					s := uint64(i % 4)
					blocks = []uint64{s, s + 16, s + 32} // single ring
				}
				if err := c.CommitBlocks(blocks, [][]byte{blockOf(fill), blockOf(fill), blockOf(fill)}); err != nil {
					panic(fmt.Sprintf("commit %d: %v", i, err))
				}
			}
		})
		if !crashed {
			mem.DisarmCrash()
			return false, nil, nil, 0, 0
		}
		mem.Crash(sim.NewRand(5000+k), 0.5)
		rc, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatalf("k=%d serial=%v recovery: %v", k, serial, err)
		}
		if err := rc.CheckInvariants(); err != nil {
			t.Fatalf("k=%d serial=%v: %v", k, serial, err)
		}
		for i := uint64(0); i < 48; i++ {
			state = append(state, mustRead(t, rc, i)...)
		}
		return true, state, mem.SnapshotPersist(), uint64(clock.Now()), rc.gen.Load()
	}

	for k := int64(0); ; k++ {
		pc, pState, pImg, pNow, pGen := runVariant(k, false)
		sc, sState, sImg, sNow, sGen := runVariant(k, true)
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
		if pGen != sGen {
			t.Fatalf("k=%d: restored generation clock differs: parallel %d, serial %d", k, pGen, sGen)
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
