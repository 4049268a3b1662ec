package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// wordBlock returns a block whose every 8-byte word is the little-endian
// encoding of v. A lock-free reader that observes two different words in
// one block has performed a torn read — exactly what the seqlock protocol
// (readfast.go) must make impossible.
func wordBlock(v uint64) []byte {
	p := make([]byte, BlockSize)
	for off := 0; off < BlockSize; off += 8 {
		binary.LittleEndian.PutUint64(p[off:], v)
	}
	return p
}

// TestReadHitSeqlockStress is the -race exercise for the lock-free read
// hit path: 8 readers hammer a small hot set while (a) one committer keeps
// rewriting those same blocks through COW redirects and group seals,
// (b) a cold scanner streams through more blocks than the cache holds so
// slots are constantly reclaimed, and (c) in the evictor case the
// background evictor writes dirty victims back and tears their slots
// down off the allocating goroutine, under the readers. Three oracles:
//
//  1. every block read is word-uniform (no torn read),
//  2. per reader, the value seen for a given block never decreases
//     (committed values are monotone and stay visible), and
//  3. no reader sees a value from a commit that has not started yet.
func TestReadHitSeqlockStress(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"write-back", Options{RingBytes: 4096}},
		{"evictor", Options{RingBytes: 4096, EvictLowWater: 16}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			clock := sim.NewClock()
			rec := metrics.NewRecorder()
			mem := pmem.New(1<<20, pmem.NVDIMM, clock, rec)
			disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
			c, err := Open(mem, disk, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}

			const (
				readers   = 8
				hotSpan   = 16
				readsEach = 3000
				coldBase  = 1000
			)
			coldSpan := c.Capacity() // cold stream alone overflows the cache
			var started atomic.Int64 // commits begun; upper bound for any visible value
			var stop atomic.Bool
			var readerWG, auxWG sync.WaitGroup

			for g := 0; g < readers; g++ {
				g := g
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					rng := sim.NewRand(int64(300 + g))
					last := make([]uint64, hotSpan)
					p := make([]byte, BlockSize)
					for i := 0; i < readsEach; i++ {
						b := rng.Intn(hotSpan)
						if err := c.Read(uint64(b), p); err != nil {
							panic(fmt.Sprintf("reader %d: %v", g, err))
						}
						v := binary.LittleEndian.Uint64(p)
						for off := 8; off < BlockSize; off += 8 {
							if w := binary.LittleEndian.Uint64(p[off:]); w != v {
								panic(fmt.Sprintf("reader %d: torn read of block %d: word[0]=%d word[%d]=%d",
									g, b, v, off/8, w))
							}
						}
						if s := started.Load(); v > uint64(s) {
							panic(fmt.Sprintf("reader %d: block %d = %d but only %d commits started",
								g, b, v, s))
						}
						if v < last[b] {
							panic(fmt.Sprintf("reader %d: block %d went backwards: %d after %d",
								g, b, v, last[b]))
						}
						last[b] = v
					}
				}()
			}

			// Committer: value n rewrites hot block n%hotSpan; each commit
			// COWs the block (log-role window + seal) under the readers.
			auxWG.Add(1)
			go func() {
				defer auxWG.Done()
				for n := 1; !stop.Load(); n++ {
					v := started.Add(1)
					tx := c.Begin()
					tx.Write(uint64(n%hotSpan), wordBlock(uint64(v)))
					if err := tx.Commit(); err != nil {
						panic(fmt.Sprintf("writer: %v", err))
					}
				}
			}()

			// Cold scanner: misses force fills and evictions, so readers
			// race slot teardown/reuse, not just in-place mutation.
			auxWG.Add(1)
			go func() {
				defer auxWG.Done()
				p := make([]byte, BlockSize)
				for n := 0; !stop.Load(); n++ {
					if err := c.Read(uint64(coldBase+n%coldSpan), p); err != nil {
						panic(fmt.Sprintf("scanner: %v", err))
					}
				}
			}()

			readerWG.Wait()
			// The evictor case asserts a background pass ran: keep the
			// scanner missing until one has, instead of racing the readers.
			for deadline := time.Now().Add(10 * time.Second); cfg.opts.EvictLowWater > 0 &&
				c.Stats().BgEvictions == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			stop.Store(true)
			auxWG.Wait()

			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.ReadHitFast == 0 {
				t.Fatalf("fast path never taken: %+v", st)
			}
			if st.ReadHitFast+st.ReadHitSlow != st.ReadHits {
				t.Fatalf("fast %d + slow %d != hits %d", st.ReadHitFast, st.ReadHitSlow, st.ReadHits)
			}
			if cfg.opts.EvictLowWater > 0 && st.BgEvictions == 0 {
				t.Fatalf("background evictor never reclaimed: %+v", st)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashSweepFastPathParity re-runs a per-boundary crash sweep twice at
// every boundary — once with the seqlock fast path (the default) and once
// with the lockedReadHit oracle — and requires the recovered caches to be
// byte-identical. The fast path performs no persistence-relevant
// operations (loads only), so the crash boundary, the adversarial crash
// image, and the recovered state must all be independent of which hit
// path the pre-crash workload used. On the run that completes without a
// crash the two paths must also leave the simulated clock at the same
// instant: a fast hit charges exactly what a locked hit does.
func TestCrashSweepFastPathParity(t *testing.T) {
	const span = 6 // hot blocks the workload commits to and reads back

	// runVariant executes the workload with an armed crash at boundary k,
	// returns crashed=false once k is past the protocol's end, and
	// otherwise materializes the crash image (seeded per boundary, so both
	// variants draw identical eviction decisions), recovers, and returns
	// the recovered values of every block plus the persistent image. now is
	// the simulated clock at the end of the workload on an uncrashed run.
	runVariant := func(k int64, locked bool) (crashed bool, state []byte, img []byte, now int64) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(1<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		opts := Options{RingBytes: 4096, lockedReadHit: locked}
		c, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatal(err)
		}
		setup := c.Begin()
		for i := uint64(0); i < span; i++ {
			setup.Write(i, blockOf('A'))
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}

		mem.ArmCrash(k)
		crashed, _ = pmem.CatchCrash(func() {
			p := make([]byte, BlockSize)
			for i := 0; i < span; i++ {
				tx := c.Begin()
				tx.Write(uint64(i), blockOf(byte('B'+i)))
				if err := tx.Commit(); err != nil {
					panic(fmt.Sprintf("commit %d: %v", i, err))
				}
				// Interleave hits so the crash can land with readers' state
				// (touch ring, atime stamps) differing between the paths.
				for j := 0; j <= i; j++ {
					if err := c.Read(uint64(j), p); err != nil {
						panic(fmt.Sprintf("read %d: %v", j, err))
					}
				}
			}
		})
		if !crashed {
			mem.DisarmCrash()
			return false, nil, nil, int64(clock.Now())
		}
		mem.Crash(sim.NewRand(5000+k), 0.5)
		rc, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatalf("k=%d locked=%v recovery: %v", k, locked, err)
		}
		if err := rc.CheckInvariants(); err != nil {
			t.Fatalf("k=%d locked=%v after recovery: %v", k, locked, err)
		}
		for i := uint64(0); i < span; i++ {
			state = append(state, mustRead(t, rc, i)...)
		}
		return true, state, mem.SnapshotPersist(), 0
	}

	for k := int64(0); ; k++ {
		fastCrashed, fastState, fastImg, fastNow := runVariant(k, false)
		lockCrashed, lockState, lockImg, lockNow := runVariant(k, true)
		if fastCrashed != lockCrashed {
			t.Fatalf("k=%d: fast path crashed=%v but locked path crashed=%v — persist-op sequences diverged",
				k, fastCrashed, lockCrashed)
		}
		if !fastCrashed {
			if fastNow != lockNow {
				t.Fatalf("uncrashed run ends at %d simulated ns on the fast path, %d on the locked path", fastNow, lockNow)
			}
			t.Logf("parity sweep covered %d boundaries", k)
			return
		}
		if !bytes.Equal(fastImg, lockImg) {
			t.Fatalf("k=%d: post-recovery persistent images differ between hit paths", k)
		}
		if !bytes.Equal(fastState, lockState) {
			t.Fatalf("k=%d: recovered block contents differ between hit paths", k)
		}
		// Boundaries repeat the same per-commit pattern; cover the first
		// commits densely, then stride.
		if k > 600 {
			k += 23
		}
	}
}
