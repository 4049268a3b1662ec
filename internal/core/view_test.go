package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/errs"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

func openViewTestCache(t *testing.T, opts Options) *Cache {
	t.Helper()
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(1<<20, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReadViewBasics covers the View contract on a warm cache: zero-copy
// hits alias NVM and match Read byte for byte, Close is exactly-once,
// errors carry the shared sentinels, and the open-view gauge plus the
// pinned-view invariants stay balanced.
func TestReadViewBasics(t *testing.T) {
	c := openViewTestCache(t, Options{RingBytes: 4096})

	tx := c.Begin()
	tx.Write(7, blockOf('v'))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	v, err := c.ReadView(7)
	if err != nil {
		t.Fatal(err)
	}
	if !v.ZeroCopy() {
		t.Fatal("hit view should be zero-copy")
	}
	if v.BlockNo() != 7 {
		t.Fatalf("BlockNo = %d", v.BlockNo())
	}
	if !bytes.Equal(v.Bytes(), mustRead(t, c, 7)) {
		t.Fatal("view bytes differ from Read")
	}
	if got := c.OpenViews(); got != 1 {
		t.Fatalf("OpenViews = %d, want 1", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants with an open view: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if v.Bytes() != nil {
		t.Fatal("Bytes after Close should be nil")
	}
	if err := v.Close(); !errors.Is(err, errs.ErrViewExpired) {
		t.Fatalf("double Close = %v, want ErrViewExpired", err)
	}
	if got := c.OpenViews(); got != 0 {
		t.Fatalf("OpenViews after Close = %d", got)
	}

	// Miss path: a cold block fills and serves a view.
	mv, err := c.ReadView(9999)
	if err != nil {
		t.Fatal(err)
	}
	if err := mv.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := c.ReadView(c.disk.Blocks()); !errors.Is(err, errs.ErrOutOfRange) {
		t.Fatalf("out-of-range ReadView = %v, want ErrOutOfRange", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.ZeroCopyViews == 0 {
		t.Fatalf("no zero-copy views counted: %+v", st)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadView(7); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("ReadView on closed cache = %v, want ErrClosed", err)
	}
}

// TestReadMatchesReadView pins the one read-hit path: a Read hit is
// ReadView's hit plus a copy. On a fast hit and on a locked hit (the
// lockedReadHit oracle), Read and ReadView+Close of the same block return
// the same bytes, advance the simulated clock by the same ns and move the
// hit counters alike, while Read leaves the view statistics untouched. On
// a miss the two differ by design: ReadView fills and then serves the
// view as one hit read, where Read copies the filled bytes out.
func TestReadMatchesReadView(t *testing.T) {
	hits := func(c *Cache) [3]int64 {
		st := c.Stats()
		return [3]int64{st.ReadHits, st.ReadHitFast, st.ReadHitSlow}
	}
	for _, locked := range []bool{false, true} {
		want := [3]int64{1, 1, 0}
		name := "fast"
		if locked {
			want, name = [3]int64{1, 0, 1}, "locked"
		}
		t.Run(name, func(t *testing.T) {
			c := openViewTestCache(t, Options{RingBytes: 4096, lockedReadHit: locked})
			clock := c.mem.Clock()
			tx := c.Begin()
			tx.Write(7, blockOf('r'))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			p := make([]byte, BlockSize)
			h0, t0 := hits(c), clock.Now()
			if err := c.Read(7, p); err != nil {
				t.Fatal(err)
			}
			readNS, h1 := clock.Now()-t0, hits(c)
			if st := c.Stats(); st.ZeroCopyViews != 0 || st.OpenViews != 0 {
				t.Fatalf("Read moved the view statistics: zero-copy %d, open %d",
					st.ZeroCopyViews, st.OpenViews)
			}

			t1 := clock.Now()
			v, err := c.ReadView(7)
			if err != nil {
				t.Fatal(err)
			}
			got := bytes.Clone(v.Bytes())
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			viewNS, h2 := clock.Now()-t1, hits(c)

			if !bytes.Equal(p, blockOf('r')) || !bytes.Equal(got, p) {
				t.Fatal("Read and ReadView bytes differ")
			}
			if readNS != viewNS || readNS == 0 {
				t.Fatalf("hit cost: Read %v, ReadView %v", readNS, viewNS)
			}
			for k := range want {
				if h1[k]-h0[k] != want[k] || h2[k]-h1[k] != want[k] {
					t.Fatalf("hit/fast/slow deltas: Read %v, ReadView %v, want %v",
						[3]int64{h1[0] - h0[0], h1[1] - h0[1], h1[2] - h0[2]},
						[3]int64{h2[0] - h1[0], h2[1] - h1[1], h2[2] - h1[2]}, want)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("miss", func(t *testing.T) {
		rc := openViewTestCache(t, Options{RingBytes: 4096})
		vc := openViewTestCache(t, Options{RingBytes: 4096})
		p := make([]byte, BlockSize)
		t0 := rc.mem.Clock().Now()
		if err := rc.Read(100, p); err != nil {
			t.Fatal(err)
		}
		readMissNS := rc.mem.Clock().Now() - t0
		t1 := rc.mem.Clock().Now()
		if err := rc.Read(100, p); err != nil {
			t.Fatal(err)
		}
		hitNS := rc.mem.Clock().Now() - t1

		t2 := vc.mem.Clock().Now()
		v, err := vc.ReadView(100)
		if err != nil {
			t.Fatal(err)
		}
		viewMissNS := vc.mem.Clock().Now() - t2
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		if viewMissNS != readMissNS+hitNS {
			t.Fatalf("miss cost: ReadView %v, want Read's fill %v + one hit %v",
				viewMissNS, readMissNS, hitNS)
		}
		if rs, vs := rc.Stats(), vc.Stats(); rs.ReadHits != 1 || vs.ReadHits != 1 {
			t.Fatalf("hits after a miss and a hit Read: %d; after a miss ReadView: %d, want 1 and 1",
				rs.ReadHits, vs.ReadHits)
		}
	})
}

// TestReadViewCopyModes pins the copy decision for the ablation modes:
// they keep zero-copy views, because their cost hooks write only the
// seal's scratch block, never a block an entry names. The second commit
// is a write hit, which runs the UBJ hook.
func TestReadViewCopyModes(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"double-write", Options{RingBytes: 4096, Ablation: AblationDoubleWrite}},
		{"ubj", Options{RingBytes: 4096, Ablation: AblationUBJ}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			c := openViewTestCache(t, cfg.opts)
			for _, b := range []byte{'c', 'd'} {
				tx := c.Begin()
				tx.Write(3, blockOf(b))
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			v, err := c.ReadView(3)
			if err != nil {
				t.Fatal(err)
			}
			if !v.ZeroCopy() {
				t.Fatal("view should alias NVM in this mode")
			}
			if !bytes.Equal(v.Bytes(), blockOf('d')) || !bytes.Equal(v.Bytes(), mustRead(t, c, 3)) {
				t.Fatal("view bytes differ from the committed block")
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.CopiedViews != 0 || st.ZeroCopyViews == 0 {
				t.Fatalf("want zero-copy views only, got %+v", st)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadViewPinStability is the core safety property: the bytes behind
// an open view must not change — not when the block is COW-overwritten,
// not when it is evicted, not when its NVM block is recycled by later
// fills. The view of value v must still read v (every word) at Close
// time, long after the cache has moved on.
func TestReadViewPinStability(t *testing.T) {
	c := openViewTestCache(t, Options{RingBytes: 4096})

	tx := c.Begin()
	tx.Write(1, wordBlock(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := c.ReadView(1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.ZeroCopy() {
		t.Fatal("expected a zero-copy view")
	}

	// Overwrite the viewed block (COW: the old NVM block becomes free
	// only when the view drops its pin)...
	tx = c.Begin()
	tx.Write(1, wordBlock(2))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// ...then churn the whole cache several times over so the freed block
	// would be recycled if the pin were ignored.
	p := make([]byte, BlockSize)
	for n := 0; n < 4*c.Capacity(); n++ {
		if err := c.Read(uint64(100+n), p); err != nil {
			t.Fatal(err)
		}
	}

	for off := 0; off < BlockSize; off += 8 {
		if w := binary.LittleEndian.Uint64(v.Bytes()[off:]); w != 1 {
			t.Fatalf("pinned view changed under churn: word[%d] = %d, want 1", off/8, w)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants with pinned orphan: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ViewDeferredFrees == 0 {
		t.Fatalf("overwriting a viewed block should defer its free: %+v", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after orphan release: %v", err)
	}
	if got := mustRead(t, c, 1); binary.LittleEndian.Uint64(got) != 2 {
		t.Fatal("committed value lost")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadViewStress races zero-copy views against a committer COWing the
// hot set and a cold scanner forcing eviction. Each reader holds its view
// open across unrelated traffic and verifies at close time that the
// pinned bytes are an unchanged, untorn snapshot of a single committed
// version. Run under -race this is the data-race check for the pin
// protocol (view.go's Dekker handshake with the evictor and committer).
func TestReadViewStress(t *testing.T) {
	c := openViewTestCache(t, Options{RingBytes: 4096})

	const (
		readers   = 8
		hotSpan   = 16
		readsEach = 2000
		coldBase  = 1000
	)
	coldSpan := c.Capacity()
	var started atomic.Int64
	var stop atomic.Bool
	var readerWG, auxWG sync.WaitGroup

	for g := 0; g < readers; g++ {
		g := g
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			rng := sim.NewRand(int64(700 + g))
			p := make([]byte, BlockSize)
			var held View
			var heldVal uint64
			check := func(v *View, when string) {
				b := v.Bytes()
				val := binary.LittleEndian.Uint64(b)
				for off := 8; off < BlockSize; off += 8 {
					if w := binary.LittleEndian.Uint64(b[off:]); w != val {
						panic(fmt.Sprintf("reader %d: torn view (%s) of block %d: word[0]=%d word[%d]=%d",
							g, when, v.BlockNo(), val, off/8, w))
					}
				}
				if s := started.Load(); val > uint64(s) {
					panic(fmt.Sprintf("reader %d: view (%s) = %d but only %d commits started", g, when, val, s))
				}
			}
			for i := 0; i < readsEach; i++ {
				v, err := c.ReadView(uint64(rng.Intn(hotSpan)))
				if err != nil {
					panic(fmt.Sprintf("reader %d: %v", g, err))
				}
				check(&v, "open")
				switch i % 3 {
				case 0:
					// Close immediately.
					check(&v, "close")
					if err := v.Close(); err != nil {
						panic(err)
					}
				case 1:
					// Hold the view across later traffic; the previous held
					// view must still read its original value.
					if held.Bytes() != nil {
						b := held.Bytes()
						if got := binary.LittleEndian.Uint64(b); got != heldVal {
							panic(fmt.Sprintf("reader %d: held view of block %d drifted: %d -> %d",
								g, held.BlockNo(), heldVal, got))
						}
						check(&held, "held")
						if err := held.Close(); err != nil {
							panic(err)
						}
					}
					held = v
					heldVal = binary.LittleEndian.Uint64(v.Bytes())
				case 2:
					// Interleave a cold read to force churn, then re-check.
					if err := c.Read(uint64(coldBase+rng.Intn(coldSpan)), p); err != nil {
						panic(err)
					}
					check(&v, "after-churn")
					if err := v.Close(); err != nil {
						panic(err)
					}
				}
			}
			if held.Bytes() != nil {
				if err := held.Close(); err != nil {
					panic(err)
				}
			}
		}()
	}

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
	stop.Store(true)
	auxWG.Wait()

	if got := c.OpenViews(); got != 0 {
		t.Fatalf("OpenViews = %d after all readers closed", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ZeroCopyViews == 0 {
		t.Fatalf("stress never took the zero-copy path: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexResizeUnderLoad starts the bucket index at its 64-cell floor
// (indexBuckets 8 rounds up to it) on a cache big enough that each shard
// holds more live mappings than the 3/4 grow trigger, and drives a
// capacity-overflowing working set through concurrent readers, view
// holders and a committer, so lock-free lookups keep overlapping
// incremental resizes and eviction churn keeps recycling tombstones. Run
// under -race this is the epoch-reclamation check for internal/index;
// functionally it requires the index to have actually grown and every
// mapping to have survived.
func TestIndexResizeUnderLoad(t *testing.T) {
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(4<<20, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, Options{RingBytes: 4096, indexBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers   = 6
		readsEach = 3000
	)
	span := 2 * c.Capacity() // enough distinct blocks to force many grows
	var stop atomic.Bool
	var readerWG, auxWG sync.WaitGroup

	for g := 0; g < readers; g++ {
		g := g
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			rng := sim.NewRand(int64(40 + g))
			p := make([]byte, BlockSize)
			for i := 0; i < readsEach; i++ {
				no := uint64(rng.Intn(span))
				if i%4 == 0 {
					v, err := c.ReadView(no)
					if err != nil {
						panic(fmt.Sprintf("reader %d: %v", g, err))
					}
					if err := v.Close(); err != nil {
						panic(err)
					}
				} else if err := c.Read(no, p); err != nil {
					panic(fmt.Sprintf("reader %d: %v", g, err))
				}
			}
		}()
	}
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		rng := sim.NewRand(99)
		for !stop.Load() {
			tx := c.Begin()
			tx.Write(uint64(rng.Intn(span)), blockOf('w'))
			if err := tx.Commit(); err != nil {
				panic(fmt.Sprintf("writer: %v", err))
			}
		}
	}()

	readerWG.Wait()
	stop.Store(true)
	auxWG.Wait()

	st := c.Stats()
	if st.IndexGrows == 0 {
		t.Fatalf("index never grew from indexBuckets=8: %+v", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSweepIndexParity re-runs a per-boundary crash sweep with the
// block index started at its minimum size (indexBuckets: 8, so the skewed
// workload forces a resize mid-sweep) and with the default pre-sized
// table (which never resizes) and requires the crash boundary, the
// adversarial crash image and the recovered contents to be identical: the
// index is pure DRAM bookkeeping and must not influence the
// persistence-op sequence at all.
func TestCrashSweepIndexParity(t *testing.T) {
	const (
		span   = 6
		misses = 10 // per round, all keyed to shard 0
	)

	// grows is the index resize count of an uncrashed run.
	runVariant := func(k int64, buckets int) (crashed bool, state []byte, img []byte, grows int64) {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(3<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		opts := Options{RingBytes: 4096, indexBuckets: buckets}
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
				// Misses pile into one shard so the minimum-size table
				// passes its grow trigger mid-sweep; hits exercise lookups
				// while the resize is in flight.
				for j := 0; j < misses; j++ {
					if err := c.Read(uint64(shardCount*(1+misses*i+j)), p); err != nil {
						panic(fmt.Sprintf("miss read: %v", err))
					}
					if err := c.Read(uint64(j%(i+1)), p); err != nil {
						panic(fmt.Sprintf("hit read: %v", err))
					}
				}
			}
		})
		if !crashed {
			mem.DisarmCrash()
			return false, nil, nil, c.Stats().IndexGrows
		}
		mem.Crash(sim.NewRand(7000+k), 0.5)
		rc, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatalf("k=%d buckets=%d recovery: %v", k, buckets, err)
		}
		if err := rc.CheckInvariants(); err != nil {
			t.Fatalf("k=%d buckets=%d after recovery: %v", k, buckets, err)
		}
		for i := uint64(0); i < span; i++ {
			state = append(state, mustRead(t, rc, i)...)
		}
		return true, state, mem.SnapshotPersist(), 0
	}

	for k := int64(0); ; k++ {
		gCrashed, gState, gImg, gGrows := runVariant(k, 8)
		dCrashed, dState, dImg, dGrows := runVariant(k, 0)
		if gCrashed != dCrashed {
			t.Fatalf("k=%d: growing index crashed=%v but pre-sized crashed=%v — persist-op sequences diverged",
				k, gCrashed, dCrashed)
		}
		if !gCrashed {
			if gGrows == 0 || dGrows != 0 {
				t.Fatalf("index grows: %d from indexBuckets=8 (want > 0), %d pre-sized (want 0)", gGrows, dGrows)
			}
			t.Logf("index parity sweep covered %d boundaries", k)
			return
		}
		if !bytes.Equal(gImg, dImg) {
			t.Fatalf("k=%d: post-recovery persistent images differ between index sizes", k)
		}
		if !bytes.Equal(gState, dState) {
			t.Fatalf("k=%d: recovered block contents differ between index sizes", k)
		}
		if k > 600 {
			k += 23
		}
		if raceEnabled {
			k += raceStride - 1
		}
	}
}
