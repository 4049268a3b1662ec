package core

import (
	"fmt"
	"sync"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// seedDisk writes a deterministic pattern to disk blocks [0, n): block no
// holds byte(no%251 + 1) so a fill's result is checkable without an
// oracle map.
func seedDisk(disk *blockdev.Device, n uint64) {
	for no := uint64(0); no < n; no++ {
		disk.WriteBlock(no, blockOf(diskPattern(no)))
	}
}

func diskPattern(no uint64) byte { return byte(no%251 + 1) }

// TestConcurrentMissFills drives 8 goroutines through read misses on
// disjoint block ranges whose union exceeds the cache capacity several
// times over, so every goroutine evicts victims for its own fills. Every
// read must return the disk's value; under -race this exercises the
// lock-free fill install, concurrent victim scans and the allocator
// against each other.
func TestConcurrentMissFills(t *testing.T) {
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(2<<20, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, Options{RingBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		span    = 256 // blocks per worker; 8*256 ≈ 4x capacity
		passes  = 3
	)
	seedDisk(disk, workers*span)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]byte, BlockSize)
			for pass := 0; pass < passes; pass++ {
				for b := 0; b < span; b++ {
					no := uint64(g*span + b)
					if err := c.Read(no, p); err != nil {
						panic(fmt.Sprintf("worker %d read %d: %v", g, no, err))
					}
					if p[0] != diskPattern(no) {
						panic(fmt.Sprintf("worker %d block %d = %d, want %d", g, no, p[0], diskPattern(no)))
					}
				}
			}
		}()
	}
	wg.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ReadMisses == 0 || st.Evictions == 0 {
		t.Fatalf("overcommitted read sweep recorded no misses/evictions: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMissPipelineStress mixes concurrent miss fills, commits, aborts,
// eviction and FlushAll on a cache
// several times smaller than the working set. Run under -race this is the
// primary data-race check for the concurrent miss pipeline; functionally
// it checks the same value oracles as the commit stress test plus the
// fill correctness of a read-only region, and that the structural
// invariants hold afterwards.
func TestMissPipelineStress(t *testing.T) {
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(2<<20, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, Options{RingBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers  = 8
		rounds   = 80
		hotSpan  = 16   // contended write range
		privSpan = 32   // private write range per worker
		privBase = 100  // private ranges start here
		roBase   = 2000 // read-only region, seeded on disk, never written
		roSpan   = 1024
	)
	seedDisk(disk, 64) // hot range and low blocks hold the pattern initially
	for no := uint64(roBase); no < roBase+roSpan; no++ {
		disk.WriteBlock(no, blockOf(diskPattern(no)))
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewRand(int64(2000 + g))
			p := make([]byte, BlockSize)
			for i := 0; i < rounds; i++ {
				// Miss-heavy read in the read-only region: value must match
				// the disk exactly, whether it came from a fill, a raced
				// fill, or a resident copy that survived eviction pressure.
				no := uint64(roBase + rng.Intn(roSpan))
				if err := c.Read(no, p); err != nil {
					panic(fmt.Sprintf("worker %d read %d: %v", g, no, err))
				}
				if p[0] != diskPattern(no) {
					panic(fmt.Sprintf("worker %d block %d = %d, want %d", g, no, p[0], diskPattern(no)))
				}

				txn := c.Begin()
				txn.Write(uint64(rng.Intn(hotSpan)), blockOf(byte(g+1)))
				txn.Write(uint64(privBase+g*privSpan+rng.Intn(privSpan)), blockOf(byte(g+1)))
				if i%9 == 4 {
					txn.Abort()
					continue
				}
				if err := txn.Commit(); err != nil {
					panic(fmt.Sprintf("worker %d commit %d: %v", g, i, err))
				}
				if i%17 == 11 {
					if err := c.FlushAll(); err != nil {
						panic(fmt.Sprintf("worker %d flush: %v", g, err))
					}
				}
			}
			// Final marker commit, checked after the barrier.
			txn := c.Begin()
			txn.Write(uint64(privBase+g*privSpan), blockOf(byte(g+1)))
			if err := txn.Commit(); err != nil {
				panic(fmt.Sprintf("worker %d final commit: %v", g, err))
			}
		}()
	}
	wg.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < workers; g++ {
		got := mustRead(t, c, uint64(privBase+g*privSpan))[0]
		if got != byte(g+1) {
			t.Fatalf("worker %d private block = %d, want %d", g, got, g+1)
		}
	}
	for no := uint64(0); no < hotSpan; no++ {
		got := mustRead(t, c, no)[0]
		ok := got == diskPattern(no) // never overwritten is fine too
		for g := 1; g <= workers; g++ {
			ok = ok || got == byte(g)
		}
		if !ok {
			t.Fatalf("hot block %d = %d, not a worker value", no, got)
		}
	}
	st := c.Stats()
	if st.ReadMisses == 0 || st.Commits == 0 || st.Evictions == 0 {
		t.Fatalf("stress covered nothing: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectEvictCrashRecovers injects a crash at every simulated-NVM
// operation boundary while four goroutines commit into a working set
// larger than the cache, each evicting (and writing back) dirty victims
// for its own allocations. The crash can therefore land inside one
// goroutine's write-back sequence while others commit; after
// materializing the crash image, recovery must still satisfy the
// commit-acknowledgement oracle and the structural invariants.
func TestDirectEvictCrashRecovers(t *testing.T) {
	const (
		workers  = 4
		span     = 16 // oracle-tracked blocks per worker
		rounds   = 48
		fillBase = 1000 // untracked filler range driving eviction pressure
		fillSpan = 600
	)
	rng := sim.NewRand(7)
	for k := int64(0); ; k++ {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(512<<10, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		opts := Options{RingBytes: 4096}
		c, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatal(err)
		}

		acked := make([][]byte, workers)
		written := make([][]byte, workers)
		for w := range acked {
			acked[w] = make([]byte, span)
			written[w] = make([]byte, span)
		}

		mem.ArmCrash(k)
		var wg sync.WaitGroup
		anyCrashed := false
		var crashMu sync.Mutex
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				wrng := sim.NewRand(int64(3000 + w))
				crashed, _ := pmem.CatchCrash(func() {
					for i := 0; i < rounds; i++ {
						txn := c.Begin()
						b := i % span
						v := byte(i/span + 1)
						written[w][b] = v
						txn.Write(uint64(w*span+b), blockOf(v))
						// Filler writes overcommit the cache so commits
						// keep evicting and writing dirty victims back.
						txn.Write(uint64(fillBase+wrng.Intn(fillSpan)), blockOf(v))
						if err := txn.Commit(); err != nil {
							panic(fmt.Sprintf("worker %d commit: %v", w, err))
						}
						acked[w][b] = v
					}
				})
				if crashed {
					crashMu.Lock()
					anyCrashed = true
					crashMu.Unlock()
				}
			}()
		}
		wg.Wait()
		if !anyCrashed {
			mem.DisarmCrash()
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Evictions == 0 || st.DirtyEvictions == 0 {
				t.Fatalf("crash-free run wrote back no victim: %+v", st)
			}
			t.Logf("eviction write-back protocol covered in %d operations", k)
			return
		}

		mem.Crash(rng, 0.5)
		rc, err := Open(mem, disk, opts)
		if err != nil {
			t.Fatalf("k=%d recovery: %v", k, err)
		}
		if err := rc.CheckInvariants(); err != nil {
			t.Fatalf("k=%d after recovery: %v", k, err)
		}
		for w := 0; w < workers; w++ {
			for b := 0; b < span; b++ {
				if acked[w][b] == 0 {
					continue
				}
				got := mustRead(t, rc, uint64(w*span+b))[0]
				if got < acked[w][b] || got > written[w][b] {
					t.Fatalf("k=%d worker %d block %d = %d, want in [%d,%d]",
						k, w, b, got, acked[w][b], written[w][b])
				}
			}
		}
		post := rc.Begin()
		post.Write(500, blockOf('Z'))
		if err := post.Commit(); err != nil {
			t.Fatalf("k=%d post-recovery commit: %v", k, err)
		}
		if err := rc.Close(); err != nil {
			t.Fatalf("k=%d close: %v", k, err)
		}
		// Cover the early boundaries densely, then accelerate: the commit
		// and eviction protocols repeat the same per-block patterns.
		k += k / 16
	}
}

// TestOvercommittedReadSweepDirectEvicts reads twice the capacity: every
// fill's value matches the disk and the allocating reader pays the
// evictions itself.
func TestOvercommittedReadSweepDirectEvicts(t *testing.T) {
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(2<<20, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, Options{RingBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(2 * c.Capacity())
	seedDisk(disk, span)
	p := make([]byte, BlockSize)
	for no := uint64(0); no < span; no++ {
		if err := c.Read(no, p); err != nil {
			t.Fatal(err)
		}
		if p[0] != diskPattern(no) {
			t.Fatalf("block %d = %d, want %d", no, p[0], diskPattern(no))
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("overcommitted sweep never direct-evicted: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReadMissSteadyState measures the steady-state miss path (fill
// plus one synchronous eviction) on a span four times the cache
// capacity. The acceptance bar is at most one heap allocation per read:
// fills and evictions must run on pooled buffers and reused scratch.
func BenchmarkReadMissSteadyState(b *testing.B) {
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(2<<20, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, Options{RingBytes: 4096})
	if err != nil {
		b.Fatal(err)
	}
	span := uint64(4 * c.Capacity())
	p := make([]byte, BlockSize)
	for no := uint64(0); no < span; no++ { // reach steady state
		if err := c.Read(no, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Read(uint64(i)%span, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
}
