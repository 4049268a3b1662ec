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

// TestConcurrentCommitStress drives 8 goroutines through mixed
// Begin/Write/Commit/Abort/Read traffic. Run under -race this is the
// primary data-race check for the sharded hot path and the group-commit
// pipeline; functionally it checks that private blocks end with their
// writer's last value, contended blocks end with *some* writer's value,
// and the structural invariants hold afterwards. The evictor case runs on
// an NVM smaller than the working set, so allocating goroutines evict
// victims themselves (evictor.go) and their write-backs race the seals
// and readers.
func TestConcurrentCommitStress(t *testing.T) {
	for _, cfg := range []struct {
		name     string
		nvmBytes int
		opts     Options
	}{
		{"write-back", 8 << 20, Options{RingBytes: 8192}},
		{"timed-batch", 8 << 20, Options{RingBytes: 8192, SealWaitNS: 20_000}},
		{"evictor", 512 << 10, Options{RingBytes: 8192}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			clock := sim.NewClock()
			rec := metrics.NewRecorder()
			mem := pmem.New(cfg.nvmBytes, pmem.NVDIMM, clock, rec)
			disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
			c, err := Open(mem, disk, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}

			const (
				workers  = 8
				rounds   = 60
				hotSpan  = 16  // blocks every worker fights over
				privSpan = 32  // blocks private to one worker
				privBase = 100 // private ranges start here
			)
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := sim.NewRand(int64(1000 + g))
					for i := 0; i < rounds; i++ {
						txn := c.Begin()
						// One contended write, one or two private writes.
						txn.Write(uint64(rng.Intn(hotSpan)), blockOf(byte(g+1)))
						no := uint64(privBase + g*privSpan + rng.Intn(privSpan))
						txn.Write(no, blockOf(byte(g+1)))
						if i%7 == 3 {
							txn.Abort()
							continue
						}
						if err := txn.Commit(); err != nil {
							panic(fmt.Sprintf("worker %d commit %d: %v", g, i, err))
						}
						// Interleave reads on the sharded read path.
						p := make([]byte, BlockSize)
						if err := c.Read(uint64(rng.Intn(hotSpan)), p); err != nil {
							panic(fmt.Sprintf("worker %d read: %v", g, err))
						}
					}
					// Final marker commit: private block 0 gets the last word.
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
				if got < 1 || got > workers {
					t.Fatalf("hot block %d = %d, not a worker value", no, got)
				}
			}

			st := c.Stats()
			if st.Commits == 0 || st.GroupSeals == 0 {
				t.Fatalf("no group seals recorded: %+v", st)
			}
			if st.GroupedTxns != st.Commits {
				t.Fatalf("grouped %d != commits %d", st.GroupedTxns, st.Commits)
			}
			if st.GroupSeals > st.GroupedTxns {
				t.Fatalf("more seals (%d) than transactions (%d)", st.GroupSeals, st.GroupedTxns)
			}
			if cfg.nvmBytes < 1<<20 && st.Evictions == 0 {
				t.Fatalf("small cache never evicted: %+v", st)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			// Close flushes: the disk now holds every final value.
			p := make([]byte, BlockSize)
			for g := 0; g < workers; g++ {
				disk.ReadBlock(uint64(privBase+g*privSpan), p)
				if p[0] != byte(g+1) {
					t.Fatalf("disk: worker %d private block = %d", g, p[0])
				}
			}
		})
	}
}

// TestConcurrentCrashRecovers injects a crash at every simulated-NVM
// operation boundary while four goroutines commit concurrently (so the
// crash lands mid-batch in the group-commit seal with high probability),
// then materializes an adversarial crash image and recovers. Every
// acknowledged commit must survive; the recovered value may only be the
// acked one or a newer value the same worker wrote afterwards (a later
// batch that sealed before the crash).
func TestConcurrentCrashRecovers(t *testing.T) {
	const (
		workers = 4
		span    = 8  // blocks per worker
		rounds  = 20 // txns per worker
	)
	rng := sim.NewRand(99)
	for k := int64(0); ; k++ {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(2<<20, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		c, err := Open(mem, disk, Options{RingBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}

		// acked[w][b] is the last value worker w saw Commit acknowledge
		// for its block b; written[w][b] the last value it ever staged.
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
				// Each worker absorbs its own re-broadcast crash panic.
				crashed, _ := pmem.CatchCrash(func() {
					for i := 0; i < rounds; i++ {
						txn := c.Begin()
						b := i % span
						v := byte(i + 1)
						written[w][b] = v
						txn.Write(uint64(w*span+b), blockOf(v))
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
			t.Logf("concurrent protocol covered in %d operations", k)
			return
		}

		// Power failure: persistent image plus random line evictions.
		mem.Crash(rng, 0.5)
		rc, err := Open(mem, disk, Options{RingBytes: 4096})
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
		// Recovered cache stays functional.
		post := rc.Begin()
		post.Write(500, blockOf('Z'))
		if err := post.Commit(); err != nil {
			t.Fatalf("k=%d post-recovery commit: %v", k, err)
		}
		// Cover the early boundaries densely, then accelerate: the batch
		// protocol repeats the same per-block pattern.
		k += k / 16
	}
}
