package main

import (
	"runtime"
	"time"

	"tinca/internal/blockdev"
	"tinca/internal/classic"
	"tinca/internal/core"
	"tinca/internal/fs"
	"tinca/internal/index"
	"tinca/internal/jbd"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// A probe drives one layer alone, on fresh devices, in a tight loop over
// its public API: what a call costs with no other layer around it. They
// tell a later change which layer's own cost moved; they are workload
// independent, so every traced run reports the same set.

const (
	probeSegments = 5
	probeSegment  = 25 * time.Millisecond // per segment, in a real run
)

// probe names a layer call and says which rulers apply to it. make builds
// the fresh state and returns the call to time; i counts calls.
type probe struct {
	name   string // metric prefix; _host_ns, _sim_ns, _allocs are appended
	sim    bool
	allocs bool
	make   func(clock *sim.Clock) func(i int)
}

var probes = []probe{
	{"index.get_hit", false, false, func(*sim.Clock) func(int) {
		t := index.New(4096)
		for k := uint64(0); k < 4096; k++ {
			t.Put(k*7, int32(k))
		}
		return func(i int) { t.Get(uint64(i%4096) * 7) }
	}},
	{"index.put", false, false, func(*sim.Clock) func(int) {
		t := index.New(4096)
		return func(i int) { t.Put(uint64(i%4096)*7, int32(i)) }
	}},
	{"metrics.recorder_inc", false, false, func(*sim.Clock) func(int) {
		rec := metrics.NewRecorder()
		return func(int) { rec.Inc(metrics.CacheReadHit) }
	}},
	{"pmem.persist_4k", false, false, func(c *sim.Clock) func(int) {
		mem, buf := pmem.New(1<<20, pmem.PCM, c, metrics.NewRecorder()), make([]byte, blockSize)
		return func(i int) { mem.PersistRange((i%256)*blockSize, buf) }
	}},
	{"pmem.load_4k", false, false, func(c *sim.Clock) func(int) {
		mem, buf := pmem.New(1<<20, pmem.PCM, c, metrics.NewRecorder()), make([]byte, blockSize)
		return func(i int) { mem.Load((i%256)*blockSize, buf) }
	}},
	{"pmem.persist16", false, false, func(c *sim.Clock) func(int) {
		mem := pmem.New(1<<20, pmem.PCM, c, metrics.NewRecorder())
		return func(i int) { mem.Persist16((i%4096)*16, [16]byte{byte(i)}) }
	}},
	{"blockdev.write", false, false, func(c *sim.Clock) func(int) {
		disk, buf := blockdev.New(1024, blockdev.SSD, c, metrics.NewRecorder()), make([]byte, blockSize)
		return func(i int) { disk.WriteBlock(uint64(i%1024), buf) }
	}},
	{"blockdev.read", false, false, func(c *sim.Clock) func(int) {
		disk, buf := blockdev.New(1024, blockdev.SSD, c, metrics.NewRecorder()), make([]byte, blockSize)
		for b := uint64(0); b < 1024; b++ {
			disk.WriteBlock(b, buf)
		}
		return func(i int) { disk.ReadBlock(uint64(i%1024), buf) }
	}},
	{"core.read_hit", false, true, func(c *sim.Clock) func(int) {
		cache, buf := probeCache(c, 512), make([]byte, blockSize)
		return func(i int) { must(cache.Read(uint64(i%512), buf)) }
	}},
	{"core.readview_hit", false, false, func(c *sim.Clock) func(int) {
		cache := probeCache(c, 512)
		return func(i int) {
			v, err := cache.ReadView(uint64(i % 512))
			must(err)
			must(v.Close())
		}
	}},
	{"core.read_miss", false, false, func(c *sim.Clock) func(int) {
		// Cycling through four times the cache's capacity makes every read
		// a miss with an eviction.
		cache, buf := probeCache(c, 0), make([]byte, blockSize)
		span := 4 * cache.Capacity()
		return func(i int) { must(cache.Read(uint64(i%span), buf)) }
	}},
	{"core.commit_1blk", true, false, func(c *sim.Clock) func(int) { return commitProbe(probeCache(c, 128), 1) }},
	{"core.commit_8blk", true, true, func(c *sim.Clock) func(int) { return commitProbe(probeCache(c, 128), 8) }},
	{"jbd.commit_8blk", true, false, func(c *sim.Clock) func(int) {
		rec := metrics.NewRecorder()
		cc := probeClassic(c, rec)
		j, err := jbd.Open(cc, rec, jbd.Options{Start: 8192, Blocks: journalBlocks, Clock: c})
		must(err)
		buf := make([]byte, blockSize)
		return func(i int) {
			ups := make([]jbd.Update, 8)
			for k := range ups {
				ups[k] = jbd.Update{No: uint64((i*8 + k) % 128), Data: buf}
			}
			must(j.CommitTxn(jbd.Txn{Updates: ups}))
			must(j.MaybeCheckpoint(checkpointFrac))
		}
	}},
	{"classic.write_block", true, false, func(c *sim.Clock) func(int) {
		cc, buf := probeClassic(c, metrics.NewRecorder()), make([]byte, blockSize)
		return func(i int) { must(cc.WriteBlock(uint64(i%128), buf)) }
	}},
	{"fs.read_4k", false, true, func(*sim.Clock) func(int) {
		f, buf := probeFS(), make([]byte, blockSize)
		return func(i int) {
			_, err := f.ReadAt(dataPath, uint64(i%256)*blockSize, buf)
			must(err)
		}
	}},
	{"fs.write_4k", false, true, func(*sim.Clock) func(int) {
		f, buf := probeFS(), make([]byte, blockSize)
		return func(i int) { must(f.WriteAt(dataPath, uint64(i%256)*blockSize, buf)) }
	}},
}

// must stops a probe whose layer call failed: on fresh devices with valid
// arguments that is a bug in the probe, not a measurement.
func must(err error) {
	if err != nil {
		panic("probe: " + err.Error())
	}
}

// probeCache opens a Tinca cache over 4MB of PCM and an SSD and commits the
// first resident blocks, one per transaction.
func probeCache(c *sim.Clock, resident int) *core.Cache {
	rec := metrics.NewRecorder()
	cache, err := core.Open(pmem.New(4<<20, pmem.PCM, c, rec), blockdev.New(8192, blockdev.SSD, c, rec), core.Options{})
	must(err)
	buf := make([]byte, blockSize)
	for b := 0; b < resident; b++ {
		t := cache.Begin()
		t.Write(uint64(b), buf)
		must(t.Commit())
	}
	return cache
}

// commitProbe commits n-block transactions over 128 resident blocks, so
// every block is a write hit.
func commitProbe(cache *core.Cache, n int) func(int) {
	buf := make([]byte, blockSize)
	return func(i int) {
		t := cache.Begin()
		for k := 0; k < n; k++ {
			t.Write(uint64((i*n+k)%128), buf)
		}
		must(t.Commit())
	}
}

func probeClassic(c *sim.Clock, rec *metrics.Recorder) *classic.Cache {
	cc, err := classic.Open(pmem.New(4<<20, pmem.PCM, c, rec), blockdev.New(8192+journalBlocks, blockdev.SSD, c, rec),
		classic.Options{JournalBoundary: 8192})
	must(err)
	return cc
}

// probeFS formats a file system over a map: fs's own cost, nothing below.
func probeFS() *fs.FS {
	f, err := fs.Format(&mapBackend{blocks: map[uint64][]byte{}}, 4096, 0, fs.Options{GroupCommitBlocks: groupCommitBlocks})
	must(err)
	must(f.Create(dataPath))
	must(f.WriteAt(dataPath, 0, make([]byte, 256*blockSize)))
	must(f.Sync())
	return f
}

// mapBackend is the least an fs.Backend can be.
type mapBackend struct{ blocks map[uint64][]byte }

type mapTxn struct {
	b      *mapBackend
	staged map[uint64][]byte
}

func (b *mapBackend) ReadBlock(no uint64, p []byte) error {
	if d, ok := b.blocks[no]; ok {
		copy(p, d)
	} else {
		clear(p)
	}
	return nil
}
func (b *mapBackend) Begin() fs.BackendTxn { return &mapTxn{b: b, staged: map[uint64][]byte{}} }
func (b *mapBackend) Sync() error          { return nil }
func (b *mapBackend) Close() error         { return nil }

func (t *mapTxn) Write(no uint64, data []byte) { t.staged[no] = append([]byte(nil), data...) }
func (t *mapTxn) Revoke(uint64)                {}
func (t *mapTxn) Abort()                       {}
func (t *mapTxn) Commit() error {
	for no, d := range t.staged {
		t.b.blocks[no] = d
	}
	return nil
}

// runProbes times every probe: host ns per call as the median of five
// segments of the given length, simulated ns and mallocs per call over all
// of them.
func runProbes(segment time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		clock := sim.NewClock()
		call := p.make(clock)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		sim0 := clock.Now()
		perCall := make([]float64, probeSegments)
		calls := 0
		for s := range perCall {
			start, n := time.Now(), 0
			for time.Since(start) < segment {
				for k := 0; k < 64; k++ {
					call(calls + n)
					n++
				}
			}
			perCall[s] = float64(time.Since(start)) / float64(n)
			calls += n
		}
		runtime.ReadMemStats(&ms1)
		out[p.name+"_host_ns"] = median(perCall)
		if p.sim {
			out[p.name+"_sim_ns"] = float64(clock.Now()-sim0) / float64(calls)
		}
		if p.allocs {
			out[p.name+"_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
		}
	}
	return out
}
