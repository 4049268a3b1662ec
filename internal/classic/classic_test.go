package classic

import (
	"bytes"
	"testing"
	"testing/quick"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

type rig struct {
	clock *sim.Clock
	rec   *metrics.Recorder
	mem   *pmem.Device
	disk  *blockdev.Device
	cache *Cache
}

func newRig(t *testing.T, nvmBytes int, opts Options) *rig {
	t.Helper()
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(nvmBytes, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<20, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return &rig{clock: clock, rec: rec, mem: mem, disk: disk, cache: c}
}

func blockOf(b byte) []byte {
	p := make([]byte, BlockSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestSlotMetaRoundTrip(t *testing.T) {
	f := func(disk uint64, dirty bool) bool {
		m := slotMeta{valid: true, dirty: dirty, disk: disk % (maxClassicDisk + 1)}
		return decodeSlot(encodeSlot(m)) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if decodeSlot([16]byte{}).valid {
		t.Fatal("zero record decoded valid")
	}
}

func TestWriteReadBack(t *testing.T) {
	r := newRig(t, 1<<20, Options{assoc: 8})
	if err := r.cache.WriteBlock(5, blockOf('x')); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, BlockSize)
	if err := r.cache.ReadBlock(5, p); err != nil {
		t.Fatal(err)
	}
	if p[0] != 'x' {
		t.Fatalf("read %q", p[0])
	}
}

func TestMetadataWrittenPerWrite(t *testing.T) {
	r := newRig(t, 1<<20, Options{assoc: 8})
	for i := 0; i < 10; i++ {
		if err := r.cache.WriteBlock(uint64(i), blockOf(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Every write miss persists one metadata block (no re-mapping of a
	// valid slot happened yet).
	if got := r.rec.Get(metrics.CacheMetaWrite); got != 10 {
		t.Fatalf("metadata writes = %d, want 10", got)
	}
	// The block-format amplification: each metadata write flushes a whole
	// 4KB block = 64 lines, plus 64 for data.
	perWrite := float64(r.rec.Get(metrics.NVMCLFlush)) / 10
	if perWrite < 127 || perWrite > 130 {
		t.Fatalf("clflush per write = %v, want ~128", perWrite)
	}
}

func TestNoMetaUpdatesOption(t *testing.T) {
	r := newRig(t, 1<<20, Options{assoc: 8, NoMetaUpdates: true})
	for i := 0; i < 10; i++ {
		if err := r.cache.WriteBlock(uint64(i), blockOf(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.rec.Get(metrics.CacheMetaWrite); got != 0 {
		t.Fatalf("metadata writes = %d, want 0", got)
	}
}

func TestNoPersistBarriersOption(t *testing.T) {
	r := newRig(t, 1<<20, Options{assoc: 8, NoPersistBarriers: true})
	base := r.rec.Get(metrics.NVMCLFlush) // formatting flushes the header
	if err := r.cache.WriteBlock(1, blockOf(1)); err != nil {
		t.Fatal(err)
	}
	if got := r.rec.Get(metrics.NVMCLFlush) - base; got != 0 {
		t.Fatalf("clflush per write = %d, want 0", got)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	r := newRig(t, 256<<10, Options{assoc: 4})
	capacity := r.cache.Capacity()
	total := capacity + 16
	for i := 0; i < total; i++ {
		if err := r.cache.WriteBlock(uint64(i), blockOf(byte(i%251))); err != nil {
			t.Fatal(err)
		}
	}
	if r.rec.Get(metrics.CacheEvictDirty) == 0 {
		t.Fatal("no dirty eviction")
	}
	p := make([]byte, BlockSize)
	for i := 0; i < total; i++ {
		if err := r.cache.ReadBlock(uint64(i), p); err != nil {
			t.Fatal(err)
		}
		if p[0] != byte(i%251) {
			t.Fatalf("block %d = %d", i, p[0])
		}
	}
}

func TestReadMissFills(t *testing.T) {
	r := newRig(t, 1<<20, Options{assoc: 8})
	r.disk.WriteBlock(33, blockOf('d'))
	p := make([]byte, BlockSize)
	if err := r.cache.ReadBlock(33, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, blockOf('d')) {
		t.Fatal("read-miss mismatch")
	}
	if !r.cache.Contains(33) {
		t.Fatal("miss did not fill")
	}
}

func TestFlushAllAndClose(t *testing.T) {
	r := newRig(t, 1<<20, Options{assoc: 8})
	if err := r.cache.WriteBlock(2, blockOf('f')); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.Close(); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, BlockSize)
	r.disk.ReadBlock(2, p)
	if p[0] != 'f' {
		t.Fatal("Close did not flush")
	}
	if err := r.cache.WriteBlock(3, blockOf(1)); err != ErrClosed {
		t.Fatalf("after close: %v", err)
	}
}

func TestRecoverRebuildsMapping(t *testing.T) {
	r := newRig(t, 1<<20, Options{assoc: 8})
	for i := 0; i < 20; i++ {
		if err := r.cache.WriteBlock(uint64(i), blockOf(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	r.mem.Crash(nil, 0) // power loss: only flushed state survives
	c2, err := Open(r.mem, r.disk, Options{assoc: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, BlockSize)
	for i := 0; i < 20; i++ {
		if err := c2.ReadBlock(uint64(i), p); err != nil {
			t.Fatal(err)
		}
		if p[0] != byte('a'+i) {
			t.Fatalf("block %d = %q after recovery", i, p[0])
		}
	}
}

func TestCrashNeverAliasesBlocks(t *testing.T) {
	// The invalidate-before-revalidate protocol: crash a slot re-mapping
	// at every operation boundary and require that a read of the evicted
	// block never returns the newcomer's data.
	rng := sim.NewRand(3)
	for k := int64(0); ; k++ {
		clock := sim.NewClock()
		rec := metrics.NewRecorder()
		mem := pmem.New(256<<10, pmem.NVDIMM, clock, rec)
		disk := blockdev.New(1<<16, blockdev.Null, clock, rec)
		c, err := Open(mem, disk, Options{assoc: 2})
		if err != nil {
			t.Fatal(err)
		}
		capacity := c.Capacity()
		// Fill, then overflow each set so every further write re-maps.
		for i := 0; i < capacity*2; i++ {
			if err := c.WriteBlock(uint64(i), blockOf(byte(i%250)+1)); err != nil {
				t.Fatal(err)
			}
		}
		written := capacity * 2
		mem.ArmCrash(k)
		crashed, _ := pmem.CatchCrash(func() {
			for i := written; i < written+64; i++ {
				if err := c.WriteBlock(uint64(i), blockOf(byte(i%250)+1)); err != nil {
					panic(err)
				}
			}
		})
		if !crashed {
			mem.DisarmCrash()
			t.Logf("re-mapping covered in %d operations", k)
			return
		}
		mem.Crash(rng, 0.5)
		c2, err := Open(mem, disk, Options{assoc: 2})
		if err != nil {
			t.Fatal(err)
		}
		p := make([]byte, BlockSize)
		for i := 0; i < written+64; i++ {
			if err := c2.ReadBlock(uint64(i), p); err != nil {
				t.Fatal(err)
			}
			// A block must read its own value, or zero if it was written
			// after the crash point and its write-back never happened.
			if p[0] != byte(i%250)+1 && p[0] != 0 {
				t.Fatalf("k=%d block %d aliased to value %d", k, i, p[0])
			}
		}
		if k > 600 {
			k += 37
		}
	}
}

func TestWriteHitRateClassic(t *testing.T) {
	r := newRig(t, 1<<20, Options{assoc: 8})
	r.cache.WriteBlock(1, blockOf(1))
	r.cache.WriteBlock(1, blockOf(2))
	if h, m := r.rec.Get(metrics.CacheWriteHit), r.rec.Get(metrics.CacheWriteMiss); h != 1 || m != 1 {
		t.Fatalf("write hits/misses = %d/%d, want 1/1", h, m)
	}
}
