package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// testRig bundles a small Tinca stack for unit tests.
type testRig struct {
	clock *sim.Clock
	rec   *metrics.Recorder
	mem   *pmem.Device
	disk  *blockdev.Device
	cache *Cache
}

func newRig(t *testing.T, nvmBytes int, opts Options) *testRig {
	t.Helper()
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(nvmBytes, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<20, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return &testRig{clock: clock, rec: rec, mem: mem, disk: disk, cache: c}
}

// reopen simulates a restart on the same devices (recovery path).
func (r *testRig) reopen(t *testing.T, opts Options) {
	t.Helper()
	c, err := Open(r.mem, r.disk, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	r.cache = c
}

func blockOf(b byte) []byte {
	p := make([]byte, BlockSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func mustRead(t *testing.T, c *Cache, no uint64) []byte {
	t.Helper()
	p := make([]byte, BlockSize)
	if err := c.Read(no, p); err != nil {
		t.Fatalf("Read(%d): %v", no, err)
	}
	return p
}

func TestComputeLayoutFits(t *testing.T) {
	for _, size := range []int{1 << 20, 4 << 20, 64 << 20} {
		l, err := ComputeLayout(size, LayoutParams{RingBytes: 4096})
		if err != nil {
			t.Fatalf("ComputeLayout(%d): %v", size, err)
		}
		if l.DataOff%BlockSize != 0 {
			t.Errorf("data area not block aligned: %d", l.DataOff)
		}
		if l.DataOff+l.Capacity*BlockSize > size {
			t.Errorf("layout overflows device: data end %d > %d", l.DataOff+l.Capacity*BlockSize, size)
		}
		if l.EntryOff+l.Capacity*EntrySize > l.DataOff {
			t.Errorf("entry table overlaps data area")
		}
		if l.Capacity < 8 {
			t.Errorf("capacity too small: %d", l.Capacity)
		}
	}
}

func TestComputeLayoutTooSmall(t *testing.T) {
	if _, err := ComputeLayout(8192, LayoutParams{RingBytes: 4096}); err == nil {
		t.Fatal("expected error for tiny device")
	}
}

func TestComputeLayoutDefaultRing(t *testing.T) {
	l, err := ComputeLayout(64<<20, LayoutParams{})
	if err != nil {
		t.Fatal(err)
	}
	if l.RingSlots != DefaultRingBytes/RingSlotSize {
		t.Fatalf("default ring slots = %d, want %d", l.RingSlots, DefaultRingBytes/RingSlotSize)
	}
}

func TestEntryRoundTrip(t *testing.T) {
	f := func(disk uint64, prev, cur uint32, fresh, role, mod bool) bool {
		e := entry{valid: true, disk: disk % (maxDiskBlock + 1), prev: prev % maxNVMBlocks, cur: cur % maxNVMBlocks, modified: mod}
		if fresh {
			e.prev = Fresh
		}
		if role {
			e.role = RoleLog
		}
		return decodeEntry(encodeEntry(e)) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntryZeroInvalid(t *testing.T) {
	if decodeEntry([16]byte{}).valid {
		t.Fatal("zero entry decoded as valid")
	}
	if got := encodeEntry(entry{}); got != [16]byte{} {
		t.Fatalf("invalid entry encoded non-zero: %v", got)
	}
}

func TestCommitAndRead(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	txn := r.cache.Begin()
	txn.Write(10, blockOf('a'))
	txn.Write(11, blockOf('b'))
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := mustRead(t, r.cache, 10); got[0] != 'a' {
		t.Errorf("block 10 = %q, want 'a'", got[0])
	}
	if got := mustRead(t, r.cache, 11); got[0] != 'b' {
		t.Errorf("block 11 = %q, want 'b'", got[0])
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitEmpty(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	if err := r.cache.Begin().Commit(); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
	if got := r.rec.Get(metrics.TxnCommit); got != 0 {
		t.Fatalf("empty commit counted: %d", got)
	}
}

func TestCommitCOWOverwrite(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	for round := 0; round < 5; round++ {
		txn := r.cache.Begin()
		txn.Write(7, blockOf(byte('a'+round)))
		if err := txn.Commit(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := mustRead(t, r.cache, 7)[0]; got != byte('a'+round) {
			t.Fatalf("round %d read %q", round, got)
		}
		if err := r.cache.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// COW must not leak blocks: one resident block, rest free.
	if free := r.cache.FreeBlocks(); free != r.cache.Capacity()-1 {
		t.Fatalf("free blocks = %d, want %d", free, r.cache.Capacity()-1)
	}
	if cow := r.rec.Get(metrics.TxnCOWBlocks); cow != 4 {
		t.Fatalf("COW count = %d, want 4", cow)
	}
}

func TestTxnLatestWriteWins(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	txn := r.cache.Begin()
	txn.Write(3, blockOf('x'))
	txn.Write(3, blockOf('y'))
	if txn.Len() != 1 {
		t.Fatalf("txn.Len = %d, want 1 (coalesced)", txn.Len())
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, r.cache, 3)[0]; got != 'y' {
		t.Fatalf("read %q, want 'y'", got)
	}
}

func TestAbortDiscards(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	txn := r.cache.Begin()
	txn.Write(5, blockOf('z'))
	txn.Abort()
	if r.cache.Contains(5) {
		t.Fatal("aborted block cached")
	}
	if got := r.rec.Get(metrics.TxnAbort); got != 1 {
		t.Fatalf("abort count = %d", got)
	}
}

func TestTxnTooLarge(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 64}) // 8 ring slots
	txn := r.cache.Begin()
	for i := uint64(0); i < 9; i++ {
		txn.Write(i, blockOf(byte(i)))
	}
	if err := txn.Commit(); err != ErrTxnTooLarge {
		t.Fatalf("err = %v, want ErrTxnTooLarge", err)
	}
}

func TestRingWrapAround(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 64}) // 8 slots
	for round := 0; round < 10; round++ {
		txn := r.cache.Begin()
		for i := uint64(0); i < 5; i++ {
			txn.Write(i, blockOf(byte(round)))
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, r.cache, 4)[0]; got != 9 {
		t.Fatalf("read %d, want 9", got)
	}
}

func TestEvictionWritesBack(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	capacity := r.cache.Capacity()
	// Commit more distinct blocks than the cache holds.
	total := capacity + 20
	for i := 0; i < total; i++ {
		txn := r.cache.Begin()
		txn.Write(uint64(i), blockOf(byte(i%251)))
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if ev := r.rec.Get(metrics.CacheEvict); ev == 0 {
		t.Fatal("no evictions happened")
	}
	if dw := r.rec.Get(metrics.DiskBlocksWrite); dw == 0 {
		t.Fatal("no disk write-back happened")
	}
	// Every block, cached or evicted, must read back correctly.
	for i := 0; i < total; i++ {
		if got := mustRead(t, r.cache, uint64(i))[0]; got != byte(i%251) {
			t.Fatalf("block %d = %d, want %d", i, got, byte(i%251))
		}
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUOrderRespected(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	capacity := r.cache.Capacity()
	for i := 0; i < capacity; i++ {
		txn := r.cache.Begin()
		txn.Write(uint64(i), blockOf(1))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Touch block 0 so block 1 becomes the LRU victim.
	mustRead(t, r.cache, 0)
	txn := r.cache.Begin()
	txn.Write(uint64(capacity), blockOf(2))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if !r.cache.Contains(0) {
		t.Fatal("recently used block 0 was evicted")
	}
	if r.cache.Contains(1) {
		t.Fatal("LRU block 1 survived eviction")
	}
}

func TestReadMissFillsFromDisk(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	want := blockOf('d')
	r.disk.WriteBlock(42, want)
	got := mustRead(t, r.cache, 42)
	if !bytes.Equal(got, want) {
		t.Fatal("read-miss data mismatch")
	}
	if !r.cache.Contains(42) {
		t.Fatal("read miss did not populate cache")
	}
	if h := r.rec.Get(metrics.CacheReadMiss); h != 1 {
		t.Fatalf("read miss count = %d", h)
	}
	mustRead(t, r.cache, 42)
	if h := r.rec.Get(metrics.CacheReadHit); h != 1 {
		t.Fatalf("read hit count = %d", h)
	}
}

func TestFlushAllCleans(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	txn := r.cache.Begin()
	txn.Write(9, blockOf('f'))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, BlockSize)
	r.disk.ReadBlock(9, p)
	if p[0] != 'f' {
		t.Fatal("FlushAll did not reach disk")
	}
	for no, dirty := range r.cache.ResidentBlocks() {
		if dirty {
			t.Fatalf("block %d still dirty after FlushAll", no)
		}
	}
}

func TestCleanReopenKeepsContents(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	txn := r.cache.Begin()
	txn.Write(77, blockOf('k'))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Commits persist everything they touch, so even an abrupt stop (no
	// Close) must preserve the committed block across reopen.
	r.mem.Crash(nil, 0)
	r.reopen(t, Options{RingBytes: 4096})
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, r.cache, 77)[0]; got != 'k' {
		t.Fatalf("block lost across reopen: %q", got)
	}
}

func TestClosedCacheRejects(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	if err := r.cache.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.cache.Read(1, make([]byte, BlockSize)); err != ErrClosed {
		t.Fatalf("Read after Close: %v", err)
	}
	txn := r.cache.Begin()
	txn.Write(1, blockOf(1))
	if err := txn.Commit(); err != ErrClosed {
		t.Fatalf("Commit after Close: %v", err)
	}
}

func TestWriteHitRate(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	for i := 0; i < 2; i++ {
		txn := r.cache.Begin()
		txn.Write(1, blockOf(byte(i)))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.cache.Stats(); st.WriteHits != 1 || st.WriteMisses != 1 {
		t.Fatalf("write hits/misses = %d/%d, want 1/1", st.WriteHits, st.WriteMisses)
	}
}

func TestShortReadBufferRejected(t *testing.T) {
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	if err := r.cache.Read(0, make([]byte, 16)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestCOWHitOnLRUTailNotEvicted(t *testing.T) {
	// Regression: committing a write hit allocates the COW copy *before*
	// the entry gains the log role. If the hit target is the LRU victim
	// at that moment and the cache is full, replacement rule 2 must still
	// protect it (the paper: "neither copy is allowed for replacement").
	r := newRig(t, 1<<20, Options{RingBytes: 4096})
	capacity := r.cache.Capacity()
	// Fill the cache completely; block 0 becomes the LRU tail.
	for i := 0; i < capacity; i++ {
		txn := r.cache.Begin()
		txn.Write(uint64(i), blockOf(byte(i%250)+1))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if free := r.cache.FreeBlocks(); free != 0 {
		t.Fatalf("cache not full: %d free", free)
	}
	// Commit a hit on the LRU-tail block: the COW allocation must evict
	// some *other* block, never the hit target itself.
	txn := r.cache.Begin()
	txn.Write(0, blockOf(200))
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := mustRead(t, r.cache, 0)[0]; got != 200 {
		t.Fatalf("hit target lost its committed value: %d", got)
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUValidateAfterChurn(t *testing.T) {
	// The intrusive list stays structurally sound under heavy mixed churn.
	r := newRig(t, 512<<10, Options{RingBytes: 1024})
	rng := sim.NewRand(5)
	for op := 0; op < 3000; op++ {
		no := uint64(rng.Intn(300))
		if rng.Intn(3) == 0 {
			mustRead(t, r.cache, no)
		} else {
			txn := r.cache.Begin()
			txn.Write(no, blockOf(byte(op%251)))
			if err := txn.Commit(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	for s := range r.cache.shards {
		r.cache.shards[s].lru.validate("after-churn")
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeLayoutProperties(t *testing.T) {
	// Property: for any sane device/ring/rotation combination, the layout
	// regions are ordered, aligned and within the device.
	fn := func(sizeMB uint8, ringKB uint16, rotate bool) bool {
		size := (int(sizeMB%63) + 1) << 20
		ring := int(ringKB%512+1) << 10
		ptr := 1
		if rotate {
			ptr = DefaultPtrSlots
		}
		l, err := ComputeLayout(size, LayoutParams{RingBytes: ring, PtrSlots: ptr})
		if err != nil {
			return size < 2<<20 // only tiny devices may fail
		}
		return l.HeadOff > l.HeaderOff &&
			l.TailOff >= l.HeadOff+ptr*64 &&
			l.RingOff >= l.TailOff+ptr*64 &&
			l.EntryOff >= l.RingOff+l.RingSlots*RingSlotSize &&
			l.DataOff >= l.EntryOff+l.Capacity*EntrySize &&
			l.DataOff%BlockSize == 0 &&
			l.DataOff+l.Capacity*BlockSize <= size &&
			l.Capacity >= 8
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUAgainstReferenceModel(t *testing.T) {
	// Property: the intrusive list behaves exactly like a slice-based
	// reference under random push/remove/touch sequences.
	const capacity = 24
	l := newLRU(capacity)
	var ref []int32 // ref[0] = MRU
	inList := make(map[int32]bool)
	rng := sim.NewRand(99)

	refRemove := func(i int32) {
		for j, v := range ref {
			if v == i {
				ref = append(ref[:j], ref[j+1:]...)
				return
			}
		}
	}
	for op := 0; op < 20000; op++ {
		i := int32(rng.Intn(capacity))
		switch rng.Intn(3) {
		case 0: // push if absent
			if !inList[i] {
				l.pushFront(i)
				ref = append([]int32{i}, ref...)
				inList[i] = true
			}
		case 1: // remove if present
			if inList[i] {
				l.remove(i)
				refRemove(i)
				inList[i] = false
			}
		case 2: // touch if present
			if inList[i] {
				l.touch(i)
				refRemove(i)
				ref = append([]int32{i}, ref...)
			}
		}
		if l.len() != len(ref) {
			t.Fatalf("op %d: len %d != ref %d", op, l.len(), len(ref))
		}
	}
	l.validate("against-model")
	// Final order check: walk MRU->LRU via next pointers.
	i := l.head
	for idx := 0; idx < len(ref); idx++ {
		if i != ref[idx] {
			t.Fatalf("order mismatch at %d: %d != %d", idx, i, ref[idx])
		}
		i = l.next[i]
	}
	if i != lruNil {
		t.Fatal("list longer than reference")
	}
}

// TestReformatOverOldImage flips one geometry option across a restart of
// a device that holds a populated image. Open must reformat, and the new
// cache must not inherit anything the old layout left where the new entry
// table and pointer rotation slots sit: invariants hold at once, and after
// one commit and a crash the remount finds exactly that one block.
func TestReformatOverOldImage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flipped Options
	}{
		{"RingBytes", Options{RingBytes: 8192}},
		{"Checkpoint", Options{RingBytes: 4096, CheckpointIntervalNS: DefaultCheckpointIntervalNS}},
		{"RotatePointers", Options{RingBytes: 4096, RotatePointers: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 4<<20, Options{RingBytes: 4096})
			for no := uint64(0); no < 200; no++ {
				if err := r.cache.CommitBlocks([]uint64{no}, [][]byte{blockOf('A')}); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.cache.Close(); err != nil {
				t.Fatal(err)
			}
			r.reopen(t, tc.flipped)
			if r.cache.RecoveryStats().Ran {
				t.Fatal("geometry flip did not reformat")
			}
			if err := r.cache.CheckInvariants(); err != nil {
				t.Fatalf("after reformat: %v", err)
			}
			if err := r.cache.CommitBlocks([]uint64{7}, [][]byte{blockOf('B')}); err != nil {
				t.Fatal(err)
			}
			r.mem.Crash(nil, 0)
			r.reopen(t, tc.flipped)
			if rs := r.cache.RecoveryStats(); !rs.Ran || rs.Resident != 1 {
				t.Fatalf("remount after reformat + one commit: %+v", rs)
			}
			if got := mustRead(t, r.cache, 7); !bytes.Equal(got, blockOf('B')) {
				t.Fatal("the post-reformat commit was lost")
			}
		})
	}
}
