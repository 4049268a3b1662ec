// Checkpoint subsystem (DESIGN.md §14).
//
// The checkpoint region turns O(capacity) restart work into O(resident +
// deltas): a periodic writer snapshots the valid entry table into one of
// two alternating frames, and a tiny delta journal names every entry slot
// mutated since the active frame was written. Recovery loads the newest
// valid frame, re-reads only the journaled slots from the live entry
// table, and skips the full-table NVM scan entirely.
//
// Write ordering (all with the existing persist primitives, so every
// boundary is a crash boundary the exhaustive sweep visits):
//
//  1. Journal-first: before an entry slot's first mutation after a
//     checkpoint, an 8B record {epoch, slot} is persisted into the
//     journal. A crash between the journal write and the entry write
//     leaves a spurious record — harmless, since replay re-reads the
//     CURRENT entry bytes rather than logged values. The reverse order
//     would lose deltas, which is fatal.
//  2. Frame payload before frame header: the inactive frame's records are
//     persisted first, then its 64B checksummed header. A crash in
//     between leaves the old frame (with its still-epoch-consistent
//     journal) as the newest valid checkpoint.
//  3. The header's epoch is the commit point: once it lands, journal
//     records tagged with the old epoch no longer match and replay
//     degenerates to zero deltas — correct, because the frame snapshots
//     every entry.
package core

import (
	"encoding/binary"
	"sync"

	"tinca/internal/flight"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
)

// ckptMagic marks a valid frame header ("tinchkpt").
const ckptMagic uint64 = 0x74706b68636e6974

// DefaultCheckpointIntervalNS is the customary Options.CheckpointIntervalNS
// (1ms — a few thousand commits on the stock NVDIMM profile).
const DefaultCheckpointIntervalNS int64 = 1_000_000

// ckptState is the DRAM side of the checkpoint writer.
type ckptState struct {
	// mu guards everything below plus the journal region's append
	// position. Leaf-level below the shard locks: ckptJournal takes it
	// while holding one shard lock (different shards' mutators — fills
	// and evictions take no ring lock — would otherwise race on the
	// append position); only the pmem device lock is taken inside.
	// writeCheckpointLocked additionally holds every ring's seal lock and
	// all shard locks, which quiesces every mutator across its whole
	// frame write.
	mu        sync.Mutex
	epoch     uint64  // epoch of the active (last written) frame
	frame     int     // index of the INACTIVE frame, written next
	marks     []int32 // journaled slots this epoch, in journal order
	journaled []bool  // per-slot "already journaled this epoch" bitmap
	lastNS    int64   // simulated time of the last checkpoint write
	interval  int64   // minimum simulated ns between checkpoints
}

// ckptMix64/ckptSum mirror the flight recorder's checksum idiom
// (splitmix64 finalizer folded over 8-byte words).
func ckptMix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func ckptSum(p []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for len(p) >= 8 {
		h = ckptMix64(h ^ binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return h
}

// ckptJournal records slot i in the delta journal before its first
// mutation of the current epoch. Called at the top of writeEntry /
// storeEntry / clearEntry, i.e. strictly before the entry's own persist;
// see the ordering argument at the top of the file. No-op without the
// checkpoint region. The caller holds slot i's shard lock (or is the
// single-threaded recovery pass), so the journaled bitmap cannot race the
// checkpoint writer's reset, which holds all shard locks.
func (c *Cache) ckptJournal(i int) {
	k := c.ckpt
	if k == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.journaled[i] {
		return
	}
	j := len(k.marks)
	if j >= c.lay.CkptJournalSlots {
		// Sized as Capacity+8: every slot fits with room to spare, so
		// overflow means state corruption, not load.
		panic("core: checkpoint journal overflow")
	}
	rec := uint64(uint32(k.epoch))<<32 | uint64(uint32(i))
	c.mem.Persist8(c.lay.ckptJournalOff(j), rec)
	k.journaled[i] = true
	k.marks = append(k.marks, int32(i))
	c.rec.Inc(metrics.CkptJournalRecs)
}

// maybeCheckpoint writes a checkpoint if the interval elapsed. Called
// after commit points. The quiescence it needs is every ring's seal lock
// (no seal in flight ⇒ no entry is mid-commit in RoleLog state and every
// ring has head == tail), so the snapshot is transactionally consistent.
// Callers must hold NO ring lock — the trigger acquires all of them in
// index order.
func (c *Cache) maybeCheckpoint() {
	k := c.ckpt
	if k == nil {
		return
	}
	due := func() (int64, bool) {
		now := int64(c.mem.Clock().Now())
		k.mu.Lock()
		defer k.mu.Unlock()
		return now, now-k.lastNS >= k.interval
	}
	if _, ok := due(); !ok {
		return
	}
	c.lockRings()
	defer c.unlockRings()
	// Re-check under the ring locks: a racing committer may have written
	// the checkpoint while this one waited.
	now, ok := due()
	if !ok {
		return
	}
	c.lockAllShards()
	defer c.unlockAllShards()
	c.writeCheckpointLocked(now)
}

// writeCheckpointLocked persists the inactive frame and retires the
// delta journal. Caller holds every ring's seal lock and all shard locks,
// so every mutator is quiesced, no entry is in the log role and the cached
// ring pointers are the persisted ones.
func (c *Cache) writeCheckpointLocked(now int64) {
	k := c.ckpt
	lay := c.lay
	t0 := int64(c.mem.Clock().Now())
	head, tail := c.ckptHeaderPointers()
	c.flEmit(flight.EvCkptBegin, 0, k.epoch+1, head, tail)

	// Snapshot the whole entry region in one bulk load (4 entries/line —
	// ~4x cheaper than per-entry Load16), then pack the valid entries.
	raw := make([]byte, lay.Capacity*EntrySize)
	c.mem.Load(lay.EntryOff, raw)
	payload := make([]byte, lay.ckptVecBytes(), lay.ckptVecBytes()+64*ckptRecSize)
	for r := 0; r*16 < len(payload); r++ {
		binary.LittleEndian.PutUint64(payload[r*16:], c.rings[r].head)
		binary.LittleEndian.PutUint64(payload[r*16+8:], c.rings[r].tail)
	}
	count := 0
	for i := 0; i < lay.Capacity; i++ {
		var eb [16]byte
		copy(eb[:], raw[i*EntrySize:])
		e := decodeEntry(eb)
		if !e.valid {
			continue
		}
		if e.role == RoleLog {
			// Commit points never expose log-role entries (head == tail).
			panic("core: checkpoint saw a log-role entry at a commit point")
		}
		var rec [ckptRecSize]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(i))
		copy(rec[8:], eb[:])
		payload = append(payload, rec[:]...)
		count++
	}

	epoch := k.epoch + 1
	frameOff := lay.ckptFrameOff(k.frame)
	if len(payload) > 0 {
		c.mem.PersistRange(frameOff+ckptFrameHdr, payload)
	}
	var hdr [ckptFrameHdr]byte
	binary.LittleEndian.PutUint64(hdr[0:], ckptMagic)
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	binary.LittleEndian.PutUint64(hdr[16:], head)
	binary.LittleEndian.PutUint64(hdr[24:], tail)
	// The generation counter, so SealHook sequences stay monotonic across
	// a checkpointed restart (loadMirrorCheckpoint restores it).
	binary.LittleEndian.PutUint64(hdr[32:], c.gen.Load())
	binary.LittleEndian.PutUint64(hdr[40:], uint64(count))
	binary.LittleEndian.PutUint64(hdr[48:], ckptSum(payload))
	binary.LittleEndian.PutUint64(hdr[56:], ckptSum(hdr[:56]))
	c.mem.PersistRange(frameOff, hdr[:])

	// Commit point passed: retire the journal epoch in DRAM. All shard
	// locks are held, so no mutator is mid-append; k.mu is still taken so
	// the unsynchronized reads in ckptJournal stay race-detector clean.
	k.mu.Lock()
	k.epoch = epoch
	for _, s := range k.marks {
		k.journaled[s] = false
	}
	k.marks = k.marks[:0]
	k.frame ^= 1
	k.lastNS = now
	k.mu.Unlock()

	c.rec.Inc(metrics.CkptWrites)
	c.rec.Add(metrics.CkptEntries, int64(count))
	c.flEmit(flight.EvCkptDone, 0, epoch, uint64(count), 0)
	if c.obs != nil {
		c.obs.phase(c.obs.ckpt, 0, spanCkpt, t0, c.obs.gid())
	}
}

// Where a frame records the ring pointers is part of the R-dependent image
// format: the single-ring frame keeps them in its header and has no vector
// (ckptVecBytes is 0); a multi-ring frame opens its payload with one
// {head, tail} pair per ring and leaves the header fields zero. Both are
// diagnostic — recovery takes the pointers from their rotation slots.
func (c *Cache) ckptHeaderPointers() (head, tail uint64) {
	if c.lay.Rings > 1 {
		return 0, 0
	}
	return c.rings[0].head, c.rings[0].tail
}

// formatCheckpoint initializes the checkpoint region during format():
// zero the journal and BOTH frame headers (a reformat over a previously
// checkpointed same-geometry device must not leave a stale valid frame
// with a higher epoch), then persist an empty epoch-1 frame 0 so a crash
// before the first periodic checkpoint still recovers through the
// checkpoint path. format() itself is never a crash site (crashes are
// armed only after the stack is up).
func (c *Cache) formatCheckpoint() {
	k := c.ckpt
	lay := c.lay
	jBytes := alignUp(lay.CkptJournalSlots*RingSlotSize, pmem.LineSize)
	c.mem.Store(lay.CkptOff, make([]byte, jBytes))
	c.mem.CLFlush(lay.CkptOff, jBytes)
	zero := make([]byte, ckptFrameHdr)
	for f := 0; f < 2; f++ {
		c.mem.Store(lay.ckptFrameOff(f), zero)
		c.mem.CLFlush(lay.ckptFrameOff(f), ckptFrameHdr)
	}
	c.mem.SFence()

	// Even an empty frame carries the layout's per-ring {head, tail} vector
	// (all zero at format time) — the reader always expects it ahead of the
	// records and checksums it with them.
	payload := make([]byte, lay.ckptVecBytes())
	if len(payload) > 0 {
		c.mem.PersistRange(lay.ckptFrameOff(0)+ckptFrameHdr, payload)
	}
	var hdr [ckptFrameHdr]byte
	binary.LittleEndian.PutUint64(hdr[0:], ckptMagic)
	binary.LittleEndian.PutUint64(hdr[8:], 1) // epoch
	binary.LittleEndian.PutUint64(hdr[48:], ckptSum(payload))
	binary.LittleEndian.PutUint64(hdr[56:], ckptSum(hdr[:56]))
	c.mem.PersistRange(lay.ckptFrameOff(0), hdr[:])
	k.epoch = 1
	k.frame = 1
}
