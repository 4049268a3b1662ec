// Package core implements Tinca, the transactional NVM disk cache that is
// the paper's primary contribution (Section 4).
//
// The NVM space is partitioned exactly as in Figure 5 of the paper:
//
//	+-----------+------+------+-------------+---------------+-----------------+
//	| header    | Head | Tail | ring buffer | cache entries | cached blocks   |
//	| (64B)     | (64B)| (64B)| (8B slots)  | (16B each)    | (4KB each)      |
//	+-----------+------+------+-------------+---------------+-----------------+
//
// The ring buffer regulates committing transactions (Section 4.4): each
// slot records the on-disk block number of one committed block; Head and
// Tail are persistent 8-byte pointers updated with atomic stores. Cache
// entries are 16 bytes and carry the block's role (log/buffer), modified
// bit, on-disk block number, and the previous and current NVM block
// locations used by COW block writes. The paper updates an entry with one
// LOCK cmpxchg16b; the aligned 8-byte word is the only power-fail atomic
// unit here, so entry.go lays the entry out for that.
package core

import (
	"encoding/binary"
	"fmt"

	"tinca/internal/blockdev"
	"tinca/internal/pmem"
)

// BlockSize is the caching unit (4KB, Section 4.2).
const BlockSize = blockdev.BlockSize

// EntrySize is the size of one cache entry (16B, Section 4.2).
const EntrySize = 16

// RingSlotSize is the size of one ring-buffer element (8B, Section 4.4).
const RingSlotSize = 8

// mrSlotSize is the size of one log record when the log is split into
// several rings (Layout.Rings > 1): the 8B on-disk block number plus the 8B
// commit-point generation, written with one 16B store that may tear per
// word. A torn record is never read: seal phase C flushes and fences every
// record in [Tail, Head) before the Head persist that exposes it
// (DESIGN.md §8). The single ring keeps the paper's 8B slot and no
// generation (Head order is the commit order); with R independent rings
// only the global generation counter totally orders seals, so every record
// must carry it. writeRecord/readRecord/recordOff below are the only code
// that knows the difference.
const mrSlotSize = 16

// DefaultRingBytes is the paper's default ring buffer size (1MB).
const DefaultRingBytes = 1 << 20

// Fresh is the special tag stored as the previous NVM block number of an
// entry created by a write miss (Section 4.3): there is no previous
// version to roll back to.
const Fresh uint32 = 0xFFFFFFFF

const (
	layoutMagic   uint64 = 0x61636e6974 // "tinca"
	layoutVersion uint64 = 1
	// layoutVersionCkpt is the on-NVM version written when the checkpoint
	// region exists (Options.CheckpointIntervalNS > 0). Bumping the
	// version keeps a checkpointed image from being opened by a build (or
	// a configuration) that does not know the region is there; with the
	// option off the layout and version are byte-identical to
	// layoutVersion images.
	layoutVersionCkpt uint64 = 2
	// layoutVersionRings is the on-NVM version written when the log is
	// split into multiple per-shard rings (Options.CommitRings > 1): the
	// pointer areas replicate per ring and ring records widen to 16B
	// generation-stamped slots, so older builds must not mount the image.
	// With CommitRings <= 1 the layout and version are byte-identical to
	// the single-ring versions.
	layoutVersionRings uint64 = 3
)

// Checkpoint-region geometry (DESIGN.md §14). The region holds a delta
// journal of 8-byte records (one per entry slot first dirtied after the
// last checkpoint) followed by two alternating snapshot frames, each a
// 64B header plus Capacity worth of 24B records (slot number + raw entry).
const (
	ckptRecSize  = 24 // one frame payload record: u32 slot, u32 pad, 16B entry
	ckptFrameHdr = 64 // frame header: one cache line
)

// Layout describes where each NVM region lives. All offsets are cache-line
// aligned; the data area is additionally block aligned.
type Layout struct {
	HeaderOff int
	HeadOff   int // persistent Head pointer area (PtrSlots cache lines)
	TailOff   int // persistent Tail pointer area (PtrSlots cache lines)
	PtrSlots  int // wear-leveling rotation slots per pointer (1 = fixed)
	RingOff   int
	RingSlots int // number of 8B slots
	// Flight recorder region (DESIGN.md §13): FlightSlots 64B event
	// records between the ring and the entry table. Zero slots (the
	// default, Options.FlightRecorder off) collapses the region and keeps
	// the layout byte-identical to the paper's Figure 5.
	FlightOff   int
	FlightSlots int
	// Rings is the number of independent commit log rings (1 = the paper's
	// single ring). With Rings > 1 the Head/Tail areas hold Rings*PtrSlots
	// cache lines each (ring r's rotation slots start at r*PtrSlots), the
	// ring region is split into Rings equal sub-rings of RingSlots 16B
	// generation-stamped records each, and RingSlots is the PER-RING count.
	Rings int
	// Checkpoint region (DESIGN.md §14): a delta journal of
	// CkptJournalSlots 8B records followed by two alternating snapshot
	// frames, between the flight region and the entry table. Zero slots
	// (the default, Options.CheckpointIntervalNS zero) collapses the
	// region and keeps the layout byte-identical to the pre-checkpoint
	// versions.
	CkptOff          int
	CkptJournalSlots int
	EntryOff         int
	DataOff          int
	Capacity         int // number of 4KB NVM cache blocks == number of entry slots
}

// Header fields within the header line.
const (
	hdrMagic    = 0  // +0: magic
	hdrVersion  = 8  // +8: version
	hdrCapacity = 16 // +16: capacity (blocks)
	hdrRingSlot = 24 // +24: ring slots
	hdrPtrSlots = 32 // +32: pointer rotation slots
	hdrFlight   = 40 // +40: flight-recorder slots (0 = no region)
	hdrCkpt     = 48 // +48: checkpoint journal slots (0 = no region)
	hdrRings    = 56 // +56: commit rings (0 = single ring, pre-multi-ring images)
)

// DefaultPtrSlots is the rotation factor used when pointer wear leveling
// is enabled: Head/Tail updates spread over this many cache lines,
// dividing the hottest-line wear by the same factor.
const DefaultPtrSlots = 8

func alignUp(x, a int) int { return (x + a - 1) / a * a }

// LayoutParams are the knobs of ComputeLayout beyond the device size. The
// zero value is the paper's Figure 5 layout with the default 1MB ring.
type LayoutParams struct {
	RingBytes   int  // ring-buffer bytes, split evenly over Rings (0 = DefaultRingBytes)
	PtrSlots    int  // wear-leveling rotation lines per Head/Tail pointer (<= 1 keeps one fixed line)
	FlightSlots int  // 64B flight-recorder records between the ring and the entry table (0 = no region)
	Checkpoint  bool // carve the checkpoint region (DESIGN.md §14) ahead of the entry table
	Rings       int  // independent commit rings (<= 1 = the paper's single ring)
}

// ComputeLayout fits the Tinca regions into an NVM device of devSize bytes.
// Every optional region collapses to nothing when its parameter is zero, so
// the zero LayoutParams yield the paper's layout byte for byte: the flight
// region (256 slots = 16KiB = 4 data blocks) and the checkpoint region (a
// delta journal of Capacity+8 8B slots plus two alternating snapshot
// frames, sized per candidate capacity inside the solve loop) shift the
// entry/data areas and shave blocks off Capacity; with Rings > 1 the
// Head/Tail pointer areas replicate per ring and the ring bytes divide into
// Rings equal sub-rings of 16B generation-stamped records. It returns an
// error when the device is too small to hold even a handful of blocks.
func ComputeLayout(devSize int, p LayoutParams) (Layout, error) {
	ringBytes := p.RingBytes
	if ringBytes <= 0 {
		ringBytes = DefaultRingBytes
	}
	ringBytes = alignUp(ringBytes, pmem.LineSize)
	ptrSlots, flightSlots, rings := max(p.PtrSlots, 1), max(p.FlightSlots, 0), max(p.Rings, 1)
	var l Layout
	l.HeaderOff = 0
	l.PtrSlots = ptrSlots
	l.Rings = rings
	l.HeadOff = pmem.LineSize
	l.TailOff = l.HeadOff + rings*ptrSlots*pmem.LineSize
	l.RingOff = l.TailOff + rings*ptrSlots*pmem.LineSize
	l.RingSlots = ringBytes / RingSlotSize
	if rings > 1 {
		// Per-ring record count: the ring budget splits evenly, each record
		// is 16B, and the per-ring region stays line-aligned (4 records
		// per line) so sub-ring boundaries never share a cache line.
		l.RingSlots = ringBytes / (rings * mrSlotSize) / 4 * 4
		if l.RingSlots < 8 {
			return Layout{}, fmt.Errorf("core: %d-byte ring too small for %d commit rings", ringBytes, rings)
		}
	}
	l.FlightOff = l.RingOff + rings*l.RingSlots*l.recordSize()
	l.FlightSlots = flightSlots
	ckptBase := l.FlightOff + flightSlots*pmem.LineSize

	// Capacity: each cached block needs one 16B entry, one 4KB data block
	// and — with the checkpoint region on — one 8B journal slot plus two
	// 24B frame records. Solve with the cheap per-block denominator, then
	// walk down until the exact region sizes (alignment padding included)
	// fit the device.
	perBlock := BlockSize + EntrySize
	if p.Checkpoint {
		perBlock += RingSlotSize + 2*ckptRecSize
	}
	cap := (devSize - ckptBase) / perBlock
	for cap > 0 {
		if p.Checkpoint {
			jSlots := cap + 8
			l.CkptOff = ckptBase
			l.CkptJournalSlots = jSlots
			l.EntryOff = ckptBase + alignUp(jSlots*RingSlotSize, pmem.LineSize) +
				2*alignUp(ckptFrameHdr+l.ckptVecBytes()+cap*ckptRecSize, pmem.LineSize)
		} else {
			l.EntryOff = ckptBase
		}
		dataOff := alignUp(l.EntryOff+cap*EntrySize, BlockSize)
		if dataOff+cap*BlockSize <= devSize {
			l.DataOff = dataOff
			break
		}
		cap--
	}
	if cap < 8 {
		return Layout{}, fmt.Errorf("core: NVM device too small (%d bytes) for a Tinca layout with a %d-byte ring", devSize, ringBytes)
	}
	if cap > maxNVMBlocks {
		return Layout{}, fmt.Errorf("core: NVM device too large (%d bytes): %d blocks exceed the entry's %d-block field", devSize, cap, maxNVMBlocks)
	}
	l.Capacity = cap
	if p.Checkpoint {
		l.CkptJournalSlots = cap + 8
	}
	return l, nil
}

// version returns the on-NVM layout version this geometry is written
// under, and headerRings the value of the header's ring-count field:
// single-ring images predate the field and hold 0.
func (l Layout) version() uint64 {
	switch {
	case l.Rings > 1:
		return layoutVersionRings
	case l.CkptJournalSlots > 0:
		return layoutVersionCkpt
	}
	return layoutVersion
}

func (l Layout) headerRings() uint64 {
	if l.Rings > 1 {
		return uint64(l.Rings)
	}
	return 0
}

// entryOff returns the NVM offset of entry slot i.
func (l Layout) entryOff(i int) int { return l.EntryOff + i*EntrySize }

// blockOff returns the NVM offset of data block b.
func (l Layout) blockOff(b uint32) int { return l.DataOff + int(b)*BlockSize }

// ckptJournalOff returns the NVM offset of checkpoint-journal slot j.
func (l Layout) ckptJournalOff(j int) int { return l.CkptOff + j*RingSlotSize }

// ckptVecBytes returns the size of the per-ring head/tail vector stored at
// the start of each checkpoint frame payload (multi-ring layouts only):
// Rings pairs of 8B head + 8B tail. Zero for the single-ring layout, so
// pre-multi-ring frames are byte-identical.
func (l Layout) ckptVecBytes() int {
	if l.Rings <= 1 {
		return 0
	}
	return l.Rings * 2 * 8
}

// ckptFrameBytes returns the line-aligned size of one snapshot frame.
func (l Layout) ckptFrameBytes() int {
	return alignUp(ckptFrameHdr+l.ckptVecBytes()+l.Capacity*ckptRecSize, pmem.LineSize)
}

// ckptFrameOff returns the NVM offset of snapshot frame k (k in {0,1}).
func (l Layout) ckptFrameOff(k int) int {
	return l.CkptOff + alignUp(l.CkptJournalSlots*RingSlotSize, pmem.LineSize) + k*l.ckptFrameBytes()
}

// ringHeadOff returns the base of ring r's Head rotation-slot area
// (PtrSlots cache lines); ring 0's is HeadOff.
func (l Layout) ringHeadOff(r int) int { return l.HeadOff + r*l.PtrSlots*pmem.LineSize }

// ringTailOff is ringHeadOff for the Tail pointer.
func (l Layout) ringTailOff(r int) int { return l.TailOff + r*l.PtrSlots*pmem.LineSize }

// ringHeadSlotOff returns where to store ring r's Head value v: with wear
// leveling the store rotates across the ring's PtrSlots cache lines (the
// value itself selects the line, so recovery can take the maximum over all
// of them).
func (l Layout) ringHeadSlotOff(r int, v uint64) int {
	return l.ringHeadOff(r) + int(v%uint64(l.PtrSlots))*pmem.LineSize
}

// ringTailSlotOff is ringHeadSlotOff for the Tail pointer.
func (l Layout) ringTailSlotOff(r int, v uint64) int {
	return l.ringTailOff(r) + int(v%uint64(l.PtrSlots))*pmem.LineSize
}

// The log record format is the one thing about the commit log that depends
// on the ring count. A single ring keeps the paper's 8-byte block-number
// slot: there is one pending window, Head order is the commit order, and
// readRecord reports generation 0 for every record so the whole window
// reads as one seal. Several rings hold 16-byte {block number, generation}
// records, because only the generation orders seals across rings.

// recordSize is the size of one log record.
func (l Layout) recordSize() int {
	if l.Rings > 1 {
		return mrSlotSize
	}
	return RingSlotSize
}

// recordOff returns the NVM offset of ring r's log record for monotonic
// per-ring position p (records are used round-robin).
func (l Layout) recordOff(r int, p uint64) int {
	return l.RingOff + (r*l.RingSlots+int(p%uint64(l.RingSlots)))*l.recordSize()
}

// writeRecord stores and flushes (no fence) the record naming disk block no
// under commit-point generation gen at position p of ring r.
func (l Layout) writeRecord(mem *pmem.Device, r int, p, no, gen uint64) {
	off := l.recordOff(r, p)
	if l.Rings > 1 {
		var rec [mrSlotSize]byte
		binary.LittleEndian.PutUint64(rec[0:], no)
		binary.LittleEndian.PutUint64(rec[8:], gen)
		mem.Store(off, rec[:])
	} else {
		mem.Store8(off, no)
	}
	mem.CLFlush(off, l.recordSize())
}

// readRecord loads the record at position p of ring r.
func (l Layout) readRecord(mem *pmem.Device, r int, p uint64) (no, gen uint64) {
	off := l.recordOff(r, p)
	if l.Rings > 1 {
		v := mem.Load16(off)
		return binary.LittleEndian.Uint64(v[0:8]), binary.LittleEndian.Uint64(v[8:16])
	}
	return mem.Load8(off), 0
}
