package core

import "encoding/binary"

// Role of a cached block (Section 4.3). A block being committed carries
// the log role; on completion of the whole transaction it is switched to
// the buffer role. Only buffer blocks may be flushed to disk for
// replacement.
type Role byte

const (
	// RoleBuffer marks a stationary cached block, eligible for replacement.
	RoleBuffer Role = iota
	// RoleLog marks a block that belongs to the ongoing committing
	// transaction; it is pinned in the cache and revoked on crash unless
	// the transaction completed.
	RoleLog
)

func (r Role) String() string {
	if r == RoleLog {
		return "log"
	}
	return "buffer"
}

// entry is the decoded form of a 16-byte cache entry: two little-endian
// 8-byte words, laid out so that every transition survives a crash that
// persists one word without the other (aligned 8 bytes is the only
// power-fail atomic unit the hardware promises):
//
//	word 0: bit 0 valid, bits 1..7 zero, bits 8..63 on-disk block number
//	word 1: bit 0 present, bit 1 R (role, 1=log), bit 2 M (modified),
//	        bit 3 zero, bits 4..33 previous NVM block (all ones = Fresh),
//	        bits 34..63 current NVM block
//
// Word 0 changes only at install and evict. Every other transition — COW
// redirect, role switch, revoke to the previous version, write-back clean —
// rewrites word 1 alone, so a crash leaves it whole or not at all. An entry
// is live iff valid and present are both set (and the zero bits are zero).
// Install and evict change both words, but one side of each is the all-zero
// free slot, so either torn mix decodes as not live: an install's
// before-state or an evict's after-state. That needs a free slot to be 16
// zero bytes in the persistence domain: a formatted table is zero,
// clearEntry persists zeros under a fence, and recovery zeroes any slot a
// torn install or evict left half-written.
type entry struct {
	valid    bool
	role     Role
	modified bool
	disk     uint64 // on-disk block number (max 2^56-1)
	prev     uint32 // previous NVM block, Fresh when none
	cur      uint32 // current NVM block
}

const (
	w0Valid    = 1 << 0
	w0Zero     = 0xFE // bits 1..7
	w0DiskBit  = 8
	w1Present  = 1 << 0
	w1RoleLog  = 1 << 1
	w1Modified = 1 << 2
	w1Zero     = 1 << 3
	w1PrevBit  = 4
	w1CurBit   = 34
	// blockMask is the 30-bit NVM block field; all ones in prev is Fresh.
	blockMask = 1<<30 - 1
)

// maxDiskBlock is the largest representable on-disk block number (56 bits).
const maxDiskBlock = 1<<56 - 1

// maxNVMBlocks is the largest entry-table capacity: NVM block indices run
// to maxNVMBlocks-1, below the all-ones Fresh tag (2^30 blocks is 4 TiB).
const maxNVMBlocks = blockMask

func encodeEntry(e entry) (b [16]byte) {
	if !e.valid {
		return b
	}
	prev := uint64(e.prev)
	if e.prev == Fresh {
		prev = blockMask
	}
	if e.disk > maxDiskBlock || prev > blockMask || uint64(e.cur) > blockMask {
		panic("core: cache entry field out of range")
	}
	w1 := w1Present | prev<<w1PrevBit | uint64(e.cur)<<w1CurBit
	if e.role == RoleLog {
		w1 |= w1RoleLog
	}
	if e.modified {
		w1 |= w1Modified
	}
	binary.LittleEndian.PutUint64(b[0:], w0Valid|e.disk<<w0DiskBit)
	binary.LittleEndian.PutUint64(b[8:], w1)
	return b
}

// decodeEntry decodes any 16 bytes; whatever encodeEntry cannot have
// written, a torn half included, decodes as the not-live zero entry.
func decodeEntry(b [16]byte) entry {
	w0 := binary.LittleEndian.Uint64(b[0:])
	w1 := binary.LittleEndian.Uint64(b[8:])
	if w0&(w0Valid|w0Zero) != w0Valid || w1&(w1Present|w1Zero) != w1Present {
		return entry{}
	}
	e := entry{
		valid:    true,
		modified: w1&w1Modified != 0,
		disk:     w0 >> w0DiskBit,
		prev:     uint32(w1 >> w1PrevBit & blockMask),
		cur:      uint32(w1 >> w1CurBit),
	}
	if e.prev == blockMask {
		e.prev = Fresh
	}
	if w1&w1RoleLog != 0 {
		e.role = RoleLog
	}
	return e
}
