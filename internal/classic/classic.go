// Package classic implements the baseline cache manager the paper compares
// Tinca against (Section 5.1, "Classic"): a Flashcache-style set-
// associative write-back cache that treats the NVM as a block device.
//
// Its two defining properties — both sources of write amplification the
// paper measures — are:
//
//  1. Cache metadata is organized in a *block format*: 16B records packed
//     into 4KB metadata blocks, one region up front.
//  2. Metadata is updated *synchronously*: every cached write persists the
//     entire 4KB metadata block covering the touched slot (64 line
//     flushes), and re-mapping a slot to a new disk block persists it
//     twice (invalidate, then validate) so a crash can never alias one
//     block's data to another's mapping.
//
// Like Flashcache, Classic has no transactional interface: crash
// consistency of file-system data must come from a journaling layer above
// (internal/jbd).
package classic

import (
	"errors"
	"fmt"
	"sync"

	"tinca/internal/blockdev"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
)

// BlockSize is the caching unit (4KB).
const BlockSize = blockdev.BlockSize

// recordSize is the on-NVM size of one slot's metadata record.
const recordSize = 16

// recordsPerBlock is how many slot records one metadata block holds.
const recordsPerBlock = BlockSize / recordSize

// DefaultAssoc is the set associativity (Flashcache's default is 512).
const DefaultAssoc = 512

const (
	classicMagic   uint64 = 0x63697373616c63 // "classic"
	classicVersion uint64 = 1
)

// ErrClosed is returned by operations on a closed cache.
var ErrClosed = errors.New("classic: cache closed")

// Options configure a Classic cache.
type Options struct {
	// NoMetaUpdates suppresses synchronous metadata-block writes (the
	// Figure 4 ablation: "if updating metadata is fully waived").
	// Mapping changes then live only in DRAM; unsafe across crashes.
	NoMetaUpdates bool
	// NoPersistBarriers suppresses clflush/sfence after data writes (the
	// Figure 3(b) leftmost bar: writes reach NVM without ordering
	// instructions). Unsafe across crashes.
	NoPersistBarriers bool
	// JournalBoundary, when non-zero, classifies writes to device blocks
	// >= the boundary (the journal area above the file system span) under
	// separate hit/miss counters, so data-block hit rates are comparable
	// with Tinca's. Purely instrumentation; caching behaviour is
	// unchanged.
	JournalBoundary uint64

	// assoc is the set associativity; DefaultAssoc when 0 (clamped to the
	// capacity for small caches). Unexported: only tests shrink it, so a
	// few blocks exercise set conflicts.
	assoc int
}

// slotMeta is the decoded metadata record of one cache slot. The record
// occupies a 16-byte, block-format cell (the amplification the paper
// measures comes from rewriting whole 4KB metadata blocks), but all live
// fields are packed into the cell's *first 8-byte word*:
//
//	byte 0      : flags — bit0 valid, bit1 dirty
//	byte 1      : checksum (corruption guard)
//	bytes 2..7  : on-disk block number (48 bits — up to 1EB of 4KB blocks)
//	bytes 8..15 : unused
//
// Packing into one aligned word matters for crash integrity: on the
// memory bus, the two words of a 16-byte cell persist independently, so a
// record spanning both could tear into a new flag paired with a stale
// block number, silently aliasing one block's data to another's mapping.
// A single word persists atomically by the hardware contract.
type slotMeta struct {
	valid bool
	dirty bool
	disk  uint64
}

// maxClassicDisk is the largest representable block number (48 bits).
const maxClassicDisk = 1<<48 - 1

// slotChecksum mixes the flag byte and block-number bytes.
func slotChecksum(b *[16]byte) byte {
	sum := uint32(0x5A) + uint32(b[0])
	for i := 2; i < 8; i++ {
		sum = sum*31 + uint32(b[i])
	}
	return byte(sum)
}

const (
	cFlagValid = 1 << 0
	cFlagDirty = 1 << 1
)

func encodeSlot(m slotMeta) (b [16]byte) {
	if !m.valid {
		return b
	}
	if m.disk > maxClassicDisk {
		panic("classic: disk block number exceeds 48 bits")
	}
	b[0] = cFlagValid
	if m.dirty {
		b[0] |= cFlagDirty
	}
	b[2] = byte(m.disk)
	b[3] = byte(m.disk >> 8)
	b[4] = byte(m.disk >> 16)
	b[5] = byte(m.disk >> 24)
	b[6] = byte(m.disk >> 32)
	b[7] = byte(m.disk >> 40)
	b[1] = slotChecksum(&b)
	return b
}

func decodeSlot(b [16]byte) slotMeta {
	var m slotMeta
	if b[0]&cFlagValid == 0 {
		return m
	}
	if b[1] != slotChecksum(&b) {
		return m // corrupt record: treat as invalid
	}
	m.valid = true
	m.dirty = b[0]&cFlagDirty != 0
	m.disk = uint64(b[2]) | uint64(b[3])<<8 | uint64(b[4])<<16 | uint64(b[5])<<24 |
		uint64(b[6])<<32 | uint64(b[7])<<40
	return m
}

// Layout describes the Classic NVM partitioning.
type Layout struct {
	HeaderOff  int
	MetaOff    int // metadata blocks
	MetaBlocks int
	DataOff    int
	Capacity   int // cache slots
	Assoc      int
	Sets       int
}

// computeLayout fits header + metadata blocks + data blocks into devSize.
func computeLayout(devSize, assoc int) (Layout, error) {
	var l Layout
	l.HeaderOff = 0
	l.MetaOff = BlockSize // header gets the first block for simplicity
	// Each slot costs 4KB data + 16B metadata; metadata rounds to blocks.
	cap := (devSize - l.MetaOff) / (BlockSize + recordSize)
	for cap > 0 {
		metaBlocks := (cap + recordsPerBlock - 1) / recordsPerBlock
		dataOff := l.MetaOff + metaBlocks*BlockSize
		if dataOff+cap*BlockSize <= devSize {
			l.MetaBlocks = metaBlocks
			l.DataOff = dataOff
			break
		}
		cap--
	}
	if cap < 8 {
		return Layout{}, fmt.Errorf("classic: NVM device too small (%d bytes)", devSize)
	}
	if assoc <= 0 {
		assoc = DefaultAssoc
	}
	if assoc > cap {
		assoc = cap
	}
	// Round capacity down to whole sets.
	sets := cap / assoc
	l.Capacity = sets * assoc
	l.Assoc = assoc
	l.Sets = sets
	return l, nil
}

func (l Layout) slotMetaOff(slot int) int { return l.MetaOff + slot*recordSize }
func (l Layout) metaBlockOff(slot int) int {
	return l.MetaOff + slot/recordsPerBlock*BlockSize
}
func (l Layout) slotDataOff(slot int) int { return l.DataOff + slot*BlockSize }

// Cache is the Classic cache manager. All methods are safe for concurrent
// use.
type Cache struct {
	mu   sync.Mutex
	mem  *pmem.Device
	disk *blockdev.Device
	lay  Layout
	rec  *metrics.Recorder
	opts Options

	// DRAM mirrors (rebuilt on startup).
	hash  map[uint64]int // disk block -> slot
	meta  []slotMeta     // mirror of slot metadata
	stamp []uint64       // per-slot LRU stamp
	tick  uint64

	closed bool
}

// Open formats or recovers a Classic cache on the NVM device.
func Open(mem *pmem.Device, disk *blockdev.Device, opts Options) (*Cache, error) {
	lay, err := computeLayout(mem.Size(), opts.assoc)
	if err != nil {
		return nil, err
	}
	c := &Cache{
		mem:   mem,
		disk:  disk,
		lay:   lay,
		rec:   mem.Recorder(),
		opts:  opts,
		hash:  make(map[uint64]int),
		meta:  make([]slotMeta, lay.Capacity),
		stamp: make([]uint64, lay.Capacity),
	}
	if c.mem.Load8(0) == classicMagic && c.mem.Load8(8) == classicVersion {
		c.recover()
	} else {
		c.format()
	}
	return c, nil
}

func (c *Cache) format() {
	// Fresh pmem is zeroed (all slots invalid); persist only the header.
	c.mem.Store8(8, classicVersion)
	c.mem.Store8(16, uint64(c.lay.Capacity))
	c.mem.CLFlush(0, pmem.LineSize)
	c.mem.SFence()
	c.mem.Persist8(0, classicMagic)
}

// recover rebuilds the DRAM mirrors from the persistent metadata region.
// The invalidate-before-revalidate protocol guarantees every valid record
// describes the data actually in its slot.
func (c *Cache) recover() {
	for s := 0; s < c.lay.Capacity; s++ {
		m := decodeSlot(c.mem.Load16(c.lay.slotMetaOff(s)))
		c.meta[s] = m
		if m.valid {
			c.hash[m.disk] = s
		}
	}
}

// Layout exposes the computed layout for tests.
func (c *Cache) Layout() Layout { return c.lay }

// Capacity returns the number of cache slots.
func (c *Cache) Capacity() int { return c.lay.Capacity }

func (c *Cache) setOf(no uint64) int { return int(no % uint64(c.lay.Sets)) }

// persistSlotMeta writes the *whole 4KB metadata block* containing slot s,
// Flashcache style, and counts it as a metadata block write.
func (c *Cache) persistSlotMeta(s int) {
	if c.opts.NoMetaUpdates {
		return
	}
	blockOff := c.lay.metaBlockOff(s)
	first := (blockOff - c.lay.MetaOff) / recordSize
	buf := make([]byte, BlockSize)
	for i := 0; i < recordsPerBlock; i++ {
		rec := encodeSlot(c.metaAt(first + i))
		copy(buf[i*recordSize:], rec[:])
	}
	c.mem.Store(blockOff, buf)
	if !c.opts.NoPersistBarriers {
		c.mem.CLFlush(blockOff, BlockSize)
		c.mem.SFence()
	}
	c.rec.Inc(metrics.CacheMetaWrite)
}

// metaAt returns the DRAM metadata for slot i, tolerating the tail of the
// last metadata block (slots beyond capacity are invalid).
func (c *Cache) metaAt(i int) slotMeta {
	if i >= len(c.meta) {
		return slotMeta{}
	}
	return c.meta[i]
}

// writeData persists p into slot s's data block.
func (c *Cache) writeData(s int, p []byte) {
	off := c.lay.slotDataOff(s)
	c.mem.Store(off, p)
	if !c.opts.NoPersistBarriers {
		c.mem.CLFlush(off, BlockSize)
		c.mem.SFence()
	}
}

// pickSlot returns the slot to use for disk block no within its set:
// an invalid slot if one exists, otherwise the LRU slot (evicting it).
// Caller holds c.mu.
func (c *Cache) pickSlot(no uint64) int {
	set := c.setOf(no)
	base := set * c.lay.Assoc
	victim, oldest := -1, ^uint64(0)
	for i := 0; i < c.lay.Assoc; i++ {
		s := base + i
		if !c.meta[s].valid {
			return s
		}
		if c.stamp[s] < oldest {
			oldest, victim = c.stamp[s], s
		}
	}
	c.evict(victim)
	return victim
}

// evict writes back slot s if dirty and invalidates it (metadata write #1
// of the re-mapping protocol). Caller holds c.mu.
func (c *Cache) evict(s int) {
	m := c.meta[s]
	if m.dirty {
		buf := make([]byte, BlockSize)
		c.mem.Load(c.lay.slotDataOff(s), buf)
		c.disk.WriteBlock(m.disk, buf)
		c.rec.Inc(metrics.CacheEvictDirty)
	}
	c.rec.Inc(metrics.CacheEvict)
	delete(c.hash, m.disk)
	c.meta[s] = slotMeta{}
	c.persistSlotMeta(s) // invalidate before the slot is reused
}

// WriteBlock caches the new contents of disk block no (write-back): data
// is persisted into the slot, then the covering metadata block is
// persisted synchronously.
func (c *Cache) WriteBlock(no uint64, p []byte) error {
	if len(p) != BlockSize {
		return fmt.Errorf("classic: block must be %d bytes", BlockSize)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if s, ok := c.hash[no]; ok {
		// Write hit: in-place overwrite, then one metadata block write.
		c.rec.Inc(c.writeHitCounter(no, true))
		c.writeData(s, p)
		c.meta[s] = slotMeta{valid: true, dirty: true, disk: no}
		c.persistSlotMeta(s)
		c.touch(s)
		return nil
	}
	c.rec.Inc(c.writeHitCounter(no, false))
	s := c.pickSlot(no)
	c.writeData(s, p)
	c.meta[s] = slotMeta{valid: true, dirty: true, disk: no}
	c.persistSlotMeta(s) // validate with the new mapping
	c.hash[no] = s
	c.touch(s)
	return nil
}

// ReadBlock returns the cached or on-disk contents of block no, filling
// the cache on a miss.
func (c *Cache) ReadBlock(no uint64, p []byte) error {
	if len(p) != BlockSize {
		return fmt.Errorf("classic: block must be %d bytes", BlockSize)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if s, ok := c.hash[no]; ok {
		c.rec.Inc(metrics.CacheReadHit)
		c.mem.Load(c.lay.slotDataOff(s), p)
		c.touch(s)
		return nil
	}
	c.rec.Inc(metrics.CacheReadMiss)
	c.disk.ReadBlock(no, p)
	s := c.pickSlot(no)
	c.writeData(s, p)
	c.meta[s] = slotMeta{valid: true, dirty: false, disk: no}
	c.persistSlotMeta(s)
	c.hash[no] = s
	c.touch(s)
	return nil
}

// writeHitCounter picks the counter for a write to block no.
func (c *Cache) writeHitCounter(no uint64, hit bool) metrics.Counter {
	journal := c.opts.JournalBoundary != 0 && no >= c.opts.JournalBoundary
	switch {
	case journal && hit:
		return metrics.CacheJournalWriteHit
	case journal:
		return metrics.CacheJournalWriteMiss
	case hit:
		return metrics.CacheWriteHit
	default:
		return metrics.CacheWriteMiss
	}
}

func (c *Cache) touch(s int) {
	c.tick++
	c.stamp[s] = c.tick
}

// Contains reports whether block no is resident (for tests).
func (c *Cache) Contains(no uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.hash[no]
	return ok
}

// FlushAll writes every dirty slot back to disk and marks it clean.
func (c *Cache) FlushAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	buf := make([]byte, BlockSize)
	for s, m := range c.meta {
		if !m.valid || !m.dirty {
			continue
		}
		c.mem.Load(c.lay.slotDataOff(s), buf)
		c.disk.WriteBlock(m.disk, buf)
		c.meta[s].dirty = false
		c.persistSlotMeta(s)
	}
	return nil
}

// Close flushes and rejects further use.
func (c *Cache) Close() error {
	if err := c.FlushAll(); err != nil {
		return err
	}
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}
