package core

import (
	"sync"
	"sync/atomic"

	"tinca/internal/metrics"
)

// allocator manages the free NVM data blocks and free entry-table slots
// (the paper's free block monitor, Section 4.6) without the global cache
// lock. The hot path pops from a small per-shard cache; only a refill —
// one in allocBatch pops — touches the global pool. Pushes go to the
// global pool directly: free resources produced by one shard's evictions
// are then visible to every consumer, so nothing strands in a cold
// shard's cache (reclaim sweeps the caches back as a last resort before
// declaring the pool empty).
//
// Lock order: a local cache's mutex may be held while taking the global
// mutex (refill, reclaim); never two local mutexes at once; both are leaf
// locks with respect to the ring and shard locks.
type allocator struct {
	local [shardCount]allocCache

	mu     sync.Mutex // global pool
	blocks []uint32
	slots  []int32

	// free counts free blocks across the global pool and every local
	// cache, excluding blocks popped but not yet installed. It is the
	// evictor's watermark signal; the partition invariant is checked
	// against a locked snapshot instead.
	free atomic.Int64

	// Double-free detector (tincadebug builds only): one atomic free bit
	// per block/slot, set while the resource sits in any pool. A second
	// push of the same resource panics at the culprit's own call site.
	dbgBlockFree []atomic.Int32
	dbgSlotFree  []atomic.Int32

	rec *metrics.Recorder
}

// dbgPushBlock/dbgPopBlock/dbgPushSlot/dbgPopSlot maintain the free bits.
// They compile to nothing without -tags tincadebug.

func (a *allocator) dbgPushBlock(b uint32) {
	if debugAlloc && a.dbgBlockFree != nil {
		if a.dbgBlockFree[b].Swap(1) == 1 {
			panic("core: double free of NVM data block")
		}
	}
}

func (a *allocator) dbgPopBlock(b uint32) {
	if debugAlloc && a.dbgBlockFree != nil {
		if a.dbgBlockFree[b].Swap(0) == 0 {
			panic("core: popped NVM data block that was not free")
		}
	}
}

func (a *allocator) dbgPushSlot(s int32) {
	if debugAlloc && a.dbgSlotFree != nil {
		if a.dbgSlotFree[s].Swap(1) == 1 {
			panic("core: double free of entry slot")
		}
	}
}

func (a *allocator) dbgPopSlot(s int32) {
	if debugAlloc && a.dbgSlotFree != nil {
		if a.dbgSlotFree[s].Swap(0) == 0 {
			panic("core: popped entry slot that was not free")
		}
	}
}

// allocCache is one shard's private stash of free resources. Padded
// structs are not worth it here: the caches are touched once per
// allocation and the mutexes keep them coherent.
type allocCache struct {
	mu     sync.Mutex
	blocks []uint32
	slots  []int32
}

// allocBatch is how many blocks/slots a refill moves from the global pool
// into a shard cache: large enough to amortize the global mutex, small
// enough that 16 shards hoard at most a small fraction of a real cache.
const allocBatch = 8

func (a *allocator) init(rec *metrics.Recorder, capacity int) {
	a.rec = rec
	if debugAlloc {
		a.dbgBlockFree = make([]atomic.Int32, capacity)
		a.dbgSlotFree = make([]atomic.Int32, capacity)
	}
}

// reset empties every pool (format/recovery rebuild the free state from
// the entry table afterwards).
func (a *allocator) reset() {
	for s := range a.local {
		l := &a.local[s]
		l.mu.Lock()
		l.blocks = l.blocks[:0]
		l.slots = l.slots[:0]
		l.mu.Unlock()
	}
	a.mu.Lock()
	a.blocks = a.blocks[:0]
	a.slots = a.slots[:0]
	a.mu.Unlock()
	a.free.Store(0)
	if debugAlloc {
		for i := range a.dbgBlockFree {
			a.dbgBlockFree[i].Store(0)
		}
		for i := range a.dbgSlotFree {
			a.dbgSlotFree[i].Store(0)
		}
	}
}

// freeBlocks reports the total free data blocks (watermark signal).
func (a *allocator) freeBlocks() int64 { return a.free.Load() }

// pushBlock returns block b to the global pool.
func (a *allocator) pushBlock(b uint32) {
	a.dbgPushBlock(b)
	a.mu.Lock()
	a.blocks = append(a.blocks, b)
	a.mu.Unlock()
	a.free.Add(1)
}

// pushSlot returns entry slot s to the global pool.
func (a *allocator) pushSlot(s int32) {
	a.dbgPushSlot(s)
	a.mu.Lock()
	a.slots = append(a.slots, s)
	a.mu.Unlock()
}

// popBlock takes one free data block, preferring shard h's cache and
// refilling it in a batch from the global pool. Reports false when every
// pool — local caches included — is empty.
func (a *allocator) popBlock(h int) (uint32, bool) {
	l := &a.local[h&(shardCount-1)]
	for {
		l.mu.Lock()
		if n := len(l.blocks); n > 0 {
			b := l.blocks[n-1]
			l.blocks = l.blocks[:n-1]
			l.mu.Unlock()
			a.free.Add(-1)
			a.dbgPopBlock(b)
			return b, true
		}
		// Refill under both locks (local then global, the fixed order)
		// so the moved elements are copied before anyone else can append
		// over the global slice's tail.
		a.mu.Lock()
		n := len(a.blocks)
		if n == 0 {
			a.mu.Unlock()
			l.mu.Unlock()
			if !a.reclaimBlocks() {
				return 0, false
			}
			continue
		}
		take := allocBatch
		if take > n {
			take = n
		}
		l.blocks = append(l.blocks, a.blocks[n-take:]...)
		a.blocks = a.blocks[:n-take]
		a.mu.Unlock()
		b := l.blocks[len(l.blocks)-1]
		l.blocks = l.blocks[:len(l.blocks)-1]
		l.mu.Unlock()
		a.free.Add(-1)
		a.rec.Inc(metrics.CacheAllocRefill)
		a.dbgPopBlock(b)
		return b, true
	}
}

// popSlot takes one free entry slot (same shape as popBlock). The entry
// table has one slot per data block, every cached block consumes at least
// one data block, and every paired free pushes the slot strictly before
// the block — so from the instant a popBlock succeeds, the slot pool
// holds at least one slot per thread between that popBlock and its
// popSlot, and a caller that pairs every popSlot with a prior successful
// popBlock cannot starve. The guaranteed slot may be in another shard's
// cache or may move between pools while we scan them one lock at a time
// (reclaim racing a refill), so a failed sweep falls back to a
// stop-the-world pop under every lock at once; only that failing is an
// invariant violation, hence the panic.
func (a *allocator) popSlot(h int) int32 {
	l := &a.local[h&(shardCount-1)]
	for {
		l.mu.Lock()
		if n := len(l.slots); n > 0 {
			s := l.slots[n-1]
			l.slots = l.slots[:n-1]
			l.mu.Unlock()
			a.dbgPopSlot(s)
			return s
		}
		a.mu.Lock()
		n := len(a.slots)
		if n == 0 {
			a.mu.Unlock()
			l.mu.Unlock()
			if !a.reclaimSlots() {
				s, ok := a.popSlotStopTheWorld()
				if !ok {
					panic("core: entry table exhausted before data area")
				}
				a.dbgPopSlot(s)
				return s
			}
			continue
		}
		take := allocBatch
		if take > n {
			take = n
		}
		l.slots = append(l.slots, a.slots[n-take:]...)
		a.slots = a.slots[:n-take]
		a.mu.Unlock()
		s := l.slots[len(l.slots)-1]
		l.slots = l.slots[:len(l.slots)-1]
		l.mu.Unlock()
		a.dbgPopSlot(s)
		return s
	}
}

// reclaimBlocks drains every shard cache back into the global pool,
// reporting whether anything moved. Called when the global pool runs dry:
// resources hoarded by idle shards must not fail an allocation.
func (a *allocator) reclaimBlocks() bool {
	moved := false
	for s := range a.local {
		l := &a.local[s]
		l.mu.Lock()
		if len(l.blocks) > 0 {
			a.mu.Lock()
			a.blocks = append(a.blocks, l.blocks...)
			a.mu.Unlock()
			l.blocks = l.blocks[:0]
			moved = true
		}
		l.mu.Unlock()
	}
	return moved
}

// popSlotStopTheWorld takes one free slot while holding every pool lock
// at once, so a slot bouncing between pools (reclaim vs refill) cannot
// dodge the scan. Deadlock-free: this is the only path that holds two
// local mutexes, it acquires them in ascending order, and the global
// mutex stays the innermost lock as everywhere else.
func (a *allocator) popSlotStopTheWorld() (int32, bool) {
	for s := range a.local {
		a.local[s].mu.Lock()
		defer a.local[s].mu.Unlock()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.slots); n > 0 {
		s := a.slots[n-1]
		a.slots = a.slots[:n-1]
		return s, true
	}
	for s := range a.local {
		l := &a.local[s]
		if n := len(l.slots); n > 0 {
			v := l.slots[n-1]
			l.slots = l.slots[:n-1]
			return v, true
		}
	}
	return 0, false
}

func (a *allocator) reclaimSlots() bool {
	moved := false
	for s := range a.local {
		l := &a.local[s]
		l.mu.Lock()
		if len(l.slots) > 0 {
			a.mu.Lock()
			a.slots = append(a.slots, l.slots...)
			a.mu.Unlock()
			l.slots = l.slots[:0]
			moved = true
		}
		l.mu.Unlock()
	}
	return moved
}

// snapshot collects every free block and slot across all pools, for the
// invariant checker. Only meaningful on a quiescent cache.
func (a *allocator) snapshot() (blocks []uint32, slots []int32) {
	a.mu.Lock()
	blocks = append(blocks, a.blocks...)
	slots = append(slots, a.slots...)
	a.mu.Unlock()
	for s := range a.local {
		l := &a.local[s]
		l.mu.Lock()
		blocks = append(blocks, l.blocks...)
		slots = append(slots, l.slots...)
		l.mu.Unlock()
	}
	return blocks, slots
}
