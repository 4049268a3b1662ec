package core

import (
	"sync"
	"sync/atomic"
)

// allocator manages the free NVM data blocks and free entry-table slots
// (the paper's free block monitor, Section 4.6) without the global cache
// lock: one mutex guards a LIFO stack of each. It is a leaf lock with
// respect to the ring and shard locks.
type allocator struct {
	mu     sync.Mutex
	blocks []uint32
	slots  []int32

	// Double-free detector (tincadebug builds only): one atomic free bit
	// per block/slot, set while the resource sits in the pool. A second
	// push of the same resource panics at the culprit's own call site.
	dbgBlockFree []atomic.Int32
	dbgSlotFree  []atomic.Int32
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

func (a *allocator) init(capacity int) {
	if debugAlloc {
		a.dbgBlockFree = make([]atomic.Int32, capacity)
		a.dbgSlotFree = make([]atomic.Int32, capacity)
	}
}

// reset empties both pools (format/recovery rebuild the free state from
// the entry table afterwards).
func (a *allocator) reset() {
	a.mu.Lock()
	a.blocks = a.blocks[:0]
	a.slots = a.slots[:0]
	a.mu.Unlock()
	if debugAlloc {
		for i := range a.dbgBlockFree {
			a.dbgBlockFree[i].Store(0)
		}
		for i := range a.dbgSlotFree {
			a.dbgSlotFree[i].Store(0)
		}
	}
}

// freeBlocks reports how many data blocks are in the pool.
func (a *allocator) freeBlocks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.blocks)
}

// pushBlock returns block b to the pool.
func (a *allocator) pushBlock(b uint32) {
	a.dbgPushBlock(b)
	a.mu.Lock()
	a.blocks = append(a.blocks, b)
	a.mu.Unlock()
}

// pushSlot returns entry slot s to the pool.
func (a *allocator) pushSlot(s int32) {
	a.dbgPushSlot(s)
	a.mu.Lock()
	a.slots = append(a.slots, s)
	a.mu.Unlock()
}

// popBlock takes one free data block; false when the pool is empty.
func (a *allocator) popBlock() (uint32, bool) {
	a.mu.Lock()
	n := len(a.blocks)
	if n == 0 {
		a.mu.Unlock()
		return 0, false
	}
	b := a.blocks[n-1]
	a.blocks = a.blocks[:n-1]
	a.mu.Unlock()
	a.dbgPopBlock(b)
	return b, true
}

// popSlot takes one free entry slot. The entry table has one slot per
// data block, every cached block consumes at least one data block, and
// every paired free pushes the slot strictly before the block — so from
// the instant a popBlock succeeds, the slot pool holds at least one slot
// per thread between that popBlock and its popSlot, and a caller that
// pairs every popSlot with a prior successful popBlock cannot starve.
// Only an invariant violation empties it, hence the panic.
func (a *allocator) popSlot() int32 {
	a.mu.Lock()
	n := len(a.slots)
	if n == 0 {
		a.mu.Unlock()
		panic("core: entry table exhausted before data area")
	}
	s := a.slots[n-1]
	a.slots = a.slots[:n-1]
	a.mu.Unlock()
	a.dbgPopSlot(s)
	return s
}

// snapshot copies every free block and slot, for the invariant checker.
// Only meaningful on a quiescent cache.
func (a *allocator) snapshot() (blocks []uint32, slots []int32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append(blocks, a.blocks...), append(slots, a.slots...)
}
