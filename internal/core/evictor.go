package core

import (
	"fmt"

	"tinca/internal/bufpool"
	"tinca/internal/metrics"
)

// This file implements eviction (the paper's free block monitor,
// Section 4.6): when an allocation finds the free pool empty, the
// allocating goroutine scans every shard for the globally coldest victim,
// re-validates it and evicts it, writing a dirty victim back outside any
// shard lock.
//
// Crash consistency: the only persistent effects of an eviction are the
// disk write-back of a dirty victim and the 16B entry invalidation, in
// that order (DESIGN.md §8's ordering argument).

// victim is one eviction candidate captured during the cross-shard scan.
// Everything in it is a snapshot: evictSlot re-validates under the shard
// lock before touching anything.
type victim struct {
	sh    *shard
	slot  int32
	no    uint64
	atime int64
}

// coldestVictim scans every shard's LRU tail and returns the eligible
// slot with the oldest access tick; ok is false when nothing is
// eligible. Locks are taken one shard at a time and dropped before the
// next, so the answer is approximate — which is fine, because evictSlot
// re-validates it.
func (c *Cache) coldestVictim() (best victim, ok bool) {
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		// Apply pending fast-path promotions first so the list order the
		// scan walks reflects every stamp taken so far (exact-LRU
		// equivalence in deterministic runs).
		c.drainTouchesLocked(sh)
		for i := sh.lru.tail; i != lruNil; i = sh.lru.olderToNewer(i) {
			e := c.readEntry(i)
			if !e.valid {
				panic(fmt.Sprintf("core: invalid entry %d on LRU list", i))
			}
			if e.role == RoleLog || sh.pinned[i] {
				// Rule 2 (Section 4.6): blocks of the committing
				// transaction (and their previous versions, which these
				// entries still reference) stay.
				continue
			}
			if sh.wb[i] {
				continue // a write-back owns the slot right now
			}
			at := c.atime[i].Load()
			if ok && at >= best.atime {
				break // the walk moves toward newer slots only
			}
			best, ok = victim{sh: sh, slot: i, no: e.disk, atime: at}, true
		}
		sh.mu.Unlock()
	}
	return best, ok
}

// evictOne selects and evicts the coldest victim, retrying a few times
// when a concurrent touch, commit or eviction invalidates the pick.
// evicted reports success; saw reports whether any eligible candidate
// existed at all (the difference between "everything raced away, try
// again" and "the cache is genuinely full of pinned blocks").
func (c *Cache) evictOne() (evicted, saw bool) {
	for attempt := 0; attempt < 4; attempt++ {
		v, ok := c.coldestVictim()
		if !ok {
			break
		}
		saw = true
		if c.evictSlot(v) {
			return true, true
		}
	}
	return false, saw
}

// evictSlot evicts one selected victim. Selection dropped every lock, so
// the slot is re-validated under its shard lock first: a concurrent touch,
// commit or eviction invalidates the victim and the caller retries with a
// fresh scan instead of evicting a stale slot. Dirty victims are written
// back outside the shard lock under the slot's wb flag and validated
// again afterwards, so the write-back can never free or clobber a version
// it did not write.
func (c *Cache) evictSlot(v victim) bool {
	sh := v.sh
	sh.mu.Lock()
	locked := true
	defer func() {
		if locked {
			sh.mu.Unlock()
		}
	}()
	if i, ok := sh.idx.Get(v.no); !ok || i != v.slot {
		return false // evicted (and possibly reused) since selection
	}
	if c.atime[v.slot].Load() != v.atime {
		return false // touched since selection: no longer the coldest
	}
	e := c.readEntry(v.slot)
	if !e.valid || e.disk != v.no {
		return false
	}
	if e.role == RoleLog || sh.pinned[v.slot] {
		return false
	}
	if sh.wb[v.slot] {
		return false
	}
	if e.modified {
		buf := bufpool.Get()
		c.mem.Load(c.lay.blockOff(e.cur), buf)
		sh.wb[v.slot] = true
		locked = false
		sh.mu.Unlock()
		c.disk.WriteBlock(v.no, buf)
		bufpool.Put(buf)
		sh.mu.Lock()
		locked = true
		delete(sh.wb, v.slot)
		sh.wbCond.Broadcast()
		// Re-validate: a commit may have COWed a newer version while the
		// old one was in flight to disk. The NVM stays authoritative.
		e2 := c.readEntry(v.slot)
		if i, ok := sh.idx.Get(v.no); !ok || i != v.slot ||
			!e2.valid || e2.disk != v.no || e2.cur != e.cur {
			return false
		}
		if e2.role == RoleLog || sh.pinned[v.slot] {
			return false
		}
		if c.atime[v.slot].Load() != v.atime {
			// Touched while the write-back was in flight: keep the block
			// cached, but bank the disk write as a cleaning.
			e2.modified = false
			c.beginSlotMutate(v.slot)
			c.writeEntry(v.slot, e2)
			c.endSlotMutate(v.slot)
			return false
		}
		e = e2
		c.rec.Inc(metrics.CacheEvictDirty)
	}
	// Crash ordering: the disk write above is durable before the entry is
	// invalidated, so a crash in between only leaves a redundant dirty
	// entry, never a lost block.
	//
	// Seqlock ordering: the bump below happens before the data block goes
	// back to the free pool, so a fast-path reader that could observe the
	// reused block's bytes necessarily sees the version change and discards
	// its copy (torn-read argument in readfast.go).
	c.beginSlotMutate(v.slot)
	c.clearEntry(v.slot)
	sh.lru.remove(v.slot)
	sh.idx.Delete(v.no)
	if c.dirtied[v.slot] {
		// The disk copy of this block was rewritten at some point after
		// it was cached: an optimistic miss fill whose disk read started
		// before the write-back landed must not install its stale copy.
		sh.evictGen.Add(1)
		c.dirtied[v.slot] = false
	}
	c.alloc.pushSlot(v.slot)
	c.freeDataBlock(e.cur)
	c.endSlotMutate(v.slot)
	c.rec.Inc(metrics.CacheEvict)
	return true
}
