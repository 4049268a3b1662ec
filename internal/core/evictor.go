package core

import (
	"fmt"

	"tinca/internal/bufpool"
	"tinca/internal/flight"
	"tinca/internal/metrics"
)

// This file implements the eviction side of the concurrent miss pipeline:
// a cross-shard victim scan that re-validates everything it selected, and
// a background evictor goroutine that keeps the free block pool above a
// low watermark so foreground allocations are a local pop instead of a
// scan plus a synchronous disk write.
//
// Crash consistency is untouched by construction: the only persistent
// effects of an eviction are the disk write-back of a dirty victim and
// the 16B atomic entry invalidation, in that order — exactly the sequence
// the serial evictor always used (DESIGN.md §8's ordering argument never
// mentions who runs the sequence, only its order).

// directEvictBatch is how many victims a foreground allocation reclaims
// when it finds the pool empty: one, the paper's synchronous behaviour —
// the batching belongs to the background evictor.
const directEvictBatch = 1

// victim is one eviction candidate captured during the cross-shard scan.
// Everything in it is a snapshot: evictSlot re-validates under the shard
// lock before touching anything.
type victim struct {
	sh    *shard
	slot  int32
	no    uint64
	atime int64
}

// collectVictims scans every shard's LRU tail and returns up to want
// victims, coldest first (globally sorted by access tick). dst is the
// caller's scratch slice, reused across calls. Locks are taken one shard
// at a time and dropped before the next, so the snapshot is approximate —
// which is fine, because eviction re-validates per victim.
func (c *Cache) collectVictims(dst []victim, want int) []victim {
	dst = dst[:0]
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
			if len(dst) == want && at >= dst[len(dst)-1].atime {
				break // the walk moves toward newer slots only
			}
			v := victim{sh: sh, slot: i, no: e.disk, atime: at}
			if len(dst) < want {
				dst = append(dst, v)
			} else {
				dst[len(dst)-1] = v
			}
			for j := len(dst) - 1; j > 0 && dst[j-1].atime > dst[j].atime; j-- {
				dst[j-1], dst[j] = dst[j], dst[j-1]
			}
		}
		sh.mu.Unlock()
	}
	return dst
}

// evictBatch selects and evicts up to want victims. Returns how many were
// actually evicted and whether any eligible candidate existed at all (the
// difference between "everything raced away, try again" and "the cache is
// genuinely full of pinned blocks"). scratch is reused across calls.
func (c *Cache) evictBatch(want int, direct bool, scratch *[]victim) (evicted int, saw bool) {
	for attempt := 0; attempt < 4; attempt++ {
		*scratch = c.collectVictims(*scratch, want)
		if len(*scratch) == 0 {
			break
		}
		saw = true
		for _, v := range *scratch {
			if c.evictSlot(v) {
				evicted++
			}
		}
		if evicted > 0 {
			break
		}
	}
	if evicted > 0 {
		if direct {
			c.rec.Add(metrics.CacheEvictDirect, int64(evicted))
		} else {
			c.rec.Add(metrics.CacheEvictBg, int64(evicted))
		}
	}
	return evicted, saw
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
	cleanVictim := !e.modified
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
	if c.vcache != nil && cleanVictim {
		// Exclusive-tier downward path: offer the clean victim's bytes to
		// the tier (objstore.Tier L2) so a re-miss is a near-tier read.
		// This runs under the shard lock on purpose — the block cannot be
		// recommitted with newer content mid-offer, so the admitted copy
		// is necessarily current. Dirty victims skip it: the write-back
		// above already delivered the same bytes through WriteBlock. A
		// refused offer (tier full) is dropped; clean content is by
		// definition reproducible from the tier below.
		buf := bufpool.Get()
		c.mem.Load(c.lay.blockOff(e.cur), buf)
		c.vcache.AdmitClean(v.no, buf)
		bufpool.Put(buf)
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

// maybeWakeEvictor nudges the background evictor when the free pool has
// dropped below the low watermark. Called after every successful block
// pop; the check is one atomic load.
func (c *Cache) maybeWakeEvictor() {
	if c.evictWake == nil {
		return
	}
	if int(c.alloc.freeBlocks()) >= c.evictLow {
		return
	}
	select {
	case c.evictWake <- struct{}{}:
	default:
	}
}

// evictor is the background watermark evictor: woken when the free pool
// dips under the low watermark, it evicts the globally coldest victims,
// evictLow per pass, until the pool is back at 2×evictLow, writing dirty
// victims back outside any shard lock. It never takes a ring lock, so commits,
// reads and seals proceed while it reclaims.
func (c *Cache) evictor() {
	defer c.evictWG.Done()
	var scratch []victim
	for {
		select {
		case <-c.evictStop:
			return
		case <-c.evictWake:
		}
		c.evictorRun(&scratch)
	}
}

// evictorRun tops the free pool back up to the refill mark. An
// injected crash on the evictor goroutine poisons the cache exactly as a
// crash on a committing goroutine would.
func (c *Cache) evictorRun(scratch *[]victim) {
	defer func() {
		if r := recover(); r != nil {
			c.poison(r)
		}
	}()
	for c.poisoned.Load() == nil && !c.closed.Load() {
		if int(c.alloc.freeBlocks()) >= 2*c.evictLow {
			return
		}
		var t0 int64
		if c.obs != nil {
			t0 = c.obs.now()
		}
		n, _ := c.evictBatch(c.evictLow, false, scratch)
		if n == 0 {
			return // nothing evictable now; the foreground falls back
		}
		c.flEmit(flight.EvEvictBatch, 0, 0, 0, uint64(n))
		if c.obs != nil {
			c.obs.phase(c.obs.evict, 0, spanEvictBatch, t0, c.obs.gid())
		}
	}
}
