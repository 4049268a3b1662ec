package core

import (
	"sync/atomic"

	"tinca/internal/metrics"
)

// This file implements the lock-free read-hit fast path: per-slot seqlocks
// plus a per-shard MPSC touch ring that decouples LRU promotion from the
// hit itself. A warm cache spends most of its time here, so the common
// case takes zero locks: a lock-free hash lookup, one 16B entry load, the
// block copy, and a version re-check.
//
// Seqlock protocol (DESIGN.md §11). Every entry slot i carries a volatile
// version counter slotSeq[i]: even = stable, odd = mutation in progress.
// Every mutator of a slot's (entry, data) pair already holds the block's
// shard lock; it additionally brackets the mutation with beginSlotMutate /
// endSlotMutate (+1 each), so the counter is odd exactly while the pair
// may be inconsistent. A lock-free reader:
//
//  1. looks the block up in the shard's lock-free hash index,
//  2. loads s1 := slotSeq[i]; retries unless s1 is even,
//  3. loads the 16B entry (atomic: the simulated cmpxchg16b granularity
//     of Section 4.2 — an entry load can never tear),
//  4. rejects entries it cannot serve lock-free (invalid, remapped, or
//     carrying the log role — a block mid-seal is served by the locked
//     path from its previous sealed version, per the role-switch ordering
//     of Section 4.4),
//  5. copies the NVM block bytes,
//  6. re-loads slotSeq[i]; the copy is used only if it still equals s1.
//
// Torn-read impossibility: if the version was even before the copy and
// unchanged after it, no mutator entered (or exited) a mutation of that
// slot during the read — so the entry the reader decoded and the bytes it
// copied belong to the same stable state. The one subtle hazard is block
// reuse: an eviction frees the slot's data block, and an allocator hands
// it to a concurrent fill or seal that overwrites the bytes mid-copy. The
// eviction's beginSlotMutate happens (under the shard lock) before the
// block is pushed onto the free pool, so any reader whose copy could
// observe the reused bytes necessarily loaded s1 before the begin and
// re-loads the counter after it — the re-check fails and the copy is
// discarded. Readers never block mutators; after maxFastReadRetries
// version changes the reader falls back to the shard-locked path.
//
// LRU decoupling: a fast hit must not take the shard lock just to splice
// the LRU list, so it stamps the slot's atomic access tick (atime) and
// pushes the slot into the shard's fixed-size touch ring. The victim scan
// and every locked-path entrant that is about to observe or
// mutate LRU order first drain the ring FIFO into the exact list, so in
// a single-threaded execution the list is always exactly what immediate
// splicing would have produced (stamp order == drain order) and the
// simulated results of the existing figures are bit-identical. Under
// concurrency a full ring drops the splice (the stamp always lands):
// recency becomes approximate, which is all eviction needs — victim
// selection orders by the exact per-slot atime ticks, and evictSlot
// re-validates the tick under the shard lock before evicting.

// maxFastReadRetries bounds how many version changes a fast read tolerates
// before falling back to the shard-locked path.
const maxFastReadRetries = 4

// touchRingSize is the per-shard touch ring capacity. Must be a power of
// two. 512 slots absorb long runs of pure fast hits between locked-path
// drains; overflow degrades to approximate recency, never to blocking.
const touchRingSize = 512

// touchRing is a fixed-size MPSC ring of entry-slot indices awaiting LRU
// promotion. Producers are lock-free fast-path readers; the consumer holds
// the shard lock. Cells store slot+1 so zero means "empty or claimed but
// not yet published".
type touchRing struct {
	head  atomic.Uint64 // next cell to claim (producers, CAS)
	tail  atomic.Uint64 // next cell to consume (consumer, under sh.mu)
	cells [touchRingSize]atomic.Int64
}

// push queues slot i for promotion, reporting false when the ring is full
// (the touch is then dropped — approximate recency).
func (r *touchRing) push(i int32) bool {
	for {
		h := r.head.Load()
		if h-r.tail.Load() >= touchRingSize {
			return false
		}
		if r.head.CompareAndSwap(h, h+1) {
			r.cells[h&(touchRingSize-1)].Store(int64(i) + 1)
			return true
		}
	}
}

// drainTouchesLocked applies every published pending touch to the shard's
// exact LRU list, FIFO. It stops early at a claimed-but-unpublished cell
// (a producer between its CAS and its store); that producer's touch and
// everything after it drain on the next call. Slots that left the list
// since their touch was queued (evicted, dropped, revoked) are skipped; if
// the slot was re-used and re-inserted the promotion applies to the new
// tenant, which is harmless — it is already near the MRU end. Caller holds
// sh.mu.
func (c *Cache) drainTouchesLocked(sh *shard) {
	r := &sh.touches
	t := r.tail.Load()
	drained := int64(0)
	for t != r.head.Load() {
		v := r.cells[t&(touchRingSize-1)].Swap(0)
		if v == 0 {
			break // claimed but not yet published; stop at the gap
		}
		t++
		r.tail.Store(t)
		i := int32(v - 1)
		if sh.lru.contains(i) {
			sh.lru.touch(i)
		}
		drained++
	}
	if drained > 0 {
		c.rec.Add(metrics.CacheTouchDrained, drained)
	}
}

// beginSlotMutate marks slot i's (entry, data) pair as mutating: readers
// that observe the odd counter (or a change across their copy) discard and
// retry. Caller holds the slot's shard lock.
func (c *Cache) beginSlotMutate(i int32) {
	c.slotSeq[i].Add(1)
}

// endSlotMutate marks the mutation of slot i complete.
func (c *Cache) endSlotMutate(i int32) {
	c.slotSeq[i].Add(1)
}

// readFast serves a read hit of block no without any lock, reporting
// whether it did. False means "not servable lock-free": a miss, a mid-seal
// (log-role) entry, or persistent version churn — the caller falls back to
// the locked path, which re-decides from scratch. The fast path performs
// exactly the NVM operations of a locked hit (one 16B entry load + one
// block copy), so on a quiescent cache the simulated cost is identical.
func (c *Cache) readFast(no uint64, p []byte) bool {
	sh := c.shardOf(no)
	retries := 0
	for {
		i, ok := sh.idx.Get(no)
		if !ok {
			return false // miss (or just evicted): locked path decides
		}
		s1 := c.slotSeq[i].Load()
		if s1&1 != 0 {
			// A mutator is inside this slot right now.
			c.rec.Inc(metrics.CacheSeqlockRetry)
			if retries++; retries > maxFastReadRetries {
				return false
			}
			continue
		}
		e := c.readEntry(i)
		if !e.valid || e.disk != no {
			// Stale index entry: the slot was evicted (and possibly
			// reused) between the lookup and the entry load. Retry from
			// the lookup; the index catches up momentarily.
			if retries++; retries > maxFastReadRetries {
				return false
			}
			continue
		}
		if e.role == RoleLog {
			// Mid-seal: the locked path serves the previous sealed
			// version (or reads around the cache for a fresh write), per
			// the role-switch ordering of Section 4.4.
			return false
		}
		c.mem.Load(c.lay.blockOff(e.cur), p)
		if c.slotSeq[i].Load() != s1 {
			// The slot mutated while we copied; the bytes may mix two
			// versions (or a reused block). Discard and retry.
			c.rec.Inc(metrics.CacheSeqlockRetry)
			if retries++; retries > maxFastReadRetries {
				return false
			}
			continue
		}
		// Consistent snapshot. Promote without the lock: stamp the exact
		// access tick and queue the LRU splice.
		c.atime[i].Store(c.tick.Add(1))
		if !sh.touches.push(i) {
			// Ring full. Opportunistically drain it if the shard lock is
			// free (in a single-threaded execution it always is, keeping
			// the exact-LRU equivalence); under contention drop the
			// splice — the stamp above already landed.
			if sh.mu.TryLock() {
				c.drainTouchesLocked(sh)
				if sh.lru.contains(i) {
					sh.lru.touch(i)
				}
				sh.mu.Unlock()
			} else {
				c.rec.Inc(metrics.CacheTouchDrop)
			}
		}
		c.rec.Inc(metrics.CacheReadHit)
		c.rec.Inc(metrics.CacheReadHitFast)
		if retries > 0 && c.obs != nil {
			c.obs.readRetry.Record(int64(retries))
		}
		return true
	}
}
