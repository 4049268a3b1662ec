package core

import (
	"sync/atomic"

	"tinca/internal/bufpool"
	"tinca/internal/metrics"
)

// This file implements the read-hit path, the one way a resident block is
// served: hit returns a View that pins the block's NVM bytes. ReadView
// hands that View out; Read copies its bytes and releases it at once. A
// warm cache spends most of its time here, so the common case takes zero
// locks: a lock-free hash lookup, one 16B entry load, a pin, and a
// version re-check (hitFast); churn and mid-seal blocks take the shard
// lock (hitLocked).
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
//  5. pins the NVM block the entry names (view.go),
//  6. re-loads slotSeq[i]; the pin is kept only if it still equals s1.
//
// Torn-read impossibility: if the version was even before the entry load
// and unchanged after the pin, no mutator entered (or exited) a mutation
// of that slot in between — so the pin landed on the block the stable
// entry still references. The one hazard is block reuse: an eviction (or
// role switch) frees the slot's data block, and an allocator hands it to
// a concurrent fill or seal that overwrites the bytes. Every such free
// bumps the slot's seqlock before it reads the block's pin word
// (freeDataBlock), so either the free sees the pin and defers itself to
// the last unpin, or the reader sees the bump and unpins and retries
// (the Dekker handshake of view.go). A kept pin therefore guarantees the
// bytes stay the entry's until release. Readers never block mutators;
// after maxFastReadRetries version changes the reader falls back to the
// shard-locked path.
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

// hit serves a read hit of block no, reporting false on a miss. It counts
// the hit and which path served it; the View it returns is uncounted
// (ReadView counts it as a view, Read copies and releases it). The
// lockedReadHit oracle skips the lock-free path.
func (c *Cache) hit(no uint64) (View, bool) {
	if !c.opts.lockedReadHit {
		if v, ok := c.hitFast(no); ok {
			c.rec.Inc(metrics.CacheReadHit)
			c.rec.Inc(metrics.CacheReadHitFast)
			return v, true
		}
	}
	v, ok := c.hitLocked(no)
	if ok {
		c.rec.Inc(metrics.CacheReadHit)
		c.rec.Inc(metrics.CacheReadHitSlow)
	}
	return v, ok
}

// hitFast serves a hit of block no without any lock, reporting whether it
// did. False means "not servable lock-free": a miss, a mid-seal
// (log-role) entry, or persistent version churn — the caller falls back
// to hitLocked, which re-decides from scratch. It performs exactly the NVM
// operations of a locked hit (one 16B entry load + one block read charge),
// so on a quiescent cache the simulated cost is identical.
func (c *Cache) hitFast(no uint64) (View, bool) {
	sh := c.shardOf(no)
	retries := 0
	for {
		i, ok := sh.idx.Get(no)
		if !ok {
			return View{}, false // miss (or just evicted): locked path decides
		}
		s1 := c.slotSeq[i].Load()
		if s1&1 != 0 {
			// A mutator is inside this slot right now.
			c.rec.Inc(metrics.CacheSeqlockRetry)
			if retries++; retries > maxFastReadRetries {
				return View{}, false
			}
			continue
		}
		e := c.readEntry(i)
		if !e.valid || e.disk != no {
			// Stale index entry: the slot was evicted (and possibly
			// reused) between the lookup and the entry load. Retry from
			// the lookup; the index catches up momentarily.
			if retries++; retries > maxFastReadRetries {
				return View{}, false
			}
			continue
		}
		if e.role == RoleLog {
			return View{}, false // mid-seal: locked path serves the sealed version
		}
		c.pinBlock(e.cur)
		if c.slotSeq[i].Load() != s1 {
			// A mutator entered the slot between the entry load and the
			// pin: the pin may sit on a freed or reused block. Undo (which
			// completes a deferred free if we were the last holder) and
			// retry.
			c.unpinBlock(e.cur)
			c.rec.Inc(metrics.CacheSeqlockRetry)
			if retries++; retries > maxFastReadRetries {
				return View{}, false
			}
			continue
		}
		// Pinned a stable version. Charge the NVM read and alias the bytes.
		data := c.mem.ViewBytes(c.lay.blockOff(e.cur), BlockSize)
		// Promote without the lock: stamp the exact access tick and queue
		// the LRU splice.
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
		if retries > 0 && c.obs != nil {
			c.obs.readRetry.Record(int64(retries))
		}
		return View{c: c, no: no, blk: e.cur, pinned: true, data: data}, true
	}
}

// hitLocked serves a hit of block no under the shard lock, reporting false
// on a miss: the fallback for churn and the only path for mid-seal
// blocks. Pinning under the lock needs no seqlock dance — every freeing
// mutator of this shard's blocks either holds the lock or (role switch,
// seal phase D) published its entry update under it before freeing, so
// the pin is ordered with the free by the lock itself plus the atomic pin
// word.
func (c *Cache) hitLocked(no uint64) (View, bool) {
	sh := c.shardOf(no)
	sh.mu.Lock()
	i, ok := sh.idx.Get(no)
	if !ok {
		sh.mu.Unlock()
		return View{}, false
	}
	e := c.readEntry(i)
	blk := e.cur
	if e.role == RoleLog {
		if e.prev == Fresh {
			// Freshly written block mid-seal: the last sealed contents are
			// whatever the disk holds. Read around the cache into a
			// private copy; there is no stable NVM version to pin.
			sh.mu.Unlock()
			buf := bufpool.Get()
			c.disk.ReadBlock(no, buf)
			return View{c: c, no: no, owned: true, data: buf}, true
		}
		// Serve the previous sealed version; no LRU touch while
		// committing. The pin lands under the same shard lock the seal's
		// role switch will take before it frees prev, so the deferral is
		// guaranteed to be observed.
		blk = e.prev
	} else {
		c.touchLocked(sh, i)
	}
	c.pinBlock(blk)
	sh.mu.Unlock()
	data := c.mem.ViewBytes(c.lay.blockOff(blk), BlockSize)
	return View{c: c, no: no, blk: blk, pinned: true, data: data}, true
}
