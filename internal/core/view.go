package core

import (
	"fmt"

	"tinca/internal/bufpool"
	"tinca/internal/metrics"
)

// This file implements the zero-copy half of the redesigned read API.
// Read(no, p) copies 4 KiB on every hit; ReadView(no) hands the caller a
// View whose Bytes() alias the pinned NVM block directly, so a hit costs
// the entry load plus the (simulated) NVM read charge and nothing else —
// no DRAM copy, no allocation.
//
// # Pin protocol (DESIGN.md §12)
//
// The only way cached bytes ever change under a reader is block *reuse*:
// commits COW into freshly allocated blocks and evictions only free, so a
// block's bytes are immutable from the moment its entry is published
// until the block re-enters the free pool. A view therefore pins the NVM
// block, not the slot: viewPins[b] holds (refcount << 1) | orphanBit.
//
//   - Readers pin with an atomic +2. The fast path then re-loads the
//     slot's seqlock: unchanged means no mutator entered the slot between
//     the entry load and the pin, so the pin landed on the block the
//     entry still references. If it changed, the reader unpins and
//     retries — the transient pin is harmless (see below).
//   - Mutators that would free a block (eviction, drop of a raced-in
//     fill, role switch freeing a previous version, live revoke) call
//     freeDataBlock instead of pushing to the allocator directly: if the
//     block is unpinned it is freed on the spot; otherwise the orphan bit
//     is set and the *last unpin* frees it. Eviction thus never blocks on
//     an open view, and an open view never observes recycled bytes.
//
// Why a reader and a freeing mutator cannot miss each other: the mutator
// bumps the slot seqlock (beginSlotMutate) strictly before it reads the
// pin word in freeDataBlock, and the reader writes the pin word strictly
// before it re-reads the seqlock. Both accesses are sequentially
// consistent (Go sync/atomic), so this is Dekker's handshake: either the
// mutator sees the pin (and defers the free), or the reader sees the
// seqlock bump (and unpins/retries) — or both, which also defers safely.
// A transient pin from a losing reader can at worst (a) briefly delay a
// free to its own unpin, or (b) land on a block already recycled by a new
// owner, where its paired unpin restores the count; the CAS discipline in
// unpinBlock guarantees exactly one push per orphaned block either way.
//
// Views over a mid-seal (log-role) block take the locked path and pin the
// previous sealed version; the role switch's free of that version goes
// through freeDataBlock too. A mid-seal fresh block has no sealed NVM
// version, so that view alone degrades to a private copy.

// View is a read-only window onto one cached disk block, returned by
// ReadView. Bytes() stays valid — a stable snapshot of the block's
// committed contents at ReadView time — until Close, even if the block is
// concurrently rewritten (COW redirects writes elsewhere) or evicted (the
// free is deferred to Close). A View must not be copied after first use
// and must be Closed exactly once; the zero View is closed.
type View struct {
	c      *Cache
	no     uint64
	blk    uint32 // pinned NVM block, when pinned
	pinned bool
	owned  bool // data is a private bufpool copy owned by the view
	closed bool
	data   []byte
}

// Bytes returns the block contents (BlockSize long), or nil after Close.
// The slice must not be written to and must not outlive Close.
func (v *View) Bytes() []byte {
	if v.c == nil || v.closed {
		return nil
	}
	return v.data
}

// BlockNo returns the disk block number the view covers.
func (v *View) BlockNo() uint64 { return v.no }

// ZeroCopy reports whether the view aliases pinned NVM bytes (false for
// the private-copy fallback: a mid-seal fresh block).
func (v *View) ZeroCopy() bool { return v.pinned }

// Close releases the view: the pin is dropped (completing any free the
// eviction deferred to us) or the private copy is recycled. Returns
// ErrViewExpired if the view was already closed (or is the zero View).
func (v *View) Close() error {
	if v.c == nil || v.closed {
		return ErrViewExpired
	}
	v.closed = true
	c := v.c
	if v.pinned {
		c.unpinBlock(v.blk)
	} else if v.owned {
		bufpool.Put(v.data)
	}
	v.data = nil
	c.viewsOpen.Add(-1)
	return nil
}

// pinBlock takes one view reference on NVM block b.
func (c *Cache) pinBlock(b uint32) {
	c.viewPins[b].Add(2)
}

// unpinBlock drops one view reference. If this was the last pin of an
// orphaned block (value 1 = zero refs + orphan bit), the CAS 1→0 elects
// exactly one unpinner to complete the deferred free.
func (c *Cache) unpinBlock(b uint32) {
	if nv := c.viewPins[b].Add(-2); nv == 1 {
		if c.viewPins[b].CompareAndSwap(1, 0) {
			c.alloc.pushBlock(b)
		}
	}
}

// freeDataBlock returns data block b to the allocator, unless a view
// holds it pinned — then the orphan bit defers the free to the last
// unpin. Callers on the eviction/commit side must have bumped the slot's
// seqlock (beginSlotMutate) before calling, so the Dekker handshake with
// pinning readers holds (file comment above).
func (c *Cache) freeDataBlock(b uint32) {
	vp := &c.viewPins[b]
	for {
		v := vp.Load()
		if v == 0 {
			c.alloc.pushBlock(b)
			return
		}
		if vp.CompareAndSwap(v, v|1) {
			c.rec.Inc(metrics.CacheViewDeferFree)
			return
		}
	}
}

// OpenViews reports how many views are currently open (diagnostics).
func (c *Cache) OpenViews() int64 { return c.viewsOpen.Load() }

// ReadView returns a zero-copy View of the current committed contents of
// disk block no, populating the cache on a miss exactly like Read. A hit
// pins the NVM block and aliases its bytes — the simulated NVM cost
// matches Read's, but the host-side 4 KiB copy and its allocation
// disappear. The caller must Close the view; until then the bytes are a
// stable snapshot even across concurrent commits (COW) and evictions
// (deferred free).
func (c *Cache) ReadView(no uint64) (View, error) {
	c.checkPoison()
	if c.closed.Load() {
		return View{}, ErrClosed
	}
	if no >= c.disk.Blocks() {
		return View{}, fmt.Errorf("core: ReadView of block %d beyond disk (%d blocks): %w",
			no, c.disk.Blocks(), ErrOutOfRange)
	}
	for {
		if !c.opts.lockedReadHit {
			if v, ok := c.readViewFast(no); ok {
				return v, nil
			}
		}
		v, ok, err := c.readViewLocked(no)
		if err != nil {
			return View{}, err
		}
		if ok {
			return v, nil
		}
		// Miss: populate (no output copy needed) and retry the hit paths.
		c.rec.Inc(metrics.CacheReadMiss)
		if err := c.fillConcurrent(no, nil); err != nil {
			return View{}, err
		}
	}
}

// readViewFast is the lock-free hit path for views: readFast's seqlock
// protocol (readfast.go) with the block copy replaced by pin + re-check.
// The re-check proves the pin landed while the entry still referenced the
// block, so the bytes cannot be recycled until Close.
func (c *Cache) readViewFast(no uint64) (View, bool) {
	sh := c.shardOf(no)
	retries := 0
	for {
		i, ok := sh.idx.Get(no)
		if !ok {
			return View{}, false // miss (or just evicted): locked path decides
		}
		s1 := c.slotSeq[i].Load()
		if s1&1 != 0 {
			c.rec.Inc(metrics.CacheSeqlockRetry)
			if retries++; retries > maxFastReadRetries {
				return View{}, false
			}
			continue
		}
		e := c.readEntry(i)
		if !e.valid || e.disk != no {
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
		// LRU promotion, exactly as readFast: stamp the tick, queue the
		// splice.
		c.atime[i].Store(c.tick.Add(1))
		if !sh.touches.push(i) {
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
		c.rec.Inc(metrics.CacheViewZeroCopy)
		c.viewsOpen.Add(1)
		return View{c: c, no: no, blk: e.cur, pinned: true, data: data}, true
	}
}

// readViewLocked serves a view under the shard lock: the fallback for
// churn and the only entry point for mid-seal blocks. Pinning under the
// lock needs no seqlock dance — every freeing mutator of this shard's
// blocks either holds the lock or (role switch, seal phase D) published
// its entry update under it before freeing, so the pin is ordered with
// the free by the lock itself plus the atomic pin word.
func (c *Cache) readViewLocked(no uint64) (View, bool, error) {
	sh := c.shardOf(no)
	sh.mu.Lock()
	i, ok := sh.idx.Get(no)
	if !ok {
		sh.mu.Unlock()
		return View{}, false, nil // miss: the caller fills and retries
	}
	e := c.readEntry(i)
	if e.role == RoleLog {
		if e.prev == Fresh {
			// Freshly written block mid-seal: the last sealed contents are
			// whatever the disk holds. Read around the cache into a
			// private copy; there is no stable NVM version to pin.
			sh.mu.Unlock()
			buf := bufpool.Get()
			c.disk.ReadBlock(no, buf)
			c.rec.Inc(metrics.CacheReadHit)
			c.rec.Inc(metrics.CacheReadHitSlow)
			c.rec.Inc(metrics.CacheViewCopied)
			c.viewsOpen.Add(1)
			return View{c: c, no: no, owned: true, data: buf}, true, nil
		}
		// Serve the previous sealed version zero-copy. The pin lands under
		// the same shard lock the seal's role switch will take before it
		// frees prev, so the deferral is guaranteed to be observed.
		c.pinBlock(e.prev)
		sh.mu.Unlock()
		data := c.mem.ViewBytes(c.lay.blockOff(e.prev), BlockSize)
		c.rec.Inc(metrics.CacheReadHit)
		c.rec.Inc(metrics.CacheReadHitSlow)
		c.rec.Inc(metrics.CacheViewZeroCopy)
		c.viewsOpen.Add(1)
		return View{c: c, no: no, blk: e.prev, pinned: true, data: data}, true, nil
	}
	c.pinBlock(e.cur)
	c.touchLocked(sh, i)
	sh.mu.Unlock()
	data := c.mem.ViewBytes(c.lay.blockOff(e.cur), BlockSize)
	c.rec.Inc(metrics.CacheReadHit)
	c.rec.Inc(metrics.CacheReadHitSlow)
	c.rec.Inc(metrics.CacheViewZeroCopy)
	c.viewsOpen.Add(1)
	return View{c: c, no: no, blk: e.cur, pinned: true, data: data}, true, nil
}
