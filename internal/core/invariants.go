package core

import "fmt"

// lockAllShards acquires every shard lock in index order (the only place
// two shard locks are ever held at once; the fixed order makes it
// deadlock-free against single-shard holders).
func (c *Cache) lockAllShards() {
	for s := range c.shards {
		c.shards[s].mu.Lock()
	}
}

func (c *Cache) unlockAllShards() {
	for s := range c.shards {
		c.shards[s].mu.Unlock()
	}
}

// CheckInvariants verifies the structural invariants of DESIGN.md §5
// against both the persistent entry table and the DRAM structures. It is
// used by the crash-consistency test suite after every recovery; any
// violation is returned as an error naming the broken invariant.
func (c *Cache) CheckInvariants() error {
	// The ring seal locks quiesce every seal.
	c.lockRings()
	defer c.unlockRings()
	c.lockAllShards()
	defer c.unlockAllShards()

	for r := range c.rings {
		rst := &c.rings[r]
		if rst.head != rst.tail {
			return fmt.Errorf("invariant: ring %d Head (%d) != Tail (%d) while quiescent", r, rst.head, rst.tail)
		}
		if h := c.loadPointer(c.lay.ringHeadOff(r)); h != rst.head {
			return fmt.Errorf("invariant: ring %d persistent Head %d != cached %d", r, h, rst.head)
		}
		if t := c.loadPointer(c.lay.ringTailOff(r)); t != rst.tail {
			return fmt.Errorf("invariant: ring %d persistent Tail %d != cached %d", r, t, rst.tail)
		}
	}

	seenDisk := make(map[uint64]int32)
	usedBlock := make(map[uint32]int32)
	valid := 0
	for i := 0; i < c.lay.Capacity; i++ {
		raw := c.mem.Load16(c.lay.entryOff(i))
		e := decodeEntry(raw)
		if !e.valid {
			// The free-slot rule every install relies on (entry.go).
			if raw != [16]byte{} {
				return fmt.Errorf("invariant: entry %d is not live but holds % x", i, raw)
			}
			continue
		}
		valid++
		if e.role == RoleLog {
			return fmt.Errorf("invariant: entry %d still has log role while quiescent", i)
		}
		if e.prev != Fresh {
			return fmt.Errorf("invariant: entry %d keeps previous version %d while quiescent", i, e.prev)
		}
		if j, dup := seenDisk[e.disk]; dup {
			return fmt.Errorf("invariant: disk block %d mapped by entries %d and %d", e.disk, j, i)
		}
		seenDisk[e.disk] = int32(i)
		if int(e.cur) >= c.lay.Capacity {
			return fmt.Errorf("invariant: entry %d references NVM block %d beyond capacity %d", i, e.cur, c.lay.Capacity)
		}
		if j, dup := usedBlock[e.cur]; dup {
			return fmt.Errorf("invariant: NVM block %d referenced by entries %d and %d", e.cur, j, i)
		}
		usedBlock[e.cur] = int32(i)
		if got, ok := c.shardOf(e.disk).idx.Get(e.disk); !ok || got != int32(i) {
			return fmt.Errorf("invariant: hash table out of sync for disk block %d (entry %d)", e.disk, i)
		}
	}
	mapped, linked := 0, 0
	for s := range c.shards {
		mapped += c.shards[s].idx.Len()
		// Apply any pending fast-path promotions so the LRU count below
		// reflects every hit taken before quiescence.
		c.drainTouchesLocked(&c.shards[s])
		linked += c.shards[s].lru.len()
	}
	if mapped != valid {
		return fmt.Errorf("invariant: hash shards have %d mappings, entry table has %d valid entries", mapped, valid)
	}
	if linked != valid {
		return fmt.Errorf("invariant: LRU shards link %d slots, entry table has %d valid entries", linked, valid)
	}

	// No pins may survive a quiescent cache: every commit unpins in its
	// epilogue (or its unwind/abort path).
	for s := range c.shards {
		if n := len(c.shards[s].pinned); n != 0 {
			return fmt.Errorf("invariant: shard %d holds %d leftover pins while quiescent", s, n)
		}
	}

	// Every per-slot seqlock must be even (stable) while quiescent: an odd
	// counter means a mutator left a begin/end bracket unbalanced.
	for i := 0; i < c.lay.Capacity; i++ {
		if v := c.slotSeq[i].Load(); v&1 != 0 {
			return fmt.Errorf("invariant: slot %d seqlock odd (%d) while quiescent", i, v)
		}
	}

	// Pinned-view accounting (view.go). A pinned block must still be
	// referenced by an entry unless it carries the orphan bit, in which
	// case it must NOT be referenced: it is free-in-waiting, owned by the
	// open views until the last unpin pushes it. Every pin belongs to an
	// open zero-copy view, so the pin total is bounded by the open-view
	// gauge (copying views hold no pin).
	openViews := c.viewsOpen.Load()
	orphaned := make(map[uint32]bool)
	var pinTotal int64
	for b := range c.viewPins {
		v := c.viewPins[b].Load()
		if v == 0 {
			continue
		}
		count, orphan := v>>1, v&1 == 1
		if count <= 0 {
			return fmt.Errorf("invariant: NVM block %d orphaned with no pins (word %d)", b, v)
		}
		pinTotal += count
		_, used := usedBlock[uint32(b)]
		if orphan {
			if used {
				return fmt.Errorf("invariant: NVM block %d deferred-free but still referenced", b)
			}
			orphaned[uint32(b)] = true
		} else if !used {
			return fmt.Errorf("invariant: NVM block %d pinned by a view but referenced by no entry", b)
		}
	}
	if pinTotal > openViews {
		return fmt.Errorf("invariant: %d view pins exceed %d open views", pinTotal, openViews)
	}

	// Free monitor, referenced blocks and orphaned (view-held) blocks must
	// partition the data area. Every allocator push during an eviction
	// happens under the victim's shard lock, so holding all shard locks
	// (plus the ring locks against commits) makes the snapshot consistent;
	// pins are stable because the caller is quiescent (no views opening).
	freeB, freeS := c.alloc.snapshot()
	if len(freeB)+len(usedBlock)+len(orphaned) != c.lay.Capacity {
		return fmt.Errorf("invariant: free (%d) + used (%d) + view-held (%d) != capacity (%d)",
			len(freeB), len(usedBlock), len(orphaned), c.lay.Capacity)
	}
	for _, b := range freeB {
		if _, used := usedBlock[b]; used {
			return fmt.Errorf("invariant: NVM block %d both free and referenced", b)
		}
		if orphaned[b] {
			return fmt.Errorf("invariant: NVM block %d both free and deferred to a view", b)
		}
	}
	if len(freeS)+valid != c.lay.Capacity {
		return fmt.Errorf("invariant: free slots (%d) + valid entries (%d) != capacity (%d)",
			len(freeS), valid, c.lay.Capacity)
	}
	return nil
}

// ResidentBlocks returns the set of cached disk block numbers with their
// dirtiness, for test oracles.
func (c *Cache) ResidentBlocks() map[uint64]bool {
	c.lockRings()
	defer c.unlockRings()
	c.lockAllShards()
	defer c.unlockAllShards()
	out := make(map[uint64]bool)
	for s := range c.shards {
		c.shards[s].idx.Range(func(no uint64, i int32) bool {
			out[no] = c.readEntry(i).modified
			return true
		})
	}
	return out
}
