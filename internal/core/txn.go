package core

import (
	"fmt"

	"tinca/internal/bufpool"
	"tinca/internal/flight"
	"tinca/internal/metrics"
)

// Txn is a running transaction (Section 4.4): an ordered set of 4KB block
// updates staged in DRAM. Running transactions are pure DRAM state, so any
// number of them build up concurrently without touching cache locks; only
// Commit enters the (group-) commit pipeline. A Txn is not safe for
// concurrent use by multiple goroutines; use one Txn per writer.
type Txn struct {
	c      *Cache
	blocks map[uint64][]byte
	order  []uint64
	done   bool

	// sealSeq is the generation of the seal this transaction was
	// committed under (0 until a seal claims it). Written under the seal
	// locks of the transaction's rings.
	sealSeq uint64
}

// SealSeq returns the sequence number of the seal that committed (or was
// committing) this transaction, or 0 if no seal has claimed it yet. A
// crash harness compares it against the largest value Options.SealHook
// reported: seals at or below that value reached their commit point, so
// every transaction they claimed must be durable; transactions with a
// larger (or zero) SealSeq must be absent. Read it only after Commit
// returned or after the committing goroutines were joined.
func (t *Txn) SealSeq() uint64 { return t.sealSeq }

// Begin initiates a running transaction (tinca_init_txn).
func (c *Cache) Begin() *Txn {
	return &Txn{c: c, blocks: make(map[uint64][]byte)}
}

// Write stages the new contents of disk block no. Writing the same block
// twice in one transaction keeps the latest contents (the file system
// coalesces updates per transaction, as JBD2 does).
func (t *Txn) Write(no uint64, data []byte) {
	if t.done {
		panic("core: Write on finished transaction")
	}
	if len(data) != BlockSize {
		panic(fmt.Sprintf("core: transaction block must be %d bytes", BlockSize))
	}
	if no > maxDiskBlock {
		panic("core: disk block number exceeds 7 bytes")
	}
	buf, ok := t.blocks[no]
	if !ok {
		buf = make([]byte, BlockSize)
		t.blocks[no] = buf
		t.order = append(t.order, no)
	}
	copy(buf, data)
}

// Len reports how many distinct blocks are staged.
func (t *Txn) Len() int { return len(t.order) }

// Abort discards the running transaction (tinca_abort). Nothing has been
// written to NVM for a running transaction, so this is purely a DRAM
// operation; blocks partially committed by a crashed commit are revoked by
// recovery instead.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.blocks = nil
	t.order = nil
	t.c.rec.Inc(metrics.TxnAbort)
}

// Commit makes the running transaction durable and atomic following the
// commit protocol of Section 4.4:
//
//  1. for each block: write the data into a newly allocated NVM block
//     (COW for hits) and persist it; atomically persist the block's cache
//     entry with the log role and both NVM locations;
//  2. record the on-disk block number in the ring slot Head points at and
//     advance Head (8B atomic persists);
//  3. after all blocks: switch every block's role to buffer, releasing
//     the previous versions;
//  4. set Tail = Head; this atomic store is the commit point.
//
// In the default configuration concurrently arriving Commits coalesce
// into a single seal (see seal.go): the protocol's persist order is kept
// but its fences and pointer flips are paid once per batch. Ablation
// configurations keep the paper's one-transaction-at-a-time commit.
//
// On success all staged blocks are durable and atomic: after any crash,
// either every block of this transaction is visible or none is.
func (t *Txn) Commit() error {
	if t.done {
		panic("core: Commit on finished transaction")
	}
	c := t.c
	c.checkPoison()
	if c.closed.Load() {
		return ErrClosed
	}
	if len(t.order) == 0 {
		t.done = true
		return nil
	}
	if !c.serial {
		// Per-ring capacity checks and routing live in commitMultiRing.
		return c.commitMultiRing(t)
	}
	if len(t.order) > c.lay.RingSlots {
		return ErrTxnTooLarge
	}
	var t0 int64
	if c.obs != nil {
		t0 = c.obs.now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	err := c.commitSerialLocked(t)
	if err == nil {
		c.maybeCheckpoint() // takes the ring lock the commit just released
	}
	t.done = true
	if c.obs != nil {
		c.obs.phase(c.obs.total, 0, spanSerial, t0, c.obs.gid())
	}
	return err
}

// commitSerialLocked is the paper's one-transaction-at-a-time commit, kept
// as the reference protocol the ablation configurations run — always on a
// single ring, whose lock it holds throughout so the ring's cached pointers
// have one guard in every mode. Caller holds c.mu.
func (c *Cache) commitSerialLocked(t *Txn) error {
	rs := &c.rings[0]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	t.sealSeq = c.gen.Add(1)
	c.flEmit(flight.EvSerialBegin, 0, t.sealSeq, uint64(len(t.order)), 0)
	// Every slot this commit touches stays pinned (in its block's shard)
	// until the Tail flip below is durable: after the role switch an
	// entry looks like an ordinary dirty buffer, but evicting it — with
	// its disk write-back — before the commit point would let a crash
	// observe a half-committed transaction. unpin releases them, keyed by
	// the block number the pin was registered under (the slot alone is
	// not enough once DisableTxnPin allows mid-commit reuse).
	touched := make([]int32, 0, len(t.order))
	unpin := func() {
		for k, slot := range touched {
			sh := c.shardOf(t.order[k])
			sh.mu.Lock()
			delete(sh.pinned, slot)
			sh.mu.Unlock()
		}
	}
	for _, no := range t.order {
		slot, err := c.commitBlock(rs, no, t.blocks[no])
		if err != nil {
			// Allocation failure mid-commit: the blocks committed so far
			// carry the log role. Persist Tail over the consumed ring
			// range first — Tail is monotonic, so the advance survives a
			// crash, after which the blocks are stray log entries that
			// recovery's sweep revokes; then revoke them live. Head
			// stays where it is: a rollback could not be made durable
			// through the max-recovered pointer slots, and a stale
			// larger Head over revoked entries would fail recovery.
			unpin()
			start := rs.tail
			c.setTail(rs)
			c.revokeRange(start, rs.head)
			c.flEmit(flight.EvSealAbort, 0, t.sealSeq, rs.head, uint64(rs.head-start))
			c.rec.Inc(metrics.TxnAbort)
			return err
		}
		touched = append(touched, slot)
	}

	// Step 4 of the protocol: role switches for all involved blocks.
	for _, slot := range touched {
		c.roleSwitch(slot)
	}

	// Write-through mode: propagate the committed blocks to disk now and
	// mark them clean; the NVM copy remains authoritative for reads.
	// writeBack coordinates with any write-back the background evictor or
	// destager may have in flight for the same slot.
	if c.opts.WriteThrough {
		buf := bufpool.Get()
		for _, slot := range touched {
			e := c.readEntry(slot)
			if !e.valid {
				continue
			}
			c.writeBack(c.shardOf(e.disk), e.disk, slot, buf)
		}
		bufpool.Put(buf)
	}

	// Step 5: Tail catches up with Head; this ends the transaction.
	c.setTail(rs)
	// After the flip, so this record durable implies the commit durable
	// (the invariant the crash oracle checks against the recovered Tail).
	c.flEmit(flight.EvSerialCommit, 0, t.sealSeq, rs.head, uint64(len(t.order)))
	if c.opts.SealHook != nil {
		c.opts.SealHook(t.sealSeq)
	}

	// Committed blocks become the most recently used (Section 4.6 rule 2b).
	// With pinning disabled (ablation) a touched slot may have been
	// evicted and even reused mid-commit, so the touch is skipped.
	if !c.opts.DisableTxnPin {
		for _, slot := range touched {
			e := c.readEntry(slot)
			sh := c.shardOf(e.disk)
			sh.mu.Lock()
			c.touchLocked(sh, slot)
			sh.mu.Unlock()
		}
	}
	unpin()

	c.rec.Inc(metrics.TxnCommit)
	c.rec.Add(metrics.TxnBlocks, int64(len(t.order)))
	return nil
}

// commitBlock writes one block of the committing transaction (steps 1-3 of
// the protocol) and returns the entry slot used. Serial path only; caller
// holds c.mu and rs.mu.
func (c *Cache) commitBlock(rs *ringState, no uint64, data []byte) (int32, error) {
	var slot int32
	h := shardIdx(no)
	sh := c.shardOf(no)
	sh.mu.Lock()
	i, hit := sh.idx.Get(no)
	var old entry
	if hit {
		old = c.readEntry(i)
		if old.role == RoleLog {
			sh.mu.Unlock()
			panic("core: block committed twice in one transaction")
		}
		// Rule 2 (Section 4.6): pin the hit target inside the same
		// critical section as the lookup — the background evictor only
		// honours pins it can observe under the shard lock, and the
		// allocation below may need to evict. The pin stays until
		// commitSerialLocked's epilogue (or is removed here on failure).
		sh.pinned[i] = true
	}
	sh.mu.Unlock()
	if hit {
		// Write hit: COW block write (Section 4.3). The updated version
		// goes to a newly allocated NVM block; the entry records both
		// locations in one atomic 16B store.
		c.rec.Inc(metrics.CacheWriteHit)
		if c.opts.Ablation == AblationUBJ {
			// UBJ-style commit-in-place: before overwriting the frozen
			// block, copy it aside inside NVM (the memcpy on the critical
			// path the paper criticizes), then update in place.
			nb, err := c.allocBlock(h)
			if err != nil {
				sh.mu.Lock()
				delete(sh.pinned, i)
				sh.mu.Unlock()
				return 0, err
			}
			tmp := bufpool.Get()
			func() {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				// In-place overwrite of the slot's data block: readers must
				// see the whole mutation as one version step.
				c.beginSlotMutate(i)
				c.mem.Load(c.lay.blockOff(old.cur), tmp)
				c.mem.PersistRange(c.lay.blockOff(nb), tmp) // preserve old version
				c.mem.PersistRange(c.lay.blockOff(old.cur), data)
				c.writeEntry(i, entry{valid: true, role: RoleLog, modified: true, disk: no, prev: nb, cur: old.cur})
				c.dirtied[i] = true
				c.endSlotMutate(i)
			}()
			bufpool.Put(tmp)
			slot = i
		} else {
			nb, err := c.allocBlock(h)
			if err != nil {
				sh.mu.Lock()
				delete(sh.pinned, i)
				sh.mu.Unlock()
				return 0, err
			}
			c.persistBlockData(c.lay.blockOff(nb), data)
			func() {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				// COW redirect: the data at old.cur is untouched, but the
				// entry flips to RoleLog — bump so an in-flight fast read
				// re-decides (and lands on the locked path).
				c.beginSlotMutate(i)
				c.writeEntry(i, entry{valid: true, role: RoleLog, modified: true, disk: no, prev: old.cur, cur: nb})
				c.dirtied[i] = true
				c.endSlotMutate(i)
			}()
			slot = i
		}
		c.rec.Inc(metrics.TxnCOWBlocks)
	} else {
		// Write miss: no previous version; the entry is created with the
		// FRESH tag so recovery knows to delete rather than roll back.
		c.rec.Inc(metrics.CacheWriteMiss)
		nb, err := c.allocBlock(h)
		if err != nil {
			return 0, err
		}
		c.persistBlockData(c.lay.blockOff(nb), data)
		i := c.allocSlot(h)
		func() {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if j, ok := sh.idx.Get(no); ok {
				// A concurrent read fill installed this block between the
				// lookup above and now. The commit's version supersedes
				// the clean filled copy.
				c.dropFilledLocked(sh, no, j)
			}
			c.beginSlotMutate(i)
			c.writeEntry(i, entry{valid: true, role: RoleLog, modified: true, disk: no, prev: Fresh, cur: nb})
			c.endSlotMutate(i)
			sh.idx.Put(no, i)
			c.pushFrontLocked(sh, i)
			sh.pinned[i] = true
			c.dirtied[i] = true
		}()
		slot = i
	}

	if c.opts.Ablation == AblationDoubleWrite {
		// Journaling-style double write inside the NVM cache: persist a
		// second, redundant copy of the block (the log copy a journal
		// would keep). The copy is immediately freed; only the cost is
		// modeled, matching what the role switch saves.
		if nb, err := c.allocBlock(h); err == nil {
			c.mem.PersistRange(c.lay.blockOff(nb), data)
			c.alloc.pushBlock(nb)
		}
	}

	// Record the block number in the ring and move Head (8B atomic writes
	// each followed by clflush+sfence).
	c.lay.writeRecord(c.mem, 0, rs.head, no, 0)
	c.mem.SFence()
	rs.head++
	c.mem.Persist8(c.lay.ringHeadSlotOff(0, rs.head), rs.head)
	return slot, nil
}

// roleSwitch converts the committed block in slot from log to buffer role
// and reclaims the previous version (Section 4.3). Serial path only;
// caller holds c.mu.
func (c *Cache) roleSwitch(slot int32) {
	e := c.readEntry(slot)
	if !e.valid || e.role != RoleLog {
		if c.opts.DisableTxnPin {
			// Replacement rule 2 is disabled (ablation mode): the block
			// was legally evicted mid-commit and its slot may be reused.
			return
		}
		panic("core: role switch on non-log entry")
	}
	prev := e.prev
	e.role = RoleBuffer
	e.prev = Fresh
	func() {
		sh := c.shardOf(e.disk)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		// Role switch log→buffer: after the bump pair a fast reader can
		// serve the slot again.
		c.beginSlotMutate(slot)
		c.writeEntry(slot, e)
		c.endSlotMutate(slot)
	}()
	if prev != Fresh {
		c.freeDataBlock(prev)
	}
}

// persistBlockData makes committed block data durable at off — unless the
// harness-validation fault asked for the flush to be (incorrectly)
// skipped, leaving the store volatile while the rest of the protocol
// proceeds as if it were durable.
func (c *Cache) persistBlockData(off int, data []byte) {
	if c.opts.Fault == FaultSkipDataFlush {
		c.mem.Store(off, data)
		return
	}
	c.mem.PersistRange(off, data)
}

// setTail persists ring rs's Tail = Head. Serial path only (ring 0);
// caller holds rs.mu.
func (c *Cache) setTail(rs *ringState) {
	rs.tail = rs.head
	c.mem.Persist8(c.lay.ringTailSlotOff(0, rs.tail), rs.tail)
}

// CommitBlocks is a convenience wrapper committing the given blocks as one
// transaction. The bufs slice parallels nos.
func (c *Cache) CommitBlocks(nos []uint64, bufs [][]byte) error {
	t := c.Begin()
	for i, no := range nos {
		t.Write(no, bufs[i])
	}
	return t.Commit()
}
