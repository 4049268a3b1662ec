// The commit log and its one seal (DESIGN.md §8).
//
// The log is R = max(Options.CommitRings, 1) rings. Ring r serializes the
// blocks of shards congruent to r mod R, owns its own persistent Head/Tail
// pointer pair and runs its own group-commit leader/follower queue;
// R = 1 is the paper's single ring. Transactions touching one ring seal
// under that ring's lock alone, so commits to disjoint rings proceed fully
// in parallel — one Head/Tail persist and one fence set per ring per batch.
// The only thing that differs between R = 1 and R > 1 is the on-NVM record
// format, and that lives behind writeRecord/readRecord in layout.go.
//
// The paper's protocol (Section 4.4) pays, per transaction, one fence per
// block data write, one per entry persist, two per ring record (slot +
// Head), one per role-switch batch and one for the Tail flip. A seal runs
// the same five phases once for a whole batch of concurrently arriving
// transactions:
//
//	A. data    — every block of every txn stored + flushed, ONE fence
//	B. entries — every entry 16B-stored + flushed (log role), ONE fence
//	C. ring    — every record stored + flushed, ONE fence, then ONE Head
//	             persist per participating ring
//	D. switch  — every entry switched to buffer role, ONE fence
//	E. tail    — ONE Tail persist per participating ring, index order: the
//	             commit point for the whole batch
//
// so the fence/pointer cost is amortized over the batch, and duplicate
// blocks across the batch are absorbed into a single NVM write (the
// NVLog-style sync absorption that gives group commit its throughput).
//
// Ordering argument (why recovery replays a coalesced seal identically to
// N sequential seals): recovery classifies the crash solely by each ring's
// range (Tail, Head) and the roles of the entries it names. The seal keeps
// exactly the paper's persist order — data before entry, entry before ring
// record, ring record before Head, Head before any role switch, every
// switch fenced before Tail. A crash therefore lands in one of the same
// three states recovery already distinguishes: stray log entries with no
// ring record (revoked by the sweep), a populated ring range with no
// switched entry (undo), or a partially switched range (redo). The batch
// is one transaction to recovery; its all-or-nothing outcome applies to
// every absorbed transaction at once, which is a legal serial schedule
// because none of them was acknowledged before the last Tail flipped.
//
// One generation counter stamps every seal: gen = c.gen.Add(1) is drawn
// AFTER acquiring every participating ring's seal lock, so within each ring
// the generations are strictly increasing, and recovery can merge the rings
// back into one total commit order by generation. It doubles as the seal
// sequence number for Options.SealHook and the flight records. A cross-ring
// transaction takes a solo seal: its rings are locked in index order
// (deadlock-free against every other seal), one generation is stamped in
// every participating ring, and the commit event fires after the LAST
// ring's Tail flip.
//
// Torn cross-ring seals: a crash between two rings' Tail persists (or
// anywhere at/after the first role switch) is resolved by ROLLING FORWARD
// — phase D freed the previous COW versions, so revocation is no longer
// possible, and redo is legal because the commit event (flight record,
// SealHook) fires only after the last Tail flip: a transaction whose
// seal was torn was never acknowledged, so either outcome is a correct
// serial history, and recovery's generation merge picks "committed"
// exactly when any role switch was durable. A crash before any role
// switch revokes the whole transaction across all its rings (the pending
// generations plus the stray-entry sweep cover rings whose records or
// Head persists never landed). See recovery.go for the replay.
//
// Locking. The ring locks provide the seal-vs-seal exclusion (two seals
// sharing a block share its ring), the shard locks protect per-entry
// state, and the allocator is lock-free / internally synchronized. Lock
// order: ring seal locks in index order, shard locks, the checkpoint
// writer's k.mu, the device.
//
// Ablations (DESIGN.md §6) are cost-only hooks inside these phases: they
// add the ablated mechanism's NVM traffic to phase A, written into one
// scratch block per seal that no entry ever names, so an ablated seal
// keeps the same persist order and the same crash consistency.
//
// Concurrency shape: there is no dedicated committer goroutine. The first
// committer to find its ring's queue idle becomes the leader and seals the
// batch on its own stack (leader/follower, as in classic group commit).
// This keeps the simulated-crash machinery honest: an injected crash
// panics out of a committing caller, exactly as the single-threaded
// harness expects, and the cache poisons itself so every follower and
// later caller observes the crash too.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"tinca/internal/bufpool"
	"tinca/internal/flight"
	"tinca/internal/metrics"
)

// ringState is the DRAM side of one commit ring.
type ringState struct {
	// mu is the ring's seal lock: it guards the ring's persistent
	// Head/Tail pair, its record region and the cached head/tail below.
	// A seal holds the locks of every participating ring, acquired in
	// index order, for the whole five-phase protocol.
	mu         sync.Mutex
	head, tail uint64 // cached copies of the persistent pointers

	// Leader/follower queue for single-ring commits.
	qmu   sync.Mutex
	qcond *sync.Cond
	queue []*commitReq
	busy  bool

	// only is the one-element ring-id list {r} a single-ring seal runs
	// over, kept here so the common path allocates none.
	only [1]int

	// seals counts this ring's seals, depth is the queue-depth gauge (+1
	// enqueue, -1 when a seal claims the request); Stats reports both as
	// RingSeals/RingQueueDepth.
	seals, depth atomic.Int64
}

func (rs *ringState) init(r int) {
	rs.qcond = sync.NewCond(&rs.qmu)
	rs.only[0] = r
}

// ringOf maps a disk block to its commit ring: shardIdx(no) mod R, which
// for the power-of-two R dividing shardCount is a mask.
func (c *Cache) ringOf(no uint64) int {
	return int(no & uint64(len(c.rings)-1))
}

// lockRings acquires every ring's seal lock in index order: the quiescence
// the checkpoint writer and the invariant checker need (no seal in flight
// ⇒ no log-role entry, every cached pointer equals the persisted one).
func (c *Cache) lockRings() {
	for r := range c.rings {
		c.rings[r].mu.Lock()
	}
}

func (c *Cache) unlockRings() {
	for r := range c.rings {
		c.rings[r].mu.Unlock()
	}
}

// commitReq is one transaction waiting in a ring's group-commit queue. err
// and pv are written by the leader before done is set (under the ring's
// qmu), so the owning goroutine may read them once it observes done.
type commitReq struct {
	t    *Txn
	err  error
	pv   any // injected-crash panic to re-raise on the owner's goroutine
	done bool
}

// commitMultiRing is the Commit entry point of the concurrent commit path:
// route a single-ring transaction to its ring's leader/follower queue, a
// cross-ring transaction to a solo multi-ring seal.
func (c *Cache) commitMultiRing(t *Txn) error {
	// Per-ring block counts decide the route and the size check — the
	// capacity bound is per ring, not global.
	var counts [shardCount]int
	rings := 0
	first := -1
	for _, no := range t.order {
		r := c.ringOf(no)
		if counts[r] == 0 {
			rings++
			if first < 0 || r < first {
				first = r
			}
		}
		counts[r]++
	}
	for r := range c.rings {
		if counts[r] > c.lay.RingSlots {
			return ErrTxnTooLarge
		}
	}
	var err error
	if rings == 1 {
		err = c.ringGroupCommit(first, t)
	} else {
		err = c.commitCrossRing(t, counts[:len(c.rings)])
	}
	// Checkpoint trigger: must run with NO ring locks held (it acquires
	// all of them in index order), so it lives here rather than inside
	// the seal.
	c.maybeCheckpoint()
	return err
}

// ringGroupCommit enqueues t on ring r and waits until some leader
// (possibly this goroutine) seals it. Returns the transaction's outcome;
// re-raises a crash panic captured by the leader.
func (c *Cache) ringGroupCommit(r int, t *Txn) error {
	rs := &c.rings[r]
	req := &commitReq{t: t}
	var tEnq int64
	if c.obs != nil {
		tEnq = c.obs.now()
	}
	rs.qmu.Lock()
	rs.queue = append(rs.queue, req)
	rs.depth.Add(1)
	for !req.done {
		if rs.busy {
			rs.qcond.Wait()
			continue
		}
		// Become the leader for the next batch.
		rs.busy = true
		var tWait int64
		if c.obs != nil {
			tWait = c.obs.now()
		}
		if w := c.opts.SealWaitNS; w > 0 && len(rs.queue) < DefaultGroupBatch {
			// Optional batch-formation window (real time; the simulated
			// clock never advances while sleeping).
			rs.qmu.Unlock()
			time.Sleep(time.Duration(w) * time.Nanosecond)
			rs.qmu.Lock()
		}
		batch := c.takeRingBatchLocked(rs)
		rs.depth.Add(-int64(len(batch)))
		rs.qmu.Unlock()

		// Observability: the leader stamps the batch-formation wait (sim
		// time other goroutines charged while this leader held the window
		// open), then times each seal phase inside sealRings.
		var sealID uint64
		var g int64
		if c.obs != nil {
			sealID = c.obs.seals.Add(1)
			g = c.obs.gid()
			c.obs.phase(c.obs.wait, sealID, spanWait, tWait, g)
		}

		rs.mu.Lock()
		pv := c.runRingSealLocked(rs.only[:], batch, sealID, g)
		rs.mu.Unlock()

		rs.qmu.Lock()
		for _, q := range batch {
			if pv != nil {
				q.pv = pv
			}
			q.done = true
		}
		rs.busy = false
		rs.qcond.Broadcast()
	}
	rs.qmu.Unlock()
	if req.pv != nil {
		panic(req.pv)
	}
	t.done = true
	if c.obs != nil {
		c.obs.phase(c.obs.total, 0, spanCommit, tEnq, c.obs.gid())
	}
	return req.err
}

// takeRingBatchLocked pops ring rs's next batch: FIFO, capped by
// DefaultGroupBatch, and capped so the merged write set cannot exceed
// the ring (the sum of per-txn block counts is a conservative bound; every
// queued txn individually fits, so at least one is always taken). Caller
// holds rs.qmu.
func (c *Cache) takeRingBatchLocked(rs *ringState) []*commitReq {
	blocks := 0
	n := 0
	for n < len(rs.queue) && n < DefaultGroupBatch {
		blocks += len(rs.queue[n].t.order)
		if n > 0 && blocks > c.lay.RingSlots {
			break
		}
		n++
	}
	batch := rs.queue[:n:n]
	rs.queue = rs.queue[n:]
	return batch
}

// commitCrossRing seals t across its participating rings: a solo seal
// that locks the rings in index order. counts[r] > 0 marks participation.
func (c *Cache) commitCrossRing(t *Txn, counts []int) error {
	var tEnq int64
	if c.obs != nil {
		tEnq = c.obs.now()
	}
	c.rec.Inc(metrics.TxnCrossShard)
	ringIDs := make([]int, 0, len(counts))
	for r, n := range counts {
		if n > 0 {
			ringIDs = append(ringIDs, r)
		}
	}
	// Index order makes the multi-lock acquisition deadlock-free against
	// every other seal; TryLock first only to count contention.
	for _, r := range ringIDs {
		rs := &c.rings[r]
		if !rs.mu.TryLock() {
			c.rec.Inc(metrics.TxnRingSealConflicts)
			rs.mu.Lock()
		}
	}
	req := &commitReq{t: t}
	var sealID uint64
	var g int64
	if c.obs != nil {
		sealID = c.obs.seals.Add(1)
		g = c.obs.gid()
	}
	pv := c.runRingSealLocked(ringIDs, []*commitReq{req}, sealID, g)
	for _, r := range ringIDs {
		c.rings[r].mu.Unlock()
	}
	if pv != nil {
		panic(pv)
	}
	t.done = true
	if c.obs != nil {
		c.obs.phase(c.obs.total, 0, spanCommit, tEnq, c.obs.gid())
	}
	return req.err
}

// runRingSealLocked seals one batch on the given rings (ascending; caller
// holds every ring's seal lock). It returns a recovered injected-crash
// panic value (nil normally); per-request errors are stored in the
// requests. When the merged batch cannot be allocated it degrades to
// one-seal-per-transaction: small transactions still succeed where the
// merged batch could not fit.
func (c *Cache) runRingSealLocked(ringIDs []int, batch []*commitReq, sealID uint64, g int64) (pv any) {
	defer func() {
		if r := recover(); r != nil {
			// A simulated power failure fired mid-seal: poison the cache so
			// every subsequent operation observes the crash, and hand the
			// panic value to every transaction in the batch.
			c.poison(r)
			pv = r
		}
	}()
	if c.closed.Load() {
		for _, q := range batch {
			q.err = ErrClosed
		}
		return nil
	}
	c.checkPoison()
	if err := c.sealRings(ringIDs, batch, sealID, g); err != nil {
		// Phase-0 allocation failed with nothing persisted: retry each
		// transaction as its own seal, failing only those that cannot
		// allocate alone.
		for _, q := range batch {
			var soloID uint64
			if c.obs != nil {
				soloID = c.obs.seals.Add(1)
			}
			if q.err = c.sealRings(ringIDs, []*commitReq{q}, soloID, g); q.err != nil {
				c.rec.Inc(metrics.TxnAbort)
			}
		}
	}
	return nil
}

// planBlock is one distinct disk block of the merged batch write set.
type planBlock struct {
	no        uint64
	data      []byte // winning (last-writer) contents
	slot      int32  // entry slot (existing for hits, fresh for misses)
	nb        uint32 // newly allocated NVM data block
	prev      uint32 // previous NVM block for hits, Fresh for misses
	hit       bool
	allocated bool // phase 0 reached this block (nb/slot are live)
}

// sealRings runs the five seal phases for one batch over the given rings
// (ascending; caller holds every ring's seal lock). A non-nil error means
// phase-0 allocation failed and NOTHING was persisted — the volatile plan
// was unwound and the batch may be retried or failed by the caller. Reads
// keep flowing through the shard locks for the duration; only seals that
// share a ring wait. sealID and g identify the seal and leader goroutine
// for observability (both zero when Observe is off).
func (c *Cache) sealRings(ringIDs []int, batch []*commitReq, sealID uint64, g int64) error {
	// Phase stamps: ts advances phase by phase; tSeal spans the whole
	// seal. One nil check per phase when observability is off.
	var ts, tSeal int64
	if c.obs != nil {
		ts = c.obs.now()
		tSeal = ts
	}

	// Phase 0 — plan (volatile only). Merge the batch write set in
	// arrival order (last writer wins, a legal serial schedule because
	// the whole batch commits atomically), allocate every NVM block and
	// entry slot, and pin the hit targets against eviction (replacement
	// rule 2, Section 4.6).
	plan := make([]*planBlock, 0, 16)
	byNo := make(map[uint64]*planBlock, 16)
	absorbed := 0
	for _, q := range batch {
		for _, no := range q.t.order {
			if pb, ok := byNo[no]; ok {
				pb.data = q.t.blocks[no]
				absorbed++
				continue
			}
			pb := &planBlock{no: no, data: q.t.blocks[no]}
			byNo[no] = pb
			plan = append(plan, pb)
		}
	}
	// The ablation hooks' scratch block (Fresh when none): never named by
	// an entry, so free again after a crash; the epilogue or unwindPlan
	// releases it.
	scratch := Fresh
	if c.opts.Ablation != AblationNone {
		b, err := c.allocBlock()
		if err != nil {
			return err
		}
		scratch = b
	}
	for _, pb := range plan {
		sh := c.shardOf(pb.no)
		sh.mu.Lock()
		i, hit := sh.idx.Get(pb.no)
		if hit {
			e := c.readEntry(i)
			if e.role == RoleLog {
				// Seal-vs-seal exclusion is the ring lock: a live log-role
				// entry here means a seal escaped it.
				sh.mu.Unlock()
				panic("core: live log-role entry outside a seal")
			}
			pb.hit, pb.slot, pb.prev = true, i, e.cur
			// Pin inside the same critical section as the lookup: the
			// victim scan only honours pins it can observe under the
			// shard lock.
			sh.pinned[i] = true
		} else {
			pb.prev = Fresh
		}
		sh.mu.Unlock()
		nb, err := c.allocBlock()
		if err != nil {
			c.unwindPlan(plan, scratch)
			return err
		}
		pb.nb = nb
		if !hit {
			pb.slot = c.allocSlot()
		}
		pb.allocated = true
	}
	if c.obs != nil {
		ts = c.obs.phase(c.obs.absorb, sealID, spanAbsorb, ts, g)
	}

	// The batch is one seal: claim its generation before any persist so a
	// harness can match the claimed transactions against the largest
	// generation whose commit point was reached (Options.SealHook). It is
	// drawn while EVERY participating ring lock is held, so each ring's
	// record generations are strictly increasing — the property recovery's
	// generation merge rests on.
	gen := c.gen.Add(1)
	for _, q := range batch {
		q.t.sealSeq = gen
	}
	last := ringIDs[len(ringIDs)-1]
	c.flEmit(flight.EvSealBegin, uint16(ringIDs[0]), gen, uint64(len(plan)), uint64(len(batch)))

	// Phase A — data. Every target block is freshly allocated, so no
	// reader can observe it yet; store + flush each, one fence for all.
	// (FaultSkipDataFlush, harness validation only, leaves the stores
	// volatile while the protocol proceeds.)
	for _, pb := range plan {
		off := c.lay.blockOff(pb.nb)
		c.mem.Store(off, pb.data)
		if c.opts.Fault != FaultSkipDataFlush {
			c.mem.CLFlush(off, BlockSize)
		}
		if scratch != Fresh {
			c.ablationCopy(pb, scratch)
		}
	}
	c.mem.SFence()
	if c.obs != nil {
		ts = c.obs.phase(c.obs.data, sealID, spanData, ts, g)
	}

	// Phase B — entries, log role (16B atomic store + flush each, under
	// the block's shard lock so concurrent readers never tear), one fence
	// for all. Readers that catch a log-role entry serve the previous
	// sealed version (or read around for fresh blocks).
	for _, pb := range plan {
		func() {
			sh := c.shardOf(pb.no)
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if !pb.hit {
				if j, ok := sh.idx.Get(pb.no); ok {
					// A concurrent read fill installed this block between
					// the plan phase (which decided "miss") and now. The
					// commit's version supersedes the clean filled copy.
					c.dropFilledLocked(sh, pb.no, j)
				}
				c.pushFrontLocked(sh, pb.slot)
				// Misses are pinned from insertion: after the phase-D role
				// switch the entry looks like an ordinary dirty buffer, but
				// it must not be evicted (with its disk write-back!) before
				// the Tail flip makes the whole batch durable.
				sh.pinned[pb.slot] = true
			}
			c.beginSlotMutate(pb.slot)
			c.storeEntry(pb.slot, entry{valid: true, role: RoleLog, modified: true, disk: pb.no, prev: pb.prev, cur: pb.nb})
			c.endSlotMutate(pb.slot)
			if !pb.hit {
				// Publish to the lock-free index only after the entry is in
				// place, so a fast reader can never look up a slot whose
				// entry is still the allocator's garbage.
				sh.idx.Put(pb.no, pb.slot)
			}
			c.dirtied[pb.slot] = true
		}()
	}
	c.mem.SFence()
	if c.obs != nil {
		ts = c.obs.phase(c.obs.entries, sealID, spanEntries, ts, g)
	}

	// Phase C — ring records: each participating ring's blocks into its
	// own consecutive slots (store + flush each), ONE fence for all rings,
	// then ONE Head persist per ring. (The paper's per-block Head persist
	// is unnecessary: recovery sweeps *all* stray log entries, however many
	// a crash leaves.)
	var added [shardCount]uint64
	for _, r := range ringIDs {
		rs := &c.rings[r]
		for _, pb := range plan {
			if c.ringOf(pb.no) == r {
				c.lay.writeRecord(c.mem, r, rs.head+added[r], pb.no, gen)
				added[r]++
			}
		}
	}
	c.mem.SFence()
	for _, r := range ringIDs {
		rs := &c.rings[r]
		rs.head += added[r]
		c.mem.Persist8(c.lay.ringHeadSlotOff(r, rs.head), rs.head)
	}
	if c.obs != nil {
		ts = c.obs.phase(c.obs.ring, sealID, spanRing, ts, g)
	}

	// Phase D — role switches: flip every entry to buffer role, freeing
	// the previous versions; one fence for all.
	for _, pb := range plan {
		func() {
			sh := c.shardOf(pb.no)
			sh.mu.Lock()
			defer sh.mu.Unlock()
			e := c.readEntry(pb.slot)
			e.role = RoleBuffer
			e.prev = Fresh
			c.beginSlotMutate(pb.slot)
			c.storeEntry(pb.slot, e)
			c.endSlotMutate(pb.slot)
		}()
		if pb.prev != Fresh {
			c.freeDataBlock(pb.prev)
		}
	}
	c.mem.SFence()
	if c.obs != nil {
		ts = c.obs.phase(c.obs.roleSw, sealID, spanSwitch, ts, g)
	}

	// Phase E — the commit point: one Tail persist per participating
	// ring, in index order, seals every transaction in the batch at once.
	// The commit event (flight record + SealHook) fires only after the
	// LAST flip: the flight record durable then implies every flip durable
	// — the invariant the crash oracle checks against the recovered Tails
	// — and a crash between flips leaves the seal unacknowledged, which
	// recovery rolls forward (see the file comment).
	for _, r := range ringIDs {
		rs := &c.rings[r]
		rs.tail = rs.head
		c.mem.Persist8(c.lay.ringTailSlotOff(r, rs.tail), rs.tail)
	}
	c.flEmit(flight.EvSealPersist, uint16(last), gen, c.rings[last].head, uint64(len(plan)))
	if c.opts.SealHook != nil {
		c.opts.SealHook(gen)
	}
	if c.obs != nil {
		c.obs.phase(c.obs.tail, sealID, spanTail, ts, g)
	}

	// Volatile epilogue: release the scratch block, unpin, touch LRU (rule
	// 2b: committed blocks are most recently used), book the counters.
	if scratch != Fresh {
		c.alloc.pushBlock(scratch)
	}
	for _, pb := range plan {
		sh := c.shardOf(pb.no)
		sh.mu.Lock()
		delete(sh.pinned, pb.slot)
		c.touchLocked(sh, pb.slot)
		sh.mu.Unlock()
	}
	for _, pb := range plan {
		if pb.hit {
			c.rec.Inc(metrics.CacheWriteHit)
			c.rec.Inc(metrics.TxnCOWBlocks)
		} else {
			c.rec.Inc(metrics.CacheWriteMiss)
		}
	}
	for _, q := range batch {
		q.err = nil
		c.rec.Inc(metrics.TxnCommit)
		c.rec.Add(metrics.TxnBlocks, int64(len(q.t.order)))
	}
	c.rec.Inc(metrics.TxnGroupSeals)
	c.rec.Add(metrics.TxnGroupSize, int64(len(batch)))
	c.rec.Add(metrics.TxnAbsorbed, int64(absorbed))
	for _, r := range ringIDs {
		c.rings[r].seals.Add(1)
	}
	c.flEmit(flight.EvSealComplete, uint16(last), gen, c.rings[last].head, uint64(len(batch)))
	if c.obs != nil {
		c.obs.phase(c.obs.seal, sealID, spanSeal, tSeal, g)
	}
	return nil
}

// unwindPlan releases everything phase 0 allocated or pinned, the
// ablation scratch block included (Fresh when none). Nothing has been
// persisted, so this is pure DRAM bookkeeping. The caller holds the seal
// lock of every planned block's ring; the body itself only takes shard
// locks and the (thread-safe) allocator.
func (c *Cache) unwindPlan(plan []*planBlock, scratch uint32) {
	for _, pb := range plan {
		if pb.hit {
			sh := c.shardOf(pb.no)
			sh.mu.Lock()
			delete(sh.pinned, pb.slot)
			sh.mu.Unlock()
		}
		if pb.allocated {
			// Slot before block: once the block is poppable, a concurrent
			// allocPair may demand a slot on the spot (popSlot's invariant).
			if !pb.hit {
				c.alloc.pushSlot(pb.slot)
			}
			c.alloc.pushBlock(pb.nb)
		}
	}
	if scratch != Fresh {
		c.alloc.pushBlock(scratch)
	}
}

// ablationCopy is phase A's cost hook for the configured ablation: the
// extra NVM bytes the ablated design writes on the critical path for plan
// block pb, stored and flushed into the seal's scratch block (the phase's
// one fence covers them).
func (c *Cache) ablationCopy(pb *planBlock, scratch uint32) {
	off := c.lay.blockOff(scratch)
	switch c.opts.Ablation {
	case AblationDoubleWrite:
		// The redundant log copy a journal keeps of every block.
		c.mem.Store(off, pb.data)
	case AblationUBJ:
		if !pb.hit {
			return
		}
		// Commit-in-place must first copy the frozen version aside: the
		// in-NVM memcpy of Section 5.4.4. pb.prev is pinned and immutable.
		buf := bufpool.Get()
		c.mem.Load(c.lay.blockOff(pb.prev), buf)
		c.mem.Store(off, buf)
		bufpool.Put(buf)
	}
	c.mem.CLFlush(off, BlockSize)
}

// dropFilledLocked removes a clean read-fill entry that raced in between
// a commit's plan phase (which decided its block was a write miss) and
// the entry install. Only a concurrent fill can have installed it — every
// other writer of this block serializes on the block's ring seal lock,
// which the caller holds — so it is always a clean RoleBuffer entry whose
// loss loses nothing; dropping a committed version here would be a
// protocol break, hence the panic.
// Caller holds sh.mu.
func (c *Cache) dropFilledLocked(sh *shard, no uint64, i int32) {
	e := c.readEntry(i)
	if !e.valid || e.modified || e.role == RoleLog || e.prev != Fresh {
		panic("core: raced-in entry is not a clean read fill")
	}
	// Bump before the data block re-enters the free pool (same ordering
	// argument as eviction — see readfast.go).
	c.beginSlotMutate(i)
	c.clearEntry(i)
	sh.lru.remove(i)
	sh.idx.Delete(no)
	c.dirtied[i] = false
	c.alloc.pushSlot(i)
	c.freeDataBlock(e.cur)
	c.endSlotMutate(i)
}
