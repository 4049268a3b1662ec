package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tinca/internal/flight"
)

// Recovery failure codes carried in the EvRecoverFail flight record's Arg
// (the Block field holds the offending value). A failed recovery returns
// its error from Open, so these plus RecoveryStats.Failed are the only
// forensic trail a dead restart leaves.
const (
	recFailHeadBehindTail = 1 // Head pointer behind Tail
	recFailRingSpan       = 2 // Head-Tail span beyond the ring capacity
	recFailDuplicateEntry = 3 // two valid entries name the same disk block
	recFailUnmappedBlock  = 4 // ring names a disk block with no entry
	recFailNoCheckpoint   = 5 // checkpointed image with no valid frame
	recFailBadCheckpoint  = 6 // frame payload or journal record corrupt
	recFailBadEntry       = 7 // entry names a block past its medium, or an NVM block another entry names
)

// recoverFail marks the stats, books the terminal flight event and
// returns err, so every structural bail-out in recover() leaves the same
// forensic trail (satellite: a failed recovery used to be
// indistinguishable from one that crashed mid-pass).
func (c *Cache) recoverFail(code int, detail uint64, err error) error {
	c.recStats.Failed = true
	c.flEmit(flight.EvRecoverFail, 0, 0, detail, uint64(code))
	return err
}

// recoveryWorkers is the shard-parallel recovery fan-out width. It equals
// shardCount so the rebuild phase can dedicate one worker per shard.
const recoveryWorkers = shardCount

// recoveryFanout runs fn(0..recoveryWorkers-1), concurrently unless the
// serialRecovery oracle is set. Both modes execute the EXACT same work items
// with the same stripe boundaries; concurrent NVM loads charge the shared
// simulated clock additively (stock profiles have no channel
// parallelism), so the final clock — and with it every later flight
// timestamp — is identical however the goroutines interleave. That is
// what makes the parallel recovered image bit-identical to the serial
// one, and the parity sweep holds the implementation to it. Workers must
// not emit flight records or stamp phases (ordering would race); panics
// are captured and re-raised by lowest worker index after all workers
// finish.
func (c *Cache) recoveryFanout(fn func(worker int)) {
	if c.opts.serialRecovery {
		for w := 0; w < recoveryWorkers; w++ {
			fn(w)
		}
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, recoveryWorkers)
	for w := 0; w < recoveryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if pv := recover(); pv != nil {
					panics[w] = pv
				}
			}()
			fn(w)
		}(w)
	}
	wg.Wait()
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
}

// checkRecoveredEntry refuses valid entry i if no crash can leave it and
// a later pass would index past the NVM or write back past the disk, and
// counts its NVM block references into refs.
func (c *Cache) checkRecoveredEntry(i int, e entry, refs []atomic.Int32) error {
	switch capacity := uint32(c.lay.Capacity); {
	case e.disk >= c.disk.Blocks():
		return fmt.Errorf("core: recovery found entry %d for disk block %d beyond the disk", i, e.disk)
	case e.cur >= capacity:
		return fmt.Errorf("core: recovery found entry %d in NVM block %d beyond capacity", i, e.cur)
	case e.prev != Fresh && (e.role == RoleBuffer || e.prev >= capacity):
		return fmt.Errorf("core: recovery found entry %d keeping previous NVM block %d", i, e.prev)
	}
	refs[e.cur].Add(1)
	if e.prev != Fresh {
		refs[e.prev].Add(1)
	}
	return nil
}

// mirrorEntry decodes entry slot i from the DRAM mirror of the entry
// table that recovery works against (NVM is loaded once, in bulk).
func mirrorEntry(mirror []byte, i int32) entry { return decodeEntry(mirrorEncoded(mirror, i)) }

// mirrorEncoded returns entry slot i's raw 16 bytes from the DRAM mirror.
func mirrorEncoded(mirror []byte, i int32) (b [16]byte) {
	copy(b[:], mirror[int(i)*EntrySize:])
	return b
}

// mirrorSet writes entry slot i's new value into the DRAM mirror; callers
// persist the matching NVM update themselves.
func mirrorSet(mirror []byte, i int32, e entry) {
	b := encodeEntry(e)
	copy(mirror[int(i)*EntrySize:], b[:])
}

// recover implements Tinca's crash recovery (Section 4.5). On entry the
// device holds whatever the crash left in the persistence domain; on
// return the cache is consistent:
//
//   - Head == Tail (no committing transaction in flight),
//   - no entry carries the log role,
//   - every acknowledged transaction is fully visible and every
//     unacknowledged one fully revoked.
//
// The paper's algorithm compares Head with Tail. If they differ, the ring
// slots between them name the blocks of the interrupted transaction. One
// case the paper's prose glosses over is a crash *during the role-switch
// phase*: some entries are already buffer blocks (their previous version
// is gone) while others are still log blocks. Revoking only the log blocks
// would tear the transaction. The resolution follows from the protocol's
// ordering: role switches begin only after every block is written and
// recorded, so if any entry in the ring range has already switched, the
// transaction's data is complete and recovery finishes the remaining
// switches (redo); if none has switched, recovery revokes them all (undo).
// Both directions restore all-or-nothing semantics.
//
// Group commit (seal.go) needs no changes here: a coalesced seal keeps
// the same persist order, so recovery sees it as one larger interrupted
// transaction and replays it exactly as it would N sequential seals —
// either the whole batch redone or the whole batch revoked, which is
// correct because no transaction in the batch was acknowledged before the
// batch's last Tail flip.
//
// Restart-time shape (DESIGN.md §14): the entry table reaches DRAM either
// via a striped bulk load (checkpoint off — O(capacity) NVM reads) or via
// the newest checkpoint frame plus its delta journal (checkpoint on —
// O(resident + deltas) NVM reads); every later pass runs against that
// DRAM mirror, and the scan/rebuild work fans out across recoveryWorkers
// stripes. The repairs themselves (ring replay, redo/undo, stray
// revocation) stay serial: they are O(interrupted seal), not O(capacity).
func (c *Cache) recover() error {
	// Instrumentation (the §4.5 recovery breakdown): every phase boundary
	// stamps the simulated clock into RecoveryStats — reads never advance
	// it, so the breakdown is free and always on — records a histogram
	// when Observe is, and books a flight event when the recorder is on.
	clock := c.mem.Clock()
	rs := &c.recStats
	*rs = RecoveryStats{Ran: true}
	t0 := int64(clock.Now())
	var g int64
	if c.obs != nil {
		g = c.obs.gid()
		defer func() { c.obs.phase(c.obs.recovery, 0, spanRecover, t0, g) }()
	}
	c.flEmit(flight.EvRecoverBegin, 0, 0, 0, 0)

	// Each ring's pointer pair recovers independently (max over its own
	// rotation slots); RingSpan sums the pending windows.
	span := uint64(0)
	for r := range c.rings {
		rst := &c.rings[r]
		rst.head = c.loadPointer(c.lay.ringHeadOff(r))
		rst.tail = c.loadPointer(c.lay.ringTailOff(r))
		if rst.head < rst.tail {
			return c.recoverFail(recFailHeadBehindTail, rst.tail,
				fmt.Errorf("core: recovery found ring %d Head %d behind Tail %d", r, rst.head, rst.tail))
		}
		if rst.head-rst.tail > uint64(c.lay.RingSlots) {
			return c.recoverFail(recFailRingSpan, rst.head-rst.tail,
				fmt.Errorf("core: recovery found ring %d span %d beyond capacity %d", r, rst.head-rst.tail, c.lay.RingSlots))
		}
		span += rst.head - rst.tail
	}
	rs.RingSpan = int64(span)

	// Bring the entry table into DRAM: bulk-striped from NVM, or from the
	// newest checkpoint frame plus the delta journal.
	mirror := make([]byte, c.lay.Capacity*EntrySize)
	if c.ckpt != nil {
		if err := c.loadMirrorCheckpoint(mirror, rs, int64(clock.Now())); err != nil {
			return err
		}
	} else {
		c.recoveryFanout(func(w int) {
			lo := c.lay.Capacity * w / recoveryWorkers
			hi := c.lay.Capacity * (w + 1) / recoveryWorkers
			if lo < hi {
				c.mem.Load(c.lay.EntryOff+lo*EntrySize, mirror[lo*EntrySize:hi*EntrySize])
			}
		})
	}

	// Index the mirrored entry table: one worker per shard builds that
	// shard's byDisk map (each worker filters the full mirror, so maps
	// never share writers). Duplicate detection reports the smallest
	// shard's error for determinism. The same pass refuses the entries
	// checkRecoveredEntry names, and then any NVM block named twice.
	var byDisk [shardCount]map[uint64]int32
	var dupErr, badErr [shardCount]error
	refs := make([]atomic.Int32, c.lay.Capacity)
	c.recoveryFanout(func(w int) {
		m := make(map[uint64]int32)
		for i := 0; i < c.lay.Capacity; i++ {
			e := mirrorEntry(mirror, int32(i))
			if !e.valid || shardIdx(e.disk) != w {
				continue
			}
			if badErr[w] == nil {
				badErr[w] = c.checkRecoveredEntry(i, e, refs)
			}
			if prev, dup := m[e.disk]; dup {
				if dupErr[w] == nil {
					dupErr[w] = fmt.Errorf("core: recovery found duplicate entries %d and %d for disk block %d", prev, i, e.disk)
				}
				continue
			}
			m[e.disk] = int32(i)
		}
		byDisk[w] = m
	})
	for w := 0; w < shardCount; w++ {
		if badErr[w] != nil {
			return c.recoverFail(recFailBadEntry, 0, badErr[w])
		}
		if dupErr[w] != nil {
			return c.recoverFail(recFailDuplicateEntry, 0, dupErr[w])
		}
		rs.EntriesScanned += int64(len(byDisk[w]))
	}
	for b := range refs {
		if n := refs[b].Load(); n > 1 {
			return c.recoverFail(recFailBadEntry, uint64(b),
				fmt.Errorf("core: recovery found NVM block %d named by %d entries", b, n))
		}
	}
	tScan := int64(clock.Now())
	rs.ScanNS = tScan - t0
	if c.obs != nil {
		c.obs.phase(c.obs.recScan, 0, spanRecoverScan, t0, g)
	}
	c.flEmit(flight.EvRecoverScan, 0, 0, 0, uint64(rs.EntriesScanned))

	if err := c.recoverMultiRing(mirror, &byDisk, rs); err != nil {
		return err
	}
	tBranch := int64(clock.Now())
	// Satellite fix: the redo span and flight record are emitted only when
	// the redo branch actually ran — a zero-length span stamped here for
	// every undo-or-clean restart polluted Chrome traces and the blackbox
	// timeline.
	if rs.Redo {
		rs.RedoNS = tBranch - tScan
		if c.obs != nil {
			c.obs.phase(c.obs.recRedo, 0, spanRecoverRedo, tScan, g)
		}
		c.flEmit(flight.EvRecoverRedo, 0, 0, 0, uint64(rs.EntriesRedone))
	}

	// Sweep for stray log entries: a crash after persisting block entries
	// but before their ring records leaves log-role entries that no ring
	// slot names — up to a whole batch, because a seal defers its Head
	// persist until every entry of the batch is durable. Each is revoked
	// independently; none was part of an acknowledged transaction. (In the
	// redo case the write phase had finished, so no stray can exist and the
	// sweep is a no-op.) The sweep walks the DRAM mirror, so it costs no NVM
	// reads. It also persists zeros over every slot a torn install or evict
	// left half-written: not live, but not the zero free slot a later
	// install must start from (entry.go).
	for i := 0; i < c.lay.Capacity; i++ {
		raw := mirrorEncoded(mirror, int32(i))
		e := decodeEntry(raw)
		switch {
		case e.valid && e.role == RoleLog:
			c.recoverRevoke(mirror, int32(i), e, &byDisk)
			rs.StrayRevoked++
		case !e.valid && raw != [16]byte{}:
			c.clearEntry(int32(i))
			mirrorSet(mirror, int32(i), entry{})
		}
	}
	tUndo := int64(clock.Now())
	rs.UndoNS = tUndo - tBranch
	if !rs.Redo {
		rs.UndoNS += tBranch - tScan
	}
	if c.obs != nil {
		c.obs.phase(c.obs.recUndo, 0, spanRecoverUndo, tUndo-rs.UndoNS, g)
	}
	c.flEmit(flight.EvRecoverUndo, 0, 0, 0, uint64(rs.EntriesUndone+rs.StrayRevoked))

	rs.Resident = int64(c.rebuildVolatileFromMirror(mirror))
	tReb := int64(clock.Now())
	rs.RebuildNS = tReb - tUndo
	rs.TotalNS = tReb - t0
	if c.obs != nil {
		c.obs.phase(c.obs.recRebuild, 0, spanRecoverRebuild, tUndo, g)
	}
	c.flEmit(flight.EvRecoverRebuild, 0, 0, 0, uint64(rs.Resident))
	c.flEmit(flight.EvRecoverDone, 0, 0, 0, 0)
	return nil
}

// recoverMultiRing replays the per-ring pending windows — the k-way
// generation merge of DESIGN.md §8. On the single-ring layout readRecord
// reports generation 0 for every record, so the one pending window is one
// seal and the merge degenerates to the paper's Head-vs-Tail rule.
//
// Structure of the pending state: a ring's Head advances only in seal
// phase C and its Tail only in phase E, both under the ring's seal lock,
// so the pending window [Tail, Head) of any single ring covers AT MOST
// ONE interrupted seal. A cross-ring seal stamps the same generation in
// every participating ring, so pending records group by generation into
// the interrupted seals, and because a block's ring is a pure function of
// its number, two different pending generations always name disjoint
// blocks — their redos and undos commute. Processing generations in
// ascending order is therefore not needed for correctness, but it IS the
// global commit order (generations are drawn under all participating
// ring locks), which makes the replay deterministic and equal to the
// serial history the oracle checks.
//
// Per generation the single-ring redo/undo rule applies unchanged: any
// named entry already in the buffer role means every block's data and
// record are durable (role switches start only after all rings' records
// and Head persists are fenced), so recovery completes the remaining
// switches and Tail flips — this is also how a seal torn BETWEEN two
// rings' Tail flips resolves: roll forward, never revoke, because the
// switch phase freed the previous versions and the commit event is only
// emitted after the last flip, so the transaction was never acknowledged
// and either outcome is legal. If no entry switched, the whole
// transaction is revoked: the participating Tails are persisted over the
// pending records FIRST, then each entry rolls back: Tail only moves
// forward, so the wear-leveled pointer slots make it durable, and if
// recovery itself crashes mid-revocation the next pass sees Head == Tail
// and the stray-log sweep finishes the undo. Revoking first would be
// misread by that re-run: a half-revoked range contains buffer-role
// entries, indistinguishable from a half-switched commit, and the
// remaining log entries would be wrongly redone — resurrecting half of a
// transaction that was being revoked. Records that never
// made it into any pending window (a crash before that ring's Head
// persist) leave stray log-role entries for the sweep that follows.
func (c *Cache) recoverMultiRing(mirror []byte, byDisk *[shardCount]map[uint64]int32, rs *RecoveryStats) error {
	type pendingSeal struct {
		gen   uint64
		slots []int32
		rings []int // participating rings, ascending by construction
	}
	var seals []*pendingSeal // at most one pending generation per ring
	maxGen := uint64(0)
	for r := range c.rings {
		rst := &c.rings[r]
		for p := rst.tail; p < rst.head; p++ {
			no, gen := c.lay.readRecord(c.mem, r, p)
			i, ok := byDisk[shardIdx(no)][no]
			if !ok {
				// Entries persist (phase B, fenced) before ring records
				// (phase C), so a recorded block always has an entry.
				return c.recoverFail(recFailUnmappedBlock, no,
					fmt.Errorf("core: ring %d names disk block %d with no cache entry", r, no))
			}
			var ps *pendingSeal
			for _, s := range seals {
				if s.gen == gen {
					ps = s
					break
				}
			}
			if ps == nil {
				ps = &pendingSeal{gen: gen}
				seals = append(seals, ps)
			}
			ps.slots = append(ps.slots, i)
			if n := len(ps.rings); n == 0 || ps.rings[n-1] != r {
				ps.rings = append(ps.rings, r)
			}
			if gen > maxGen {
				maxGen = gen
			}
		}
	}
	sort.Slice(seals, func(a, b int) bool { return seals[a].gen < seals[b].gen })

	for _, ps := range seals {
		redo := false
		for _, i := range ps.slots {
			if mirrorEntry(mirror, i).role == RoleBuffer {
				redo = true
				break
			}
		}
		if redo {
			rs.Redo = true
			for _, i := range ps.slots {
				if e := mirrorEntry(mirror, i); e.role == RoleLog {
					c.recoverSwitch(mirror, i, e)
					rs.EntriesRedone++
				}
			}
			for _, r := range ps.rings {
				rst := &c.rings[r]
				rst.tail = rst.head
				c.mem.Persist8(c.lay.ringTailSlotOff(r, rst.tail), rst.tail)
			}
		} else {
			// Undo: every participating Tail first, then the revocations.
			for _, r := range ps.rings {
				rst := &c.rings[r]
				rst.tail = rst.head
				c.mem.Persist8(c.lay.ringTailSlotOff(r, rst.tail), rst.tail)
			}
			for _, i := range ps.slots {
				if e := mirrorEntry(mirror, i); e.role == RoleLog {
					c.recoverRevoke(mirror, i, e, byDisk)
					rs.EntriesUndone++
				}
			}
		}
	}

	// Resume the generation counter past everything the crash left behind.
	// A checkpointed restart restored the counter from the frame header
	// (every generation sealed before the checkpoint is ≤ that value);
	// pending generations postdate it and are folded in here. Without a
	// checkpoint the counter restarts above the pending window only — safe
	// because recovery and the oracles only ever compare generations within
	// one crash epoch.
	if maxGen > c.gen.Load() {
		c.gen.Store(maxGen)
	}
	return nil
}

// loadMirrorCheckpoint reconstructs the entry table image from the newest
// valid checkpoint frame plus the delta journal (DESIGN.md §14): frame
// records give every entry as of the checkpoint, journaled slots are
// re-read from the live table. NVM reads are O(resident + deltas) instead
// of O(capacity). It also restores the checkpoint writer's DRAM state —
// before any repair runs, so the journal hook no-ops on repaired slots
// (every repairable, i.e. log-role, entry postdates the frame and is
// already journaled).
//
// Correctness under re-crash: the function only reads NVM. Repairs and
// later checkpoints journal/write through the ordinary hooks, so a crash
// at any point during or after recovery leaves a journal+frame pair this
// same function replays correctly.
func (c *Cache) loadMirrorCheckpoint(mirror []byte, rs *RecoveryStats, now int64) error {
	lay := c.lay
	k := c.ckpt

	// Pick the newest valid frame: magic, header checksum, max epoch.
	best := -1
	var bestH [ckptFrameHdr]byte
	var bestEpoch uint64
	for f := 0; f < 2; f++ {
		var h [ckptFrameHdr]byte
		c.mem.Load(lay.ckptFrameOff(f), h[:])
		if binary.LittleEndian.Uint64(h[0:]) != ckptMagic {
			continue
		}
		if binary.LittleEndian.Uint64(h[56:]) != ckptSum(h[:56]) {
			continue
		}
		if ep := binary.LittleEndian.Uint64(h[8:]); best < 0 || ep > bestEpoch {
			best, bestH, bestEpoch = f, h, ep
		}
	}
	if best < 0 {
		// Unreachable within the crash model — format persists an epoch-1
		// frame and the writer never touches the active frame — but a
		// corrupted device must fail loudly, not recover garbage.
		return c.recoverFail(recFailNoCheckpoint, 0,
			fmt.Errorf("core: checkpointed image has no valid checkpoint frame"))
	}
	count := int(binary.LittleEndian.Uint64(bestH[40:]))
	if count > lay.Capacity {
		return c.recoverFail(recFailBadCheckpoint, uint64(count),
			fmt.Errorf("core: checkpoint frame %d claims %d entries beyond capacity %d", best, count, lay.Capacity))
	}

	// Striped bulk load of the frame payload, checksum-verified in DRAM.
	// On the multi-ring layout the payload opens with the per-ring
	// {head, tail} vector (diagnostic — the pointers themselves recover
	// from their rotation slots; zero bytes on the single-ring layout); it
	// is loaded serially, then the records stripe.
	vecBytes := lay.ckptVecBytes()
	payload := make([]byte, vecBytes+count*ckptRecSize)
	base := lay.ckptFrameOff(best) + ckptFrameHdr
	if vecBytes > 0 {
		c.mem.Load(base, payload[:vecBytes])
	}
	c.recoveryFanout(func(w int) {
		lo := count * w / recoveryWorkers
		hi := count * (w + 1) / recoveryWorkers
		if lo < hi {
			c.mem.Load(base+vecBytes+lo*ckptRecSize, payload[vecBytes+lo*ckptRecSize:vecBytes+hi*ckptRecSize])
		}
	})
	if ckptSum(payload) != binary.LittleEndian.Uint64(bestH[48:]) {
		return c.recoverFail(recFailBadCheckpoint, bestEpoch,
			fmt.Errorf("core: checkpoint frame %d payload checksum mismatch", best))
	}
	for r := 0; r < count; r++ {
		rec := payload[vecBytes+r*ckptRecSize : vecBytes+(r+1)*ckptRecSize]
		slot := int(binary.LittleEndian.Uint32(rec))
		if slot >= lay.Capacity {
			return c.recoverFail(recFailBadCheckpoint, uint64(slot),
				fmt.Errorf("core: checkpoint record names slot %d beyond capacity %d", slot, lay.Capacity))
		}
		copy(mirror[slot*EntrySize:(slot+1)*EntrySize], rec[8:8+EntrySize])
	}

	// Scan the delta journal: records tagged with the active epoch name
	// the slots mutated since the frame. The scan stops at the first
	// epoch mismatch (a stale or zeroed slot). A record whose entry write
	// never landed is spurious but harmless — the re-read below fetches
	// whatever the table currently holds.
	deltas := make([]int32, 0, 64)
	for j := 0; j < lay.CkptJournalSlots; j++ {
		rec := c.mem.Load8(lay.ckptJournalOff(j))
		if uint32(rec>>32) != uint32(bestEpoch) {
			break
		}
		slot := uint32(rec)
		if int(slot) >= lay.Capacity {
			return c.recoverFail(recFailBadCheckpoint, uint64(slot),
				fmt.Errorf("core: checkpoint journal names slot %d beyond capacity %d", slot, lay.Capacity))
		}
		deltas = append(deltas, int32(slot))
	}

	// Re-read the journaled slots' live entries over the frame image, in
	// parallel chunks.
	c.recoveryFanout(func(w int) {
		lo := len(deltas) * w / recoveryWorkers
		hi := len(deltas) * (w + 1) / recoveryWorkers
		for x := lo; x < hi; x++ {
			i := int(deltas[x])
			v := c.mem.Load16(lay.entryOff(i))
			copy(mirror[i*EntrySize:], v[:])
		}
	})

	// Restore the writer's DRAM state so the next epoch continues where
	// the crash left off: same active epoch, same journal append
	// position, inactive frame opposite the one just loaded.
	k.epoch = bestEpoch
	k.frame = best ^ 1
	k.lastNS = now
	k.marks = k.marks[:0]
	for _, s := range deltas {
		if !k.journaled[s] {
			k.journaled[s] = true
			k.marks = append(k.marks, s)
		}
	}
	// The generation counter resumes from the checkpoint so SealHook
	// sequences stay monotonic across a checkpointed restart.
	c.gen.Store(binary.LittleEndian.Uint64(bestH[32:]))

	rs.FromCheckpoint = true
	rs.CkptEpoch = bestEpoch
	rs.DeltaSlots = int64(len(deltas))
	return nil
}

// recoverSwitch completes a role switch during redo recovery. DRAM
// structures are rebuilt afterwards, so only the persistent entry and the
// recovery mirror are touched here.
func (c *Cache) recoverSwitch(mirror []byte, i int32, e entry) {
	e.role = RoleBuffer
	e.prev = Fresh
	c.writeEntry(i, e)
	mirrorSet(mirror, i, e)
}

// recoverRevoke undoes one block of an uncommitted transaction: roll the
// entry back to the previous NVM block, or delete it entirely when the
// block was fresh (Section 4.5). The modified bit is set conservatively:
// the previous version may have been dirtier than disk, and an extra
// write-back is always safe.
func (c *Cache) recoverRevoke(mirror []byte, i int32, e entry, byDisk *[shardCount]map[uint64]int32) {
	if e.prev == Fresh {
		c.clearEntry(i)
		mirrorSet(mirror, i, entry{})
		delete(byDisk[shardIdx(e.disk)], e.disk)
		return
	}
	ne := entry{valid: true, role: RoleBuffer, modified: true, disk: e.disk, prev: Fresh, cur: e.prev}
	c.writeEntry(i, ne)
	mirrorSet(mirror, i, ne)
}

// rebuildVolatileFromMirror reconstructs the DRAM hash shards, LRU lists,
// free block monitor and free slot list from the recovered entry-table
// mirror, returning how many entries are resident. The per-shard work
// (index inserts, LRU pushes, access-tick stamps) fans out one worker per
// shard; access ticks are precomputed so the result is bit-identical to
// the historical single-threaded ascending-slot rebuild. LRU order after
// a crash is arbitrary, which only affects future replacement choices,
// never correctness. The rebuild touches no NVM, so it cannot perturb the
// recovered image.
func (c *Cache) rebuildVolatileFromMirror(mirror []byte) int {
	for s := range c.shards {
		sh := &c.shards[s]
		// The reset is single-threaded and race-free (the bucket index
		// swaps in a fresh table).
		sh.idx.Reset()
		sh.lru = newLRU(c.lay.Capacity)
	}
	c.alloc.reset()

	// Precompute, in one ascending pass, each valid slot's access tick
	// (the k-th valid slot gets tick k — exactly the serial insert order)
	// and the set of used data blocks.
	used := make([]bool, c.lay.Capacity)
	rank := make([]int64, c.lay.Capacity)
	resident := 0
	for i := 0; i < c.lay.Capacity; i++ {
		e := mirrorEntry(mirror, int32(i))
		if !e.valid {
			continue
		}
		resident++
		rank[i] = int64(resident)
		used[e.cur] = true
	}

	// One worker per shard: every slot lands in exactly one worker's
	// shard (by disk-block affinity), so index, LRU, atime and dirtied
	// writes never overlap.
	c.recoveryFanout(func(w int) {
		sh := &c.shards[w]
		for i := 0; i < c.lay.Capacity; i++ {
			e := mirrorEntry(mirror, int32(i))
			if !e.valid || shardIdx(e.disk) != w {
				continue
			}
			sh.idx.Put(e.disk, int32(i))
			sh.lru.pushFront(int32(i))
			c.atime[i].Store(rank[i])
			// Dirty entries may be written back later; their eviction must
			// then invalidate optimistic fills in flight (see shard.evictGen).
			c.dirtied[i] = e.modified
		}
	})
	c.tick.Store(int64(resident))

	for i := 0; i < c.lay.Capacity; i++ {
		if !mirrorEntry(mirror, int32(i)).valid {
			c.dirtied[i] = false
			c.alloc.pushSlot(int32(i))
		}
	}
	for b := c.lay.Capacity - 1; b >= 0; b-- {
		if !used[b] {
			c.alloc.pushBlock(uint32(b))
		}
	}
	return resident
}
