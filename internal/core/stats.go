package core

import "tinca/internal/metrics"

// CacheStats is a typed snapshot of the cache-level counters: the
// Recorder's cache, transaction and device slots plus state the cache
// keeps itself (index grows, open views, per-ring counts).
type CacheStats struct {
	// Hit/miss accounting (write side counts distinct blocks per seal).
	ReadHits    int64
	ReadMisses  int64
	WriteHits   int64
	WriteMisses int64

	// Lock-free read-hit fast path. ReadHitFast + ReadHitSlow == ReadHits;
	// SeqlockRetries counts version-change retries, TouchRingDrops the LRU
	// promotions dropped on a full ring, TouchBatchDrained the queued
	// promotions applied to the exact list.
	ReadHitFast       int64
	ReadHitSlow       int64
	SeqlockRetries    int64
	TouchRingDrops    int64
	TouchBatchDrained int64

	// Zero-copy read views (view.go). ZeroCopyViews alias pinned NVM
	// bytes; CopiedViews fell back to a private copy (a block freshly
	// written by a seal still in flight, which has no sealed NVM
	// version). ViewDeferredFrees counts block frees handed off to a
	// view's last unpin; OpenViews is the live gauge of unclosed views.
	ZeroCopyViews     int64
	CopiedViews       int64
	ViewDeferredFrees int64
	OpenViews         int64

	// IndexGrows counts incremental resizes of the sharded bucket index
	// since Open.
	IndexGrows int64

	// Eviction and residency.
	Evictions      int64
	DirtyEvictions int64
	// FillRaces counts optimistic miss fills that lost the install race
	// or retried.
	FillRaces int64

	// Transactions.
	Commits   int64
	Aborts    int64
	Blocks    int64 // data blocks committed
	COWBlocks int64 // blocks that needed a COW copy

	// Group commit.
	GroupSeals     int64 // coalesced ring-buffer seals
	GroupedTxns    int64 // transactions absorbed into those seals
	AbsorbedBlocks int64 // duplicate blocks absorbed within seals

	// Per-ring commit counters; both slices have one element per commit
	// ring (length max(CommitRings, 1), so never empty). RingSeals[r]
	// counts seals ring r participated in since Open (a cross-shard seal
	// counts once per participating ring); RingQueueDepth[r] is the live
	// per-ring commit-queue gauge. CrossShardTxns and RingSealConflicts
	// (ring locks a cross-shard committer found contended) stay zero on
	// one ring.
	RingSeals         []int64
	RingQueueDepth    []int64
	CrossShardTxns    int64
	RingSealConflicts int64

	// Checkpoint writer (0 when Options.CheckpointIntervalNS is zero).
	Checkpoints           int64 // frames persisted
	CheckpointEntries     int64 // valid entries snapshotted, cumulative
	CheckpointJournalRecs int64 // delta-journal records persisted

	// NVM traffic.
	NVMBytesWritten  int64
	NVMBytesRead     int64
	CacheLineFlushes int64
	StoreFences      int64

	// Disk traffic.
	DiskBlocksWritten int64
	DiskBlocksRead    int64

	// Commit latency (populated only when Options.Observe is on).
	// CommitLatency digests per-transaction Commit latency (enqueue to
	// acknowledgement, simulated ns); CommitPhases breaks the seal down
	// into the pipeline's phases plus recovery, in
	// pipeline order. Empty when observability is off.
	CommitLatency metrics.LatencySummary
	CommitPhases  []PhaseLatency
}

// RecoveryStats is the typed per-phase breakdown of one §4.5 recovery
// pass (the baseline measurement ROADMAP item 2 needs before parallel or
// incremental recovery can be claimed). Durations are simulated
// nanoseconds; counters are entries. It is populated by every recovery
// regardless of Options.Observe — the bookkeeping reads the clock but
// never advances it — while the matching histograms
// (metrics.HistRecoveryScan/Redo/Undo/Rebuild) exist only under Observe.
type RecoveryStats struct {
	// Ran distinguishes a real recovery from a fresh format.
	Ran bool
	// Redo reports which direction the interrupted seal was resolved:
	// true = completed (some role switch was durable), false = revoked.
	// Meaningful only when RingSpan > 0.
	Redo bool
	// RingSpan is Head - Tail at recovery entry: the interrupted seal's
	// block count (0 = clean shutdown or crash between seals).
	RingSpan int64

	// Phase durations, in pipeline order. TotalNS covers the whole pass.
	ScanNS    int64 // pointer loads + entry-table scan/index
	RedoNS    int64 // completing the interrupted seal's role switches
	UndoNS    int64 // revoking the interrupted seal + stray-log sweep
	RebuildNS int64 // rebuilding the DRAM index/LRU/allocator
	TotalNS   int64

	// Work counters.
	EntriesScanned int64 // valid entries found in the table scan
	EntriesRedone  int64 // log entries whose role switch was completed
	EntriesUndone  int64 // ring-named log entries rolled back/deleted
	StrayRevoked   int64 // stray log entries revoked by the sweep
	Resident       int64 // entries resident after rebuild

	// Failed marks a recovery that gave up with a structural error
	// (Head behind Tail, ring span beyond capacity, duplicate or
	// out-of-range entry, ring naming an unmapped block, unreadable
	// checkpoint). Open returned that error as a *RecoveryError carrying
	// these partial stats; they plus the terminal EvRecoverFail flight
	// record are the forensic trail.
	Failed bool

	// Checkpoint fast path (checkpointed images only).
	FromCheckpoint bool   // recovery loaded a frame instead of scanning
	CkptEpoch      uint64 // epoch of the frame recovery loaded
	DeltaSlots     int64  // journaled slots replayed on top of the frame
}

// RecoveryError is the error Open returns when crash recovery refuses an
// image. Stats is the partial breakdown of the refused pass (Stats.Failed
// is set for a structural error); the cause is Err, which Unwrap exposes
// so errors.Is matches it as before.
type RecoveryError struct {
	Stats RecoveryStats
	Err   error
}

func (e *RecoveryError) Error() string { return e.Err.Error() }

func (e *RecoveryError) Unwrap() error { return e.Err }

// AvgGroupSize reports the mean transactions per seal (0 when no seal has
// happened).
func (s CacheStats) AvgGroupSize() float64 {
	if s.GroupSeals == 0 {
		return 0
	}
	return float64(s.GroupedTxns) / float64(s.GroupSeals)
}

// Stats returns a typed snapshot of the cache counters. Safe for
// concurrent use; the snapshot is not atomic across counters (counters
// advance independently, as with metrics.Snapshot).
func (c *Cache) Stats() CacheStats {
	r := c.rec
	st := CacheStats{
		ReadHits:              r.Get(metrics.CacheReadHit),
		ReadMisses:            r.Get(metrics.CacheReadMiss),
		ReadHitFast:           r.Get(metrics.CacheReadHitFast),
		ReadHitSlow:           r.Get(metrics.CacheReadHitSlow),
		SeqlockRetries:        r.Get(metrics.CacheSeqlockRetry),
		TouchRingDrops:        r.Get(metrics.CacheTouchDrop),
		TouchBatchDrained:     r.Get(metrics.CacheTouchDrained),
		WriteHits:             r.Get(metrics.CacheWriteHit),
		WriteMisses:           r.Get(metrics.CacheWriteMiss),
		Evictions:             r.Get(metrics.CacheEvict),
		DirtyEvictions:        r.Get(metrics.CacheEvictDirty),
		FillRaces:             r.Get(metrics.CacheFillRace),
		Commits:               r.Get(metrics.TxnCommit),
		Aborts:                r.Get(metrics.TxnAbort),
		Blocks:                r.Get(metrics.TxnBlocks),
		COWBlocks:             r.Get(metrics.TxnCOWBlocks),
		GroupSeals:            r.Get(metrics.TxnGroupSeals),
		GroupedTxns:           r.Get(metrics.TxnGroupSize),
		AbsorbedBlocks:        r.Get(metrics.TxnAbsorbed),
		Checkpoints:           r.Get(metrics.CkptWrites),
		CheckpointEntries:     r.Get(metrics.CkptEntries),
		CheckpointJournalRecs: r.Get(metrics.CkptJournalRecs),
		NVMBytesWritten:       r.Get(metrics.NVMBytesWrite),
		NVMBytesRead:          r.Get(metrics.NVMBytesRead),
		CacheLineFlushes:      r.Get(metrics.NVMCLFlush),
		StoreFences:           r.Get(metrics.NVMSFence),
		DiskBlocksWritten:     r.Get(metrics.DiskBlocksWrite),
		DiskBlocksRead:        r.Get(metrics.DiskBlocksRead),
		ZeroCopyViews:         r.Get(metrics.CacheViewZeroCopy),
		CopiedViews:           r.Get(metrics.CacheViewCopied),
		ViewDeferredFrees:     r.Get(metrics.CacheViewDeferFree),
		OpenViews:             c.viewsOpen.Load(),
		CrossShardTxns:        r.Get(metrics.TxnCrossShard),
		RingSealConflicts:     r.Get(metrics.TxnRingSealConflicts),
	}
	for s := range c.shards {
		st.IndexGrows += c.shards[s].idx.Grows()
	}
	st.RingSeals = make([]int64, len(c.rings))
	st.RingQueueDepth = make([]int64, len(c.rings))
	for i := range c.rings {
		st.RingSeals[i] = c.rings[i].seals.Load()
		st.RingQueueDepth[i] = c.rings[i].depth.Load()
	}
	if c.obs != nil {
		st.CommitLatency = c.obs.total.Snapshot().Summary()
		st.CommitPhases = c.obs.phaseLatencies()
	}
	return st
}
