// Package metrics implements the observability registry used by every
// layer of the storage stack. The evaluation in the paper compares
// systems on normalized counter values (clflush per operation, disk
// blocks written per transaction, ...), so counters are first-class here:
// fixed atomic slots named by typed IDs, snapshot/delta arithmetic, and
// stable names shared by the experiment harness. On top of counters the
// package provides lock-free log-bucketed latency histograms (Histogram),
// a fixed-ring structured span tracer with a Chrome trace_event exporter
// (Tracer), and a Prometheus text exposition of everything a Recorder
// holds (WritePrometheus / Handler) for live scraping.
package metrics

import (
	"sort"
	"sync/atomic"
)

// Counter names one counter slot of a Recorder. The set is closed: every
// counter is a constant below with one entry in counterNames, so a
// misspelt counter is a compile error rather than a series that reads 0.
type Counter uint8

// Canonical counters. Components must use these constants so the
// experiment drivers can compute the paper's normalized quantities.
const (
	// NVM-level counters (charged by internal/pmem).
	NVMCLFlush    Counter = iota // cache lines flushed
	NVMSFence                    // store fences executed
	NVMBytesWrite                // bytes stored (volatile stores)
	NVMBytesRead                 // bytes loaded
	NVMAtomic8                   // 8-byte atomic stores
	NVMAtomic16                  // always 0; read by benchmark/run.go

	// Disk-level counters (charged by internal/blockdev). DiskQueueDepth is
	// a ±gauge: +1 when a request enters a device, -1 when it leaves, so a
	// Prometheus scrape sees how deep the in-flight window currently is.
	DiskBlocksWrite
	DiskBlocksRead
	DiskBytesWrite
	DiskBytesRead
	DiskQueueDepth

	// Cache-manager counters (charged by internal/core and internal/classic).
	CacheWriteHit
	CacheWriteMiss
	CacheReadHit
	CacheReadMiss
	CacheEvict
	CacheEvictDirty
	CacheFillRace  // miss fills that lost the install race or retried (internal/core)
	CacheMetaWrite // block-format metadata writes (Classic)
	// Lock-free read-hit fast path (internal/core/readfast.go).
	CacheReadHitFast  // hits served with zero locks
	CacheReadHitSlow  // hits that fell back to the locked path
	CacheSeqlockRetry // fast-path version-change retries
	CacheTouchDrop    // LRU promotions dropped (ring full)
	CacheTouchDrained // queued promotions applied to the exact list
	// Zero-copy read views (internal/core/view.go).
	CacheViewZeroCopy  // views served by aliasing pinned NVM bytes
	CacheViewCopied    // views served as private copies (mid-seal fresh blocks)
	CacheViewDeferFree // block frees deferred to a view's last unpin
	// Journal-area traffic through the Classic cache, counted separately
	// so data-block hit rates are comparable across systems.
	CacheJournalWriteHit
	CacheJournalWriteMiss

	// Transaction counters.
	TxnCommit
	TxnAbort
	TxnBlocks     // data blocks committed
	TxnCOWBlocks  // blocks that needed a COW copy
	TxnGroupSeals // coalesced ring-buffer seals
	TxnGroupSize  // transactions absorbed into seals (sum)
	TxnAbsorbed   // duplicate blocks absorbed within a seal
	// Multi-ring commit counters (internal/core/seal.go). Per-ring seal
	// counts and queue depths live in the cache's ring state and are read
	// through Cache.Stats.
	TxnCrossShard        // commits spanning more than one ring
	TxnRingSealConflicts // ring locks a cross-ring seal found contended
	JournalCommit        // journal transactions committed
	JournalBlocks        // log (data) blocks written to journal
	JournalMeta          // descriptor/commit/revoke blocks
	JournalCkptBlks      // blocks checkpointed to home location

	// Checkpoint counters (charged by internal/core's checkpoint writer).
	CkptWrites      // checkpoint frames persisted
	CkptEntries     // valid entries snapshotted, cumulative
	CkptJournalRecs // delta-journal records persisted

	// Network counters (charged by internal/cluster).
	NetBytes
	NetMessages

	numCounters
)

// counterNames is the one names table: the dotted registry name of each
// counter, which WritePrometheus maps to "tinca_<name>".
var counterNames = [numCounters]string{
	NVMCLFlush:            "nvm.clflush",
	NVMSFence:             "nvm.sfence",
	NVMBytesWrite:         "nvm.bytes_write",
	NVMBytesRead:          "nvm.bytes_read",
	NVMAtomic8:            "nvm.atomic8",
	NVMAtomic16:           "nvm.atomic16",
	DiskBlocksWrite:       "disk.blocks_write",
	DiskBlocksRead:        "disk.blocks_read",
	DiskBytesWrite:        "disk.bytes_write",
	DiskBytesRead:         "disk.bytes_read",
	DiskQueueDepth:        "disk.queue_depth",
	CacheWriteHit:         "cache.write_hit",
	CacheWriteMiss:        "cache.write_miss",
	CacheReadHit:          "cache.read_hit",
	CacheReadMiss:         "cache.read_miss",
	CacheEvict:            "cache.evict",
	CacheEvictDirty:       "cache.evict_dirty",
	CacheFillRace:         "cache.fill_race",
	CacheMetaWrite:        "cache.meta_block_write",
	CacheReadHitFast:      "cache.read_hit_fast",
	CacheReadHitSlow:      "cache.read_hit_slow",
	CacheSeqlockRetry:     "cache.seqlock_retry",
	CacheTouchDrop:        "cache.touch_ring_drop",
	CacheTouchDrained:     "cache.touch_drained",
	CacheViewZeroCopy:     "cache.view_zero_copy",
	CacheViewCopied:       "cache.view_copied",
	CacheViewDeferFree:    "cache.view_defer_free",
	CacheJournalWriteHit:  "cache.journal_write_hit",
	CacheJournalWriteMiss: "cache.journal_write_miss",
	TxnCommit:             "txn.commit",
	TxnAbort:              "txn.abort",
	TxnBlocks:             "txn.blocks",
	TxnCOWBlocks:          "txn.cow_blocks",
	TxnGroupSeals:         "txn.group_seals",
	TxnGroupSize:          "txn.group_size",
	TxnAbsorbed:           "txn.absorbed_blocks",
	TxnCrossShard:         "txn.cross_shard",
	TxnRingSealConflicts:  "txn.ring_seal_conflicts",
	JournalCommit:         "jbd.commit",
	JournalBlocks:         "jbd.log_blocks",
	JournalMeta:           "jbd.meta_blocks",
	JournalCkptBlks:       "jbd.checkpoint_blks",
	CkptWrites:            "ckpt.writes",
	CkptEntries:           "ckpt.entries",
	CkptJournalRecs:       "ckpt.journal_recs",
	NetBytes:              "net.bytes",
	NetMessages:           "net.messages",
}

// String returns the counter's registry name.
func (c Counter) String() string { return counterNames[c] }

// Hist names one latency histogram of a Recorder. Values are simulated
// nanoseconds unless the name says otherwise. Commit-phase histograms are
// charged by internal/core's group-commit pipeline (one sample per seal
// per phase); jbd.* by the Classic journal; fs.* by the file-system
// operation layer.
type Hist uint8

const (
	// Group-commit seal phases (internal/core/seal.go).
	HistCommitWait    Hist = iota // leader batch-formation wait
	HistCommitAbsorb              // plan/merge/allocate (phase 0)
	HistCommitData                // NVM data writes (phase A)
	HistCommitEntries             // log-role entry persists (phase B)
	HistCommitRing                // ring records + Head persist (phase C)
	HistCommitSwitch              // role switches (phase D)
	HistCommitTail                // Tail flip + fence (phase E)
	HistCommitSeal                // whole seal (phases 0–E)
	HistCommitTotal               // per-txn Commit latency (enqueue→ack)

	// Recovery (internal/core).
	HistRecovery // one full recovery pass
	// Per-phase recovery breakdown (internal/core/recovery.go). Scan, undo
	// and rebuild record one sample per recovery pass, zeros included;
	// redo records only when the redo branch actually ran (a zero-length
	// span for a branch that never executed pollutes trace timelines).
	HistRecoveryScan    // pointer load + entry-table scan
	HistRecoveryRedo    // completing interrupted role switches
	HistRecoveryUndo    // revocation + stray-log sweep
	HistRecoveryRebuild // DRAM index/LRU/allocator rebuild
	// Checkpoint writer (internal/core/checkpoint.go): one sample per
	// checkpoint frame persisted.
	HistCheckpoint

	// Lock-free read path (internal/core/readfast.go): seqlock retries per
	// successful fast hit that needed at least one retry (a count, not ns).
	HistReadHitRetry

	// NVM primitives (internal/pmem).
	HistNVMFlushLines // cache lines per CLFlush burst
	HistNVMFenceGap   // sim time between successive fences

	// Classic journal commit phases (internal/jbd).
	HistJBDLog        // descriptor + log + revoke writes
	HistJBDCommitBlk  // commit-record write
	HistJBDCheckpoint // checkpoint passes
	HistJBDCommit     // whole CommitTxn

	// File-system operations (internal/fs).
	HistFSRead  // read-only operations
	HistFSWrite // mutating operations

	numHists
)

var histNames = [numHists]string{
	HistCommitWait:      "commit.wait_ns",
	HistCommitAbsorb:    "commit.absorb_ns",
	HistCommitData:      "commit.data_ns",
	HistCommitEntries:   "commit.entries_ns",
	HistCommitRing:      "commit.ring_ns",
	HistCommitSwitch:    "commit.switch_ns",
	HistCommitTail:      "commit.tail_ns",
	HistCommitSeal:      "commit.seal_ns",
	HistCommitTotal:     "commit.total_ns",
	HistRecovery:        "recovery.ns",
	HistRecoveryScan:    "recovery.scan_ns",
	HistRecoveryRedo:    "recovery.redo_ns",
	HistRecoveryUndo:    "recovery.undo_ns",
	HistRecoveryRebuild: "recovery.rebuild_ns",
	HistCheckpoint:      "ckpt.write_ns",
	HistReadHitRetry:    "read.hit_retry",
	HistNVMFlushLines:   "nvm.flush_lines",
	HistNVMFenceGap:     "nvm.fence_gap_ns",
	HistJBDLog:          "jbd.log_ns",
	HistJBDCommitBlk:    "jbd.commit_blk_ns",
	HistJBDCheckpoint:   "jbd.checkpoint_ns",
	HistJBDCommit:       "jbd.commit_ns",
	HistFSRead:          "fs.read_ns",
	HistFSWrite:         "fs.write_ns",
}

// String returns the histogram's registry name.
func (h Hist) String() string { return histNames[h] }

// counterOrder and histOrder list the IDs sorted by registry name, the
// order WritePrometheus and HistSnapshots emit them in.
var counterOrder, histOrder = byName[Counter](counterNames[:]), byName[Hist](histNames[:])

func byName[ID Counter | Hist](names []string) []ID {
	ids := make([]ID, len(names))
	for i := range ids {
		ids[i] = ID(i)
	}
	sort.Slice(ids, func(a, b int) bool { return names[ids[a]] < names[ids[b]] })
	return ids
}

// Recorder holds one atomic slot per Counter and one lazily created
// Histogram per Hist. Most counters are monotonic; DiskQueueDepth is a
// ±gauge (mixed-sign Add deltas). The zero value is not usable; construct
// with NewRecorder. All methods are safe for concurrent use, and Add, Inc
// and Get are a single atomic operation on a fixed slot.
type Recorder struct {
	counters [numCounters]atomic.Int64
	hists    [numHists]atomic.Pointer[Histogram]
}

// NewRecorder returns a registry with every counter at zero and no
// histogram created yet.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Add increments counter c by delta.
func (r *Recorder) Add(c Counter, delta int64) { r.counters[c].Add(delta) }

// Inc increments counter c by one.
func (r *Recorder) Inc(c Counter) { r.counters[c].Add(1) }

// Get returns the current value of counter c.
func (r *Recorder) Get(c Counter) int64 { return r.counters[c].Load() }

// Hist returns histogram h, creating it on first use, so a recorder whose
// layers never observe holds no histogram. Hot paths should call this
// once and hold the pointer; Record on the result is lock-free.
func (r *Recorder) Hist(h Hist) *Histogram {
	if p := r.hists[h].Load(); p != nil {
		return p
	}
	r.hists[h].CompareAndSwap(nil, NewHistogram(histNames[h]))
	return r.hists[h].Load()
}

// HistSnapshot copies histogram h's current state (an empty snapshot if
// it was never created).
func (r *Recorder) HistSnapshot(h Hist) HistSnapshot {
	if p := r.hists[h].Load(); p != nil {
		return p.Snapshot()
	}
	return HistSnapshot{Name: histNames[h]}
}

// HistSnapshots copies every histogram created so far, ordered by name.
func (r *Recorder) HistSnapshots() []HistSnapshot {
	var out []HistSnapshot
	for _, h := range histOrder {
		if p := r.hists[h].Load(); p != nil {
			out = append(out, p.Snapshot())
		}
	}
	return out
}

// Snapshot is an immutable copy of every counter at one instant, indexed
// by Counter. It is a plain value: copying, comparing and subtracting
// snapshots allocate nothing.
type Snapshot [numCounters]int64

// Snapshot copies the current counter values.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	for i := range s {
		s[i] = r.counters[i].Load()
	}
	return s
}

// Get returns the value of counter c in the snapshot.
func (s Snapshot) Get(c Counter) int64 { return s[c] }

// Sub returns s - old, counter-wise.
func (s Snapshot) Sub(old Snapshot) Snapshot {
	for i := range s {
		s[i] -= old[i]
	}
	return s
}

// Add returns s + o, counter-wise (for summing recorders).
func (s Snapshot) Add(o Snapshot) Snapshot {
	for i := range s {
		s[i] += o[i]
	}
	return s
}

// PerOp divides counter c by the given operation count, returning 0 when
// ops is zero.
func (s Snapshot) PerOp(c Counter, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(s[c]) / float64(ops)
}
