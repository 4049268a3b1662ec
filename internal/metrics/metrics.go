// Package metrics implements the observability registry used by every
// layer of the storage stack. The evaluation in the paper compares
// systems on normalized counter values (clflush per operation, disk
// blocks written per transaction, ...), so counters are first-class here:
// cheap atomic increments, snapshot/delta arithmetic, and stable names
// shared by the experiment harness. On top of counters the package
// provides lock-free log-bucketed latency histograms (Histogram), a
// fixed-ring structured span tracer with a Chrome trace_event exporter
// (Tracer), and a Prometheus text exposition of everything a Recorder
// holds (WritePrometheus / Handler) for live scraping.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical counter names. Components must use these constants so the
// experiment drivers can compute the paper's normalized quantities.
const (
	// NVM-level counters (charged by internal/pmem).
	NVMCLFlush    = "nvm.clflush"     // cache lines flushed
	NVMSFence     = "nvm.sfence"      // store fences executed
	NVMBytesWrite = "nvm.bytes_write" // bytes stored (volatile stores)
	NVMBytesRead  = "nvm.bytes_read"  // bytes loaded
	NVMAtomic8    = "nvm.atomic8"     // 8-byte atomic stores
	NVMAtomic16   = "nvm.atomic16"    // always 0; read by benchmark/run.go

	// Disk-level counters (charged by internal/blockdev). DiskQueueDepth is
	// a ±gauge: +1 when a request enters a device, -1 when it leaves, so a
	// Prometheus scrape sees how deep the in-flight window currently is.
	DiskBlocksWrite = "disk.blocks_write"
	DiskBlocksRead  = "disk.blocks_read"
	DiskBytesWrite  = "disk.bytes_write"
	DiskBytesRead   = "disk.bytes_read"
	DiskQueueDepth  = "disk.queue_depth"

	// Cache-manager counters (charged by internal/core and internal/classic).
	CacheWriteHit   = "cache.write_hit"
	CacheWriteMiss  = "cache.write_miss"
	CacheReadHit    = "cache.read_hit"
	CacheReadMiss   = "cache.read_miss"
	CacheEvict      = "cache.evict"
	CacheEvictDirty = "cache.evict_dirty"
	CacheFillRace   = "cache.fill_race"        // miss fills that lost the install race or retried (internal/core)
	CacheMetaWrite  = "cache.meta_block_write" // block-format metadata writes (Classic)
	// Lock-free read-hit fast path (internal/core/readfast.go).
	CacheReadHitFast  = "cache.read_hit_fast"   // hits served with zero locks
	CacheReadHitSlow  = "cache.read_hit_slow"   // hits that fell back to the locked path
	CacheSeqlockRetry = "cache.seqlock_retry"   // fast-path version-change retries
	CacheTouchDrop    = "cache.touch_ring_drop" // LRU promotions dropped (ring full)
	CacheTouchDrained = "cache.touch_drained"   // queued promotions applied to the exact list
	// Zero-copy read views (internal/core/view.go).
	CacheViewZeroCopy  = "cache.view_zero_copy"  // views served by aliasing pinned NVM bytes
	CacheViewCopied    = "cache.view_copied"     // views served as private copies (mid-seal fresh blocks)
	CacheViewDeferFree = "cache.view_defer_free" // block frees deferred to a view's last unpin
	// Scrape-time gauges published by the stack's /metrics handler: the
	// backing values live outside the Recorder (the sharded index and the
	// views-open atomic), so the handler Sets them at each scrape.
	CacheIndexGrows = "cache.index_grows" // incremental index resizes since Open (gauge)
	CacheViewsOpen  = "cache.views_open"  // live unclosed zero-copy views (gauge)
	// Journal-area traffic through the Classic cache, counted separately
	// so data-block hit rates are comparable across systems.
	CacheJournalWriteHit  = "cache.journal_write_hit"
	CacheJournalWriteMiss = "cache.journal_write_miss"

	// Transaction counters.
	TxnCommit     = "txn.commit"
	TxnAbort      = "txn.abort"
	TxnBlocks     = "txn.blocks"          // data blocks committed
	TxnCOWBlocks  = "txn.cow_blocks"      // blocks that needed a COW copy
	TxnGroupSeals = "txn.group_seals"     // coalesced ring-buffer seals
	TxnGroupSize  = "txn.group_size"      // transactions absorbed into seals (sum)
	TxnAbsorbed   = "txn.absorbed_blocks" // duplicate blocks absorbed within a seal
	// Multi-ring commit counters (internal/core/seal.go). Per-ring
	// counters use RingSealName/RingQueueDepthName; RingQueueDepth* is a
	// ±gauge (enqueue/dequeue deltas).
	TxnCrossShard        = "txn.cross_shard"         // commits spanning more than one ring
	TxnRingSealConflicts = "txn.ring_seal_conflicts" // ring locks a cross-ring seal found contended
	JournalCommit        = "jbd.commit"              // journal transactions committed
	JournalBlocks        = "jbd.log_blocks"          // log (data) blocks written to journal
	JournalMeta          = "jbd.meta_blocks"         // descriptor/commit/revoke blocks
	JournalCkptBlks      = "jbd.checkpoint_blks"     // blocks checkpointed to home location

	// Checkpoint counters (charged by internal/core's checkpoint writer).
	CkptWrites      = "ckpt.writes"       // checkpoint frames persisted
	CkptEntries     = "ckpt.entries"      // valid entries snapshotted, cumulative
	CkptJournalRecs = "ckpt.journal_recs" // delta-journal records persisted

	// Workload-level counters (charged by drivers).
	OpsWrite = "ops.write"
	OpsRead  = "ops.read"
	OpsFile  = "ops.file" // whole file operations (Filebench accounting)
	OpsTxn   = "ops.txn"  // OLTP transactions completed

	// Network counters (charged by internal/cluster).
	NetBytes    = "net.bytes"
	NetMessages = "net.messages"
)

// RingSealName returns the per-ring seal counter name for ring r
// ("txn.ring_seal.<r>"): one increment per seal that stamped ring r.
func RingSealName(r int) string { return fmt.Sprintf("txn.ring_seal.%d", r) }

// RingQueueDepthName returns the per-ring commit-queue depth gauge name for
// ring r ("ring.queue_depth.<r>"): +1 on enqueue, -1 when the seal claims
// the request.
func RingQueueDepthName(r int) string { return fmt.Sprintf("ring.queue_depth.%d", r) }

// Canonical histogram names. Values are simulated nanoseconds unless the
// name says otherwise. Commit-phase histograms are charged by
// internal/core's group-commit pipeline (one sample per seal per phase);
// jbd.* by the Classic journal; fs.* by the file-system operation layer.
const (
	// Group-commit seal phases (internal/core/seal.go).
	HistCommitWait    = "commit.wait_ns"    // leader batch-formation wait
	HistCommitAbsorb  = "commit.absorb_ns"  // plan/merge/allocate (phase 0)
	HistCommitData    = "commit.data_ns"    // NVM data writes (phase A)
	HistCommitEntries = "commit.entries_ns" // log-role entry persists (phase B)
	HistCommitRing    = "commit.ring_ns"    // ring records + Head persist (phase C)
	HistCommitSwitch  = "commit.switch_ns"  // role switches (phase D)
	HistCommitTail    = "commit.tail_ns"    // Tail flip + fence (phase E)
	HistCommitSeal    = "commit.seal_ns"    // whole seal (phases 0–E)
	HistCommitTotal   = "commit.total_ns"   // per-txn Commit latency (enqueue→ack)

	// Recovery (internal/core).
	HistRecovery = "recovery.ns" // one full recovery pass
	// Per-phase recovery breakdown (internal/core/recovery.go). Scan, undo
	// and rebuild record one sample per recovery pass, zeros included;
	// redo records only when the redo branch actually ran (a zero-length
	// span for a branch that never executed pollutes trace timelines).
	HistRecoveryScan    = "recovery.scan_ns"    // pointer load + entry-table scan
	HistRecoveryRedo    = "recovery.redo_ns"    // completing interrupted role switches
	HistRecoveryUndo    = "recovery.undo_ns"    // revocation + stray-log sweep
	HistRecoveryRebuild = "recovery.rebuild_ns" // DRAM index/LRU/allocator rebuild
	// Checkpoint writer (internal/core/checkpoint.go): one sample per
	// checkpoint frame persisted.
	HistCheckpoint = "ckpt.write_ns"

	// Lock-free read path (internal/core/readfast.go): seqlock retries per
	// successful fast hit that needed at least one retry (a count, not ns).
	HistReadHitRetry = "read.hit_retry"

	// NVM primitives (internal/pmem).
	HistNVMFlushLines = "nvm.flush_lines"  // cache lines per CLFlush burst
	HistNVMFenceGap   = "nvm.fence_gap_ns" // sim time between successive fences

	// Classic journal commit phases (internal/jbd).
	HistJBDLog        = "jbd.log_ns"        // descriptor + log + revoke writes
	HistJBDCommitBlk  = "jbd.commit_blk_ns" // commit-record write
	HistJBDCheckpoint = "jbd.checkpoint_ns" // checkpoint passes
	HistJBDCommit     = "jbd.commit_ns"     // whole CommitTxn

	// File-system operations (internal/fs).
	HistFSRead  = "fs.read_ns"  // read-only operations
	HistFSWrite = "fs.write_ns" // mutating operations
)

// Recorder is a registry of named counters and latency histograms. Most
// counters are monotonic; a few are used as ±gauges (see Set and the
// RingQueueDepthName convention above). The zero value is not usable;
// construct with NewRecorder. All methods are safe for concurrent use.
//
// The data path calls Add/Inc/Observe concurrently from every layer of
// the stack, so the name→cell lookup is a sync.Map read (lock-free after
// the first touch of a name); allocation happens only the first time a
// name appears.
type Recorder struct {
	counters sync.Map // string -> *atomic.Int64
	hists    sync.Map // string -> *Histogram
}

// NewRecorder returns an empty counter registry.
func NewRecorder() *Recorder {
	return &Recorder{}
}

func (r *Recorder) counter(name string) *atomic.Int64 {
	if c, ok := r.counters.Load(name); ok {
		return c.(*atomic.Int64)
	}
	c, _ := r.counters.LoadOrStore(name, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// Add increments the named counter by delta.
func (r *Recorder) Add(name string, delta int64) { r.counter(name).Add(delta) }

// Counter returns the named counter's cell, creating it on first use. Hot
// paths (per-ring seal counters) call this once and hold the pointer, like
// Hist; Add/Load on the result never touch the registry map.
func (r *Recorder) Counter(name string) *atomic.Int64 { return r.counter(name) }

// Inc increments the named counter by one.
func (r *Recorder) Inc(name string) { r.counter(name).Add(1) }

// Set overwrites the named counter, making it an explicit gauge. Counters
// written with Set (or with mixed-sign Add deltas, as the per-ring queue
// depths are) report a level, not a total; Snapshot.Sub deltas of gauges are
// level changes and PerOp normalization of them is rarely meaningful.
func (r *Recorder) Set(name string, v int64) { r.counter(name).Store(v) }

// Get returns the current value of the named counter (zero if never used).
func (r *Recorder) Get(name string) int64 {
	if c, ok := r.counters.Load(name); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

// Hist returns the named histogram, creating it on first use. Hot paths
// should call this once and hold the pointer; Record on the result is
// lock-free.
func (r *Recorder) Hist(name string) *Histogram {
	if h, ok := r.hists.Load(name); ok {
		return h.(*Histogram)
	}
	h, _ := r.hists.LoadOrStore(name, NewHistogram(name))
	return h.(*Histogram)
}

// Observe records one value (conventionally nanoseconds) into the named
// histogram.
func (r *Recorder) Observe(name string, v int64) { r.Hist(name).Record(v) }

// HistSnapshot copies the named histogram's current state (empty snapshot
// if never used).
func (r *Recorder) HistSnapshot(name string) HistSnapshot {
	if h, ok := r.hists.Load(name); ok {
		return h.(*Histogram).Snapshot()
	}
	return HistSnapshot{Name: name}
}

// HistSnapshots copies every registered histogram, keyed by name.
func (r *Recorder) HistSnapshots() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot)
	r.hists.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	return out
}

// Reset zeroes all counters and histograms.
func (r *Recorder) Reset() {
	r.counters.Range(func(_, v any) bool {
		v.(*atomic.Int64).Store(0)
		return true
	})
	r.hists.Range(func(_, v any) bool {
		v.(*Histogram).Reset()
		return true
	})
}

// Snapshot is an immutable copy of all counter values at one instant.
type Snapshot map[string]int64

// Snapshot copies the current counter values.
func (r *Recorder) Snapshot() Snapshot {
	s := make(Snapshot)
	r.counters.Range(func(k, v any) bool {
		s[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return s
}

// Get returns the value of name in the snapshot, zero if absent.
func (s Snapshot) Get(name string) int64 { return s[name] }

// Sub returns s - old, counter-wise. Counters absent from old are treated
// as zero.
func (s Snapshot) Sub(old Snapshot) Snapshot {
	d := make(Snapshot, len(s))
	for name, v := range s {
		d[name] = v - old[name]
	}
	return d
}

// PerOp divides counter name by the given operation count, returning 0 when
// ops is zero.
func (s Snapshot) PerOp(name string, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(s[name]) / float64(ops)
}

// String renders the snapshot sorted by counter name, one per line.
func (s Snapshot) String() string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%-24s %12d\n", name, s[name])
	}
	return b.String()
}
