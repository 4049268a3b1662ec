package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tinca/internal/blockdev"
	"tinca/internal/bufpool"
	"tinca/internal/errs"
	"tinca/internal/flight"
	"tinca/internal/index"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
)

// Ablation selects a cost hook on the commit seal, for the design-choice
// benches in DESIGN.md §6. The paper's Tinca is AblationNone. An ablation
// changes only how many bytes a seal writes to NVM: the extra copies land
// in a scratch block no entry names, so the protocol, its persist order
// and its crash consistency are the paper's in every mode.
type Ablation int

const (
	// AblationNone is the paper's design: role switch + COW, no double
	// writes.
	AblationNone Ablation = iota
	// AblationDoubleWrite charges the journal's double write: every
	// committed block is also stored and flushed as a redundant log copy,
	// the write the role switch saves.
	AblationDoubleWrite
	// AblationUBJ charges UBJ's commit-in-place (Section 5.4.4): a write
	// hit also copies the frozen previous version aside inside NVM, the
	// critical-path memcpy Tinca's pointer-flip COW avoids.
	AblationUBJ
)

// DefaultGroupBatch caps how many concurrently arriving Txn.Commit calls
// one ring-buffer seal coalesces (one Tail flip and a handful of fences
// amortized over the batch).
const DefaultGroupBatch = 8

// Fault selects a deliberate violation of the commit protocol's persist
// ordering, used exclusively to validate the crash harness: a sweep that
// cannot catch a cache that skips a required flush is not testing
// anything. Never set a fault in a real configuration.
type Fault int

const (
	// FaultNone is the correct protocol.
	FaultNone Fault = iota
	// FaultSkipDataFlush omits the cache-line flushes of committed block
	// data (phase A of the seal). The entries and ring records still
	// persist in order, so after a crash with no lucky evictions the
	// metadata points at garbage data — the classic "logged before
	// flushed" bug the sweep must detect.
	FaultSkipDataFlush
)

// Options configure a Cache.
type Options struct {
	// RingBytes is the ring buffer size; the paper's default (1MB) when 0.
	// Must be a multiple of the 64B cache line.
	RingBytes int
	// Ablation adds a design-choice cost hook to every seal (default:
	// none, the paper's design). It composes with every other option.
	Ablation Ablation
	// RotatePointers spreads Head/Tail pointer updates across
	// DefaultPtrSlots cache lines instead of one fixed line each,
	// dividing the hottest-line wear accordingly (an endurance extension
	// motivated by the wear profile the endurance experiment exposes; see
	// EXPERIMENTS.md).
	RotatePointers bool
	// SealWaitNS is a real-time window the seal leader waits for its
	// batch to fill (up to DefaultGroupBatch transactions) before sealing
	// what it has. Zero (the default) seals opportunistically: whatever is
	// queued when the leader takes over. Non-zero values trade commit
	// latency for larger batches; simulated time is unaffected by the wait
	// itself.
	SealWaitNS int64
	// Observe enables the commit-pipeline observability harness:
	// per-phase latency histograms (recorded into the device's shared
	// metrics.Recorder under the metrics.HistCommit* names) for the
	// group-commit seal phases and recovery. Off by default:
	// the hot path then pays one nil check per site and the histograms do
	// not exist.
	Observe bool
	// Tracer, when non-nil, additionally records structured span events
	// (seal id, phase, simulated start/duration, goroutine) into the
	// given fixed-size ring for Chrome trace_event export. Setting a
	// Tracer implies Observe.
	Tracer *metrics.Tracer
	// Fault injects a deliberate persist-ordering violation (see Fault).
	// Harness self-validation only.
	Fault Fault
	// SealHook, when non-nil, is called immediately after every commit
	// point (the Tail persist that seals a batch) with that seal's
	// sequence number, while the commit lock is still held. Sequence
	// numbers are assigned when a seal starts and are strictly increasing,
	// so the largest value a hook observed before a crash is exactly the
	// prefix of seals that reached their commit point. The hook must be
	// fast and must not call back into the cache.
	SealHook func(seq uint64)
	// FlightRecorder enables the crash-surviving black box (DESIGN.md
	// §13): a flight.DefaultSlots-record event ring carved out of the NVM
	// layout, written crash-consistently at seal, recovery, checkpoint and
	// eviction boundaries via silent persists that charge no simulated
	// time, counters or wear — figures are bit-identical with the
	// recorder on or off. The region costs a few cache blocks of
	// capacity; layouts with the recorder off are byte-identical to
	// before the feature existed.
	FlightRecorder bool
	// CheckpointIntervalNS, when positive, enables the checkpoint region
	// (DESIGN.md §14): a delta journal plus two alternating entry-table
	// snapshot frames carved out of the NVM layout. A checkpoint writer
	// runs at commit points on the simulated clock, at least this many
	// simulated ns apart (DefaultCheckpointIntervalNS is the usual
	// choice; the crash sweeps set 1 so every commit point writes a
	// checkpoint and the sweep visits every checkpoint boundary).
	// Recovery then loads the newest valid frame and replays only the
	// journaled deltas instead of scanning the whole entry table, making
	// restart time proportional to the resident set rather than the
	// capacity. Bumps the layout version; zero (the default) means no
	// region, and such images are byte-identical to before the feature
	// existed.
	CheckpointIntervalNS int64
	// CommitRings splits the single commit log ring into this many
	// independent per-shard rings (DESIGN.md §8): ring r serializes the
	// blocks of shards congruent to r mod CommitRings, each ring has its
	// own Head/Tail pointer pair and group-commit leader, records are
	// stamped with a global commit-point generation, and recovery merges
	// the rings by generation. Transactions touching disjoint rings seal
	// fully in parallel; cross-ring transactions take a deterministic
	// multi-ring seal with the rings locked in index order. Must be a
	// power of two between 1 and 16 (shardCount). 0 or 1 keeps the paper's
	// single ring and a byte-identical layout.
	CommitRings int

	// lockedReadHit forces read hits through the shard-locked path
	// (hitLocked), disabling the per-slot seqlock fast path (hitFast,
	// readfast.go) for Read and ReadView alike. Unexported:
	// it exists only as the reference implementation
	// TestCrashSweepFastPathParity compares the fast path against.
	lockedReadHit bool
	// serialRecovery runs the shard-parallel recovery phases' striped work
	// items on one goroutine. Unexported: it exists only as the reference
	// implementation TestRecoverySerialParallelParity and
	// TestMultiRingSerialParallelParity compare the fan-out against.
	serialRecovery bool
	// indexBuckets sets the initial per-shard capacity (in 16B cells) of
	// the open-addressed block index. Zero pre-sizes each shard for the
	// cache capacity so the steady state never resizes; small values force
	// the incremental grow path. Rounded up to a power of two. Unexported:
	// only the index-resize tests set it.
	indexBuckets int
}

// Validate reports a descriptive error for a nonsensical configuration
// instead of silently clamping it. The zero Options value is always valid.
func (o Options) Validate() error {
	if o.RingBytes < 0 {
		return fmt.Errorf("core: RingBytes %d is negative", o.RingBytes)
	}
	if o.RingBytes%pmem.LineSize != 0 {
		return fmt.Errorf("core: RingBytes %d is not a multiple of the %dB cache line", o.RingBytes, pmem.LineSize)
	}
	if o.Ablation < AblationNone || o.Ablation > AblationUBJ {
		return fmt.Errorf("core: unknown ablation %d", int(o.Ablation))
	}
	if o.SealWaitNS < 0 {
		return fmt.Errorf("core: SealWaitNS %d is negative", o.SealWaitNS)
	}
	if o.Fault < FaultNone || o.Fault > FaultSkipDataFlush {
		return fmt.Errorf("core: unknown fault %d", int(o.Fault))
	}
	if o.CheckpointIntervalNS < 0 {
		return fmt.Errorf("core: CheckpointIntervalNS %d is negative", o.CheckpointIntervalNS)
	}
	if o.CommitRings < 0 {
		return fmt.Errorf("core: CommitRings %d is negative", o.CommitRings)
	}
	if o.CommitRings > 1 && (o.CommitRings > shardCount || o.CommitRings&(o.CommitRings-1) != 0) {
		return fmt.Errorf("core: CommitRings %d must be a power of two between 1 and %d", o.CommitRings, shardCount)
	}
	return nil
}

// Common errors. The cross-layer conditions (closed, out of range,
// expired view) wrap the shared sentinels in internal/errs, so one
// errors.Is target matches them whether they surface from core, fs or
// stack — see the exported aliases in the tinca package.
var (
	// ErrTxnTooLarge is returned when a transaction has more blocks than
	// the ring buffer has slots.
	ErrTxnTooLarge = errors.New("core: transaction exceeds ring buffer capacity")
	// ErrNoSpace is returned when no block can be evicted to make room
	// (every resident block is pinned by the committing transaction).
	ErrNoSpace = errors.New("core: cache full of pinned blocks")
	// ErrClosed is returned by operations on a closed cache.
	// errors.Is(err, errs.ErrClosed) matches it.
	ErrClosed = fmt.Errorf("core: cache closed: %w", errs.ErrClosed)
	// ErrOutOfRange is returned for a block number beyond the backing
	// disk or a mis-sized buffer. errors.Is(err, errs.ErrOutOfRange)
	// matches it.
	ErrOutOfRange = fmt.Errorf("core: block out of range: %w", errs.ErrOutOfRange)
	// ErrViewExpired is returned when a View is used after Close.
	// errors.Is(err, errs.ErrViewExpired) matches it.
	ErrViewExpired = fmt.Errorf("core: view used after Close: %w", errs.ErrViewExpired)
)

// shardCount is the lock-striping factor for the DRAM metadata (hash table
// and LRU lists). Must be a power of two.
const shardCount = 16

// shard holds the DRAM lookup structures for the disk blocks it is keyed
// to (block number mod shardCount). The shard lock guards the persistent
// entries and NVM data blocks of those disk blocks: any *mutator* of an
// (entry, data) pair holds the block's shard lock across the whole
// mutation and brackets it with the slot's seqlock (readfast.go), so the
// lock-free read-hit path can detect and discard torn snapshots while
// locked readers are excluded outright.
type shard struct {
	mu sync.Mutex
	// idx maps disk block -> entry slot: an open-addressed table of
	// 16-byte cells (internal/index) mirroring the paper's entry economy
	// on the DRAM side. Reads are lock-free (the read-hit fast path and
	// any optimistic lookup); every Put/Delete happens under mu, which
	// also drives the table's incremental resize. A lock-free reader may
	// observe a stale mapping or (mid-resize) a spurious miss; it
	// re-validates against the entry's disk field and the slot seqlock
	// (or simply re-checks under mu on the locked path).
	idx *index.Table
	lru *lruList // per-shard LRU over entry slots

	// touches is the MPSC ring of entry slots awaiting LRU promotion:
	// fast-path hits push lock-free, locked-path entrants and eviction
	// drain under mu (see readfast.go).
	touches touchRing

	// pinned holds the entry slots of a committing transaction mapped to
	// this shard (replacement rule 2, Section 4.6): neither copy of a
	// committing block may be evicted until the whole commit — role
	// switch *and* Tail flip — is durable. Guarded by mu.
	pinned map[int32]bool

	// wb marks entry slots whose contents are currently in flight to disk
	// (eviction write-back or flush).
	// The flag serializes write-backers of one slot without holding mu
	// across the disk write: whoever sets it owns the slot's disk traffic
	// until it clears it, so an older version can never land over a newer
	// one. Guarded by mu; wbCond is signalled on every clear.
	wb     map[int32]bool
	wbCond *sync.Cond

	// evictGen counts evictions of ever-dirty slots in this shard. An
	// optimistic miss fill snapshots it before its disk read and aborts
	// the install if it moved: the eviction's write-back may have changed
	// the disk after the fill's read started. Evictions of never-dirty
	// blocks leave it alone (their disk copy cannot have changed), so
	// read-mostly workloads see no spurious retries. Written under mu.
	evictGen atomic.Uint64
}

// Cache is a transactional NVM disk cache (Tinca). It caches 4KB blocks of
// the underlying disk in NVM with a write-back policy and exports the
// transactional primitives Begin/Commit/Abort to the layer above.
//
// All public methods are safe for concurrent use. Running transactions
// build up concurrently in DRAM; concurrently arriving commits are
// coalesced into group seals (one ring-buffer Tail flip per batch), while
// the per-block metadata (hash table, LRU) is lock-striped across
// shardCount shards so data-path reads never serialize on a global lock.
type Cache struct {
	mem  *pmem.Device
	disk blockdev.Store
	lay  Layout
	rec  *metrics.Recorder
	opts Options

	// DRAM auxiliary structures (Section 4.6); rebuilt on startup.
	// hash and lru live in the shards; the free block/slot monitors live
	// in the allocator.
	shards [shardCount]shard
	alloc  allocator

	// dirtied records, per entry slot, whether the slot's block has ever
	// been committed (and hence whether its disk copy may have been
	// rewritten by a write-back) since it was cached. Feeds the shards'
	// evictGen: only evicting an ever-dirty slot invalidates optimistic
	// miss fills. Guarded by the slot's shard lock.
	dirtied []bool

	// atime records a monotonic access tick per entry slot. Stamped
	// atomically by every hit (the lock-free fast path included) and by
	// locked installs; eviction selects victims by tick — the exact
	// recency signal — and re-validates the tick under the shard lock, so
	// the approximate order of the LRU lists (see shard.touches) never
	// decides an eviction by itself.
	atime []atomic.Int64
	tick  atomic.Int64

	// slotSeq is the per-slot seqlock: even = stable, odd = a mutator
	// (which also holds the slot's shard lock) is inside the slot's
	// (entry, data) pair. See readfast.go for the protocol.
	slotSeq []atomic.Uint32

	// viewPins holds, per NVM data block, (view refcount << 1) | orphan
	// bit. Nonzero pins defer the block's free to the last unpin; see
	// view.go for the protocol. viewsOpen counts open Views (all kinds)
	// for diagnostics and the quiescence invariant.
	viewPins  []atomic.Int64
	viewsOpen atomic.Int64

	// The commit log (seal.go): R >= 1 rings. rings[r] owns ring r's
	// persistent Head/Tail pair and its group-commit queue; gen is the
	// global commit-point generation counter every seal draws from while
	// holding all participating ring seal locks, so per-ring generations
	// are strictly increasing. It numbers the commit points
	// Options.SealHook and the flight records report.
	rings []ringState
	gen   atomic.Uint64

	closed atomic.Bool
	// poisoned carries the injected-crash panic value after a crash
	// fired mid-operation, so every later caller observes the crash
	// instead of running on the half-written image.
	poisoned atomic.Value

	// obs is the observability harness (nil when Observe is off; every
	// instrumentation site branches on that nil).
	obs *obs

	// fl is the crash-surviving flight recorder (nil when
	// Options.FlightRecorder is off; every hook branches on that nil).
	fl *flight.Ring

	// recStats is populated by recover() when Open found a formatted
	// image; zero (Ran == false) after a fresh format.
	recStats RecoveryStats

	// ckpt is the checkpoint writer state (nil when
	// Options.CheckpointIntervalNS is zero; every hook branches on that
	// nil). See checkpoint.go.
	ckpt *ckptState
}

// Open formats or recovers a Tinca cache on the given NVM device, backed
// by the given disk. If the device already holds a Tinca layout (matching
// magic and geometry), crash recovery runs (Section 4.5); otherwise the
// device is formatted fresh. The options are validated eagerly: a
// nonsensical configuration returns a descriptive error.
func Open(mem *pmem.Device, disk blockdev.Store, opts Options) (*Cache, error) {
	if mem == nil || disk == nil {
		return nil, errors.New("core: Open requires a non-nil NVM device and disk")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ptrSlots := 1
	if opts.RotatePointers {
		ptrSlots = DefaultPtrSlots
	}
	flightSlots := 0
	if opts.FlightRecorder {
		flightSlots = flight.DefaultSlots
	}
	lay, err := ComputeLayout(mem.Size(), LayoutParams{
		RingBytes:   opts.RingBytes,
		PtrSlots:    ptrSlots,
		FlightSlots: flightSlots,
		Checkpoint:  opts.CheckpointIntervalNS > 0,
		Rings:       opts.CommitRings,
	})
	if err != nil {
		return nil, err
	}
	c := &Cache{
		mem:      mem,
		disk:     disk,
		lay:      lay,
		rec:      mem.Recorder(),
		opts:     opts,
		atime:    make([]atomic.Int64, lay.Capacity),
		slotSeq:  make([]atomic.Uint32, lay.Capacity),
		viewPins: make([]atomic.Int64, lay.Capacity),
		dirtied:  make([]bool, lay.Capacity),
		rings:    make([]ringState, lay.Rings),
	}
	c.alloc.init(lay.Capacity)
	for r := range c.rings {
		c.rings[r].init(r)
	}
	if opts.Observe || opts.Tracer != nil {
		c.obs = newObs(mem.Clock(), mem.Recorder(), opts.Tracer)
	}
	buckets := opts.indexBuckets
	if buckets == 0 {
		// Pre-size each shard for the whole capacity landing in it (the
		// worst skew) staying under the 3/4 grow trigger is overkill;
		// sizing for an even spread with 2x headroom means the steady
		// state almost never resizes and resize stays correct when it
		// does.
		buckets = 2 * (lay.Capacity/shardCount + 1)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.idx = index.New(buckets)
		sh.lru = newLRU(lay.Capacity)
		sh.pinned = make(map[int32]bool)
		sh.wb = make(map[int32]bool)
		sh.wbCond = sync.NewCond(&sh.mu)
	}
	if opts.CheckpointIntervalNS > 0 {
		c.ckpt = &ckptState{interval: opts.CheckpointIntervalNS, journaled: make([]bool, lay.Capacity)}
	}
	hasImage := c.mem.Load8(lay.HeaderOff+hdrMagic) == layoutMagic
	if hasImage && c.sameGeometry() {
		if opts.FlightRecorder {
			// Attach before recovery runs: recovery extends the surviving
			// pre-crash timeline with its own phase events.
			c.fl = flight.Attach(mem, mem.Clock(), lay.FlightOff, lay.FlightSlots)
		}
		if err := c.recover(); err != nil {
			return nil, &RecoveryError{Stats: c.recStats, Err: err}
		}
	} else {
		c.format(hasImage)
		if opts.FlightRecorder {
			c.fl = flight.New(mem, mem.Clock(), lay.FlightOff, lay.FlightSlots)
		}
	}
	return c, nil
}

// shardIdx returns the shard index for block no.
func shardIdx(no uint64) int {
	return int(no & (shardCount - 1))
}

// shardOf returns the shard responsible for disk block no.
func (c *Cache) shardOf(no uint64) *shard {
	return &c.shards[no&(shardCount-1)]
}

// touchLocked stamps slot i with a fresh access tick and moves it to its
// shard's MRU end, after applying any promotions fast-path hits queued
// before this tick (FIFO, so list order tracks stamp order exactly in a
// serial execution). Caller holds the shard lock.
func (c *Cache) touchLocked(sh *shard, i int32) {
	c.drainTouchesLocked(sh)
	c.atime[i].Store(c.tick.Add(1))
	sh.lru.touch(i)
}

// pushFrontLocked inserts slot i as its shard's MRU, draining queued
// fast-path promotions first (they carry older ticks). Caller holds the
// shard lock.
func (c *Cache) pushFrontLocked(sh *shard, i int32) {
	c.drainTouchesLocked(sh)
	c.atime[i].Store(c.tick.Add(1))
	sh.lru.pushFront(i)
}

// checkPoison re-raises an injected-crash panic observed by an earlier
// operation: after a (simulated) power failure nothing may keep running on
// the half-written image.
func (c *Cache) checkPoison() {
	if pv := c.poisoned.Load(); pv != nil {
		panic(pv)
	}
}

// poison records pv as the crash that stops all future operations.
func (c *Cache) poison(pv any) {
	c.poisoned.CompareAndSwap(nil, pv)
}

// sameGeometry reports whether the image whose header magic Open found was
// laid out with this Open's geometry; anything else is reformatted.
func (c *Cache) sameGeometry() bool {
	return c.mem.Load8(c.lay.HeaderOff+hdrVersion) == c.lay.version() &&
		c.mem.Load8(c.lay.HeaderOff+hdrCapacity) == uint64(c.lay.Capacity) &&
		c.mem.Load8(c.lay.HeaderOff+hdrRingSlot) == uint64(c.lay.RingSlots) &&
		c.mem.Load8(c.lay.HeaderOff+hdrPtrSlots) == uint64(c.lay.PtrSlots) &&
		c.mem.Load8(c.lay.HeaderOff+hdrFlight) == uint64(c.lay.FlightSlots) &&
		c.mem.Load8(c.lay.HeaderOff+hdrCkpt) == uint64(c.lay.CkptJournalSlots) &&
		c.mem.Load8(c.lay.HeaderOff+hdrRings) == c.lay.headerRings()
}

// loadPointer reads a possibly-rotated pointer: the latest persisted
// value is the maximum across the rotation slots (values are monotonic
// and each store is atomic).
func (c *Cache) loadPointer(base int) uint64 {
	if c.lay.PtrSlots <= 1 {
		return c.mem.Load8(base)
	}
	var max uint64
	for i := 0; i < c.lay.PtrSlots; i++ {
		if v := c.mem.Load8(base + i*pmem.LineSize); v > max {
			max = v
		}
	}
	return max
}

// format lays out a fresh cache. overImage says the device holds a Tinca
// image of another geometry rather than the zeroes of a fresh device.
func (c *Cache) format(overImage bool) {
	// A fresh pmem device is zeroed, so the entry table (all-invalid) and
	// the Head/Tail pointers (both zero) need no explicit pass. Persist
	// the header last so a crash mid-format is just an unformatted device.
	if overImage {
		// An old image is not zeroes. Its header goes first, so a crash
		// mid-format cannot remount it half scrubbed; then every byte the
		// new entry table sits on, which would otherwise decode as entries.
		c.mem.Persist8(c.lay.HeaderOff+hdrMagic, 0)
		c.mem.PersistRange(c.lay.EntryOff, make([]byte, c.lay.Capacity*EntrySize))
	}
	c.mem.Persist8(c.lay.HeadOff, 0)
	c.mem.Persist8(c.lay.TailOff, 0)
	if overImage || c.lay.Rings > 1 {
		// Stale rotation slots' max would resurrect old pointers; clear
		// every slot of every ring (ring 0 slot 0 was cleared above). A
		// fresh multi-ring device takes the pass too: its persist count is
		// part of the pinned format sequence.
		for r := 0; r < c.lay.Rings; r++ {
			for s := 0; s < c.lay.PtrSlots; s++ {
				if r == 0 && s == 0 {
					continue
				}
				c.mem.Persist8(c.lay.ringHeadOff(r)+s*pmem.LineSize, 0)
				c.mem.Persist8(c.lay.ringTailOff(r)+s*pmem.LineSize, 0)
			}
		}
	}
	// Clear any stale flight records a previous (differently laid out)
	// image may have left where the new region sits, so Attach after the
	// next crash can never resurrect another lifetime's timeline. Silent:
	// formatting the black box charges nothing observable.
	for s := 0; s < c.lay.FlightSlots; s++ {
		c.mem.PersistLineSilent(c.lay.FlightOff+s*flight.RecordSize, [pmem.LineSize]byte{})
	}
	if c.ckpt != nil {
		c.formatCheckpoint()
	}
	if n := c.lay.headerRings(); n != 0 {
		c.mem.Store8(c.lay.HeaderOff+hdrRings, n)
	}
	c.mem.Store8(c.lay.HeaderOff+hdrVersion, c.lay.version())
	c.mem.Store8(c.lay.HeaderOff+hdrCapacity, uint64(c.lay.Capacity))
	c.mem.Store8(c.lay.HeaderOff+hdrRingSlot, uint64(c.lay.RingSlots))
	c.mem.Store8(c.lay.HeaderOff+hdrPtrSlots, uint64(c.lay.PtrSlots))
	c.mem.Store8(c.lay.HeaderOff+hdrFlight, uint64(c.lay.FlightSlots))
	c.mem.Store8(c.lay.HeaderOff+hdrCkpt, uint64(c.lay.CkptJournalSlots))
	c.mem.CLFlush(c.lay.HeaderOff, pmem.LineSize)
	c.mem.SFence()
	c.mem.Persist8(c.lay.HeaderOff+hdrMagic, layoutMagic)
	for b := c.lay.Capacity - 1; b >= 0; b-- {
		c.alloc.pushBlock(uint32(b))
		c.alloc.pushSlot(int32(b))
	}
}

// Layout exposes the computed NVM layout (for tests and tooling).
func (c *Cache) Layout() Layout { return c.lay }

// RingPointers returns the cache's view of every ring's persistent Head
// and Tail pointers (one element per commit ring; a single pair on the
// paper's layout) — after Open they equal the recovered (durable) values,
// which is what the crash sweep's per-ring blackbox oracle compares flight
// records against.
func (c *Cache) RingPointers() (heads, tails []uint64) {
	heads = make([]uint64, len(c.rings))
	tails = make([]uint64, len(c.rings))
	for r := range c.rings {
		rs := &c.rings[r]
		rs.mu.Lock()
		heads[r], tails[r] = rs.head, rs.tail
		rs.mu.Unlock()
	}
	return heads, tails
}

// flEmit books one flight-recorder event: one nil check when the recorder
// is off, one silent (zero-perturbation) persisted record when on.
func (c *Cache) flEmit(t flight.EventType, shard uint16, gen, block, arg uint64) {
	if c.fl != nil {
		c.fl.Emit(t, shard, gen, block, arg)
	}
}

// Blackbox decodes the flight-recorder region into a forensic report, or
// nil when the recorder is off. Decoding is silent (no simulated time), so
// it is safe to call live — /blackbox scrapes it while the cache serves
// traffic.
func (c *Cache) Blackbox() *flight.Blackbox {
	if c.fl == nil {
		return nil
	}
	return flight.Decode(c.mem, c.lay.FlightOff, c.lay.FlightSlots)
}

// RecoveryStats returns the per-phase breakdown of the recovery pass Open
// ran, or a zero struct (Ran == false) when the device was freshly
// formatted. Populated unconditionally — the struct is plain bookkeeping
// off the simulated clock — so the recovery-breakdown figure does not
// require Observe.
func (c *Cache) RecoveryStats() RecoveryStats { return c.recStats }

// Capacity returns the number of cacheable 4KB blocks.
func (c *Cache) Capacity() int { return c.lay.Capacity }

// FreeBlocks reports how many NVM data blocks are currently unused.
func (c *Cache) FreeBlocks() int {
	return c.alloc.freeBlocks()
}

// readEntry loads and decodes entry slot i from NVM.
func (c *Cache) readEntry(i int32) entry {
	return decodeEntry(c.mem.Load16(c.lay.entryOff(int(i))))
}

// writeEntry persists entry slot i with one 16B store + flush + fence
// (Section 4.2's cmpxchg16b, which entry.go's layout lets tear per 8B
// word). The checkpoint delta journal, when on, records the slot first
// (journal-before-entry; see checkpoint.go).
func (c *Cache) writeEntry(i int32, e entry) {
	c.ckptJournal(int(i))
	c.mem.Persist16(c.lay.entryOff(int(i)), encodeEntry(e))
}

// storeEntry writes and flushes entry slot i without the trailing fence,
// for batch phases that amortize one fence over many entries.
func (c *Cache) storeEntry(i int32, e entry) {
	c.ckptJournal(int(i))
	off := c.lay.entryOff(int(i))
	b := encodeEntry(e)
	c.mem.Store(off, b[:])
	c.mem.CLFlush(off, EntrySize)
}

// clearEntry frees entry slot i: 16 zero bytes, persisted under a fence
// before the slot can be reused (the free-slot rule of entry.go).
func (c *Cache) clearEntry(i int32) {
	c.ckptJournal(int(i))
	c.mem.Persist16(c.lay.entryOff(int(i)), [16]byte{})
}

// allocBlock returns a free NVM data block. When the pool is empty the
// allocating goroutine evicts one victim itself (the paper's synchronous
// behaviour) and retries. Performs no disk I/O unless the pool is empty.
// May be called with or without the ring locks, but never with a shard
// lock held (eviction takes shard locks).
func (c *Cache) allocBlock() (uint32, error) {
	if b, ok := c.alloc.popBlock(); ok {
		return b, nil
	}
	for spin := 0; ; spin++ {
		evicted, saw := c.evictOne()
		if b, ok := c.alloc.popBlock(); ok {
			return b, nil
		}
		if !evicted && !saw {
			// A full scan found nothing evictable: every resident block
			// is pinned or mid-seal. That is a genuine out-of-space
			// condition, not a race.
			return 0, ErrNoSpace
		}
		if spin >= 1<<12 {
			// Livelock backstop: concurrent allocators keep stealing
			// whatever we free. Unreachable in practice.
			return 0, ErrNoSpace
		}
	}
}

// allocSlot returns a free entry-table slot. The entry table has exactly
// one slot per data block and every cached block consumes at least one
// data block, so a successful allocBlock guarantees a slot exists.
func (c *Cache) allocSlot() int32 {
	return c.alloc.popSlot()
}

// allocPair allocates the (data block, entry slot) pair a fill or write
// miss needs. Never called with a shard lock held.
func (c *Cache) allocPair() (uint32, int32, error) {
	b, err := c.allocBlock()
	if err != nil {
		return 0, 0, err
	}
	return b, c.allocSlot(), nil
}

// Read copies the current committed contents of disk block no into p
// (BlockSize bytes). A miss populates the cache from disk (the cache
// serves reads as well as writes, Section 4.6). A hit is ReadView's hit
// (readfast.go) plus a copy: the block is pinned, usually without any
// lock, copied into p and released. Misses on distinct blocks proceed in
// parallel too — the fill's disk read happens before any lock is taken
// and the install is an optimistic first-installer-wins race.
func (c *Cache) Read(no uint64, p []byte) error {
	if len(p) != BlockSize {
		return fmt.Errorf("core: Read buffer must be %d bytes", BlockSize)
	}
	c.checkPoison()
	if c.closed.Load() {
		return ErrClosed
	}
	if no >= c.disk.Blocks() {
		return fmt.Errorf("core: Read of block %d beyond disk (%d blocks): %w",
			no, c.disk.Blocks(), ErrOutOfRange)
	}
	if v, ok := c.hit(no); ok {
		copy(p, v.data)
		v.release()
		return nil
	}
	c.rec.Inc(metrics.CacheReadMiss)
	return c.fillConcurrent(no, p)
}

// maxOptimisticFills bounds how often a concurrent fill retries after
// losing to an eviction-generation bump before switching to the
// pessimistic shard-locked fill.
const maxOptimisticFills = 3

// fillConcurrent is the concurrent miss path: read the disk block before
// taking any lock, then install it with a lost-race check — the first
// installer wins and the loser frees its block and serves the winner's
// (copying it into p; a nil p returns at once and the caller retries its
// hit). An eviction-generation check closes the one window optimism
// leaves open: if an ever-dirty block was evicted from this shard while
// our disk read was in flight, the read may predate that eviction's
// write-back, so the copy is thrown away and the fill retries. After
// repeated losses it degrades to a pessimistic fill that holds the shard
// lock across the disk read.
func (c *Cache) fillConcurrent(no uint64, p []byte) error {
	sh := c.shardOf(no)
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	for attempt := 0; ; attempt++ {
		locked := attempt >= maxOptimisticFills
		var gen uint64
		if !locked {
			gen = sh.evictGen.Load()
			c.disk.ReadBlock(no, buf)
		}
		b, s, err := c.allocPair()
		if err != nil {
			return err
		}
		if !locked {
			// Persist the data before the entry that points at it;
			// otherwise a crash could leave a clean-looking entry over
			// garbage.
			c.mem.PersistRange(c.lay.blockOff(b), buf)
		}
		sh.mu.Lock()
		_, lost := sh.idx.Get(no)
		if lost || (!locked && sh.evictGen.Load() != gen) {
			// Lost the install race (a concurrent fill or a committing
			// transaction beat us to it: first installer wins), or an
			// ever-dirty block left this shard while our disk read was in
			// flight, so the read may be stale. Free our copy.
			sh.mu.Unlock()
			// Slot before block, always: a thread that pops the block may
			// immediately demand a slot, and the free-slot pool must
			// already hold one at that instant (popSlot's invariant).
			c.alloc.pushSlot(s)
			c.alloc.pushBlock(b)
			c.rec.Inc(metrics.CacheFillRace)
			if lost {
				if p == nil {
					return nil
				}
				if v, ok := c.hitLocked(no); ok {
					copy(p, v.data)
					v.release()
					return nil
				}
			}
			continue // evicted again already, or a stale read: start over
		}
		if locked {
			// Holding sh.mu across the disk read excludes every eviction
			// and install in this shard: slow, but guaranteed to finish.
			c.disk.ReadBlock(no, buf)
			c.mem.PersistRange(c.lay.blockOff(b), buf)
		}
		c.beginSlotMutate(s)
		c.writeEntry(s, entry{valid: true, role: RoleBuffer, modified: false, disk: no, prev: Fresh, cur: b})
		c.endSlotMutate(s)
		sh.idx.Put(no, s)
		c.pushFrontLocked(sh, s)
		sh.mu.Unlock()
		if p != nil {
			copy(p, buf)
		}
		return nil
	}
}

// Contains reports whether disk block no is resident (for tests).
func (c *Cache) Contains(no uint64) bool {
	sh := c.shardOf(no)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.idx.Get(no)
	return ok
}

// writeBack writes slot's current contents to disk and clears its
// modified bit: FlushAll's engine. The caller names the (no, slot) pair it
// believes dirty; everything is re-validated under the shard lock, the
// disk write happens outside it under the slot's wb flag (so concurrent
// write-backers of one slot serialize and an older version can never
// land over a newer one), and the modified bit is cleared only if the
// written version is still the current one. Reports whether a disk write
// was performed. buf is BlockSize scratch.
func (c *Cache) writeBack(sh *shard, no uint64, slot int32, buf []byte) bool {
	sh.mu.Lock()
	locked := true
	defer func() {
		if locked {
			sh.mu.Unlock()
		}
	}()
	for sh.wb[slot] {
		sh.wbCond.Wait()
	}
	if i, ok := sh.idx.Get(no); !ok || i != slot {
		return false // evicted (and possibly reused) since enqueue
	}
	e := c.readEntry(slot)
	if !e.valid || e.role == RoleLog || !e.modified {
		return false
	}
	c.mem.Load(c.lay.blockOff(e.cur), buf)
	sh.wb[slot] = true
	locked = false
	sh.mu.Unlock()
	c.disk.WriteBlock(no, buf)
	sh.mu.Lock()
	locked = true
	delete(sh.wb, slot)
	sh.wbCond.Broadcast()
	if i, ok := sh.idx.Get(no); !ok || i != slot {
		return true // evicted while in flight; the write was harmless
	}
	// A commit may have COWed a newer version while ours was in flight:
	// then the entry stays dirty and the NVM remains authoritative.
	if e2 := c.readEntry(slot); e2.valid && e2.role != RoleLog && e2.modified && e2.cur == e.cur {
		e2.modified = false
		c.beginSlotMutate(slot)
		c.writeEntry(slot, e2)
		c.endSlotMutate(slot)
	}
	return true
}

// FlushAll writes every dirty cached block back to disk and marks it
// clean. It is the orderly-shutdown / drain path; crash consistency never
// depends on it. The dirty set is snapshotted per shard under the shard
// lock and written back outside it, so reads and commits keep flowing
// while the flush's disk writes are in flight; writeBack re-validates
// every item before clearing its modified bit.
func (c *Cache) FlushAll() error {
	if c.closed.Load() {
		return ErrClosed
	}
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	type item struct {
		no   uint64
		slot int32
	}
	var dirty []item
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		dirty = dirty[:0]
		sh.idx.Range(func(no uint64, i int32) bool {
			if e := c.readEntry(i); e.modified && e.role != RoleLog {
				dirty = append(dirty, item{no: no, slot: i})
			}
			return true
		})
		sh.mu.Unlock()
		for _, it := range dirty {
			c.writeBack(sh, it.no, it.slot, buf)
		}
	}
	return nil
}

// Close flushes dirty data and rejects further use.
func (c *Cache) Close() error {
	if err := c.FlushAll(); err != nil {
		return err
	}
	c.closed.Store(true)
	// Barrier: wait for any in-flight commit to finish before Close
	// returns (every seal runs under its ring locks).
	c.lockRings()
	c.unlockRings() // the empty critical section is the barrier
	return nil
}
