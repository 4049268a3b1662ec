// Package stack assembles the two storage stacks the paper evaluates
// (Section 5.1) plus the no-journal baseline used by the motivation
// figures:
//
//	Tinca:            FS ──txn──▶ Tinca cache (NVM) ──▶ disk
//	Classic:          FS ──▶ JBD2-style journal ──▶ Flashcache-style cache (NVM) ──▶ disk
//	ClassicNoJournal: FS ──▶ in-place writes ──▶ Flashcache-style cache (NVM) ──▶ disk
//
// A Stack owns the simulated clock and metrics recorder shared by every
// layer, and provides crash + remount entry points for the recoverability
// harness.
package stack

import (
	"fmt"
	"math/rand"
	"net/http"

	"tinca/internal/blockdev"
	"tinca/internal/classic"
	"tinca/internal/core"
	"tinca/internal/fs"
	"tinca/internal/jbd"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// JournalMode selects how the Classic stack's journal treats file data,
// mirroring ext4's mount options.
type JournalMode int

const (
	// DataJournal logs both metadata and data (ext4 data=journal, the
	// paper's configuration: full data consistency, maximal double
	// writes).
	DataJournal JournalMode = iota
	// Ordered logs only metadata; file data is written in place *before*
	// the transaction commits (ext4 data=ordered, the default in the
	// field: metadata consistency, no stale-data exposure, but file
	// contents are not atomic across a crash).
	Ordered
)

func (m JournalMode) String() string {
	if m == Ordered {
		return "ordered"
	}
	return "data-journal"
}

// Kind selects the stack flavour.
type Kind int

const (
	// Tinca is the paper's system: the file system uses the cache's
	// transactional primitives; no journal exists.
	Tinca Kind = iota
	// Classic is the competitor: Ext4-style data journalling over a
	// Flashcache-style NVM cache.
	Classic
	// ClassicNoJournal is Classic with journalling disabled (in-place
	// writes), the crash-unsafe baseline of Figures 3 and 4.
	ClassicNoJournal
)

func (k Kind) String() string {
	switch k {
	case Tinca:
		return "Tinca"
	case Classic:
		return "Classic"
	case ClassicNoJournal:
		return "Classic-nojournal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config sizes and parameterizes a stack. Zero values pick defaults
// suitable for fast laptop-scale experiments.
//
// The Tinca cache's knobs are the embedded core.Options, declared once
// and promoted: cfg.RingBytes, cfg.SealWaitNS, cfg.CommitRings,
// cfg.FlightRecorder and the rest read and write the embedded struct
// directly, so existing field-access code keeps working. (Composite
// literals name the embedded struct: Config{Options: core.Options{...}}.)
// Two of the embedded knobs apply beyond the Tinca kind: Observe enables
// latency histograms in every layer, and Tracer records their spans.
//
// Every knob has at least two callers that want different values; a
// value no caller varies is a constant below (fsOpCostNS, checkpointFrac)
// or a default derived inside its layer.
type Config struct {
	Kind        Kind
	NVMBytes    int              // NVM cache size (default 32MB)
	NVMProfile  pmem.Profile     // default PCM (the paper's default)
	DiskProfile blockdev.Profile // default SSD
	FSBlocks    uint64           // file-system span in 4KB blocks (default 32768 = 128MB)

	// Tinca cache knobs (plus Observe/Tracer, which apply to
	// every kind), embedded from the core so they are declared exactly
	// once. See core.Options for each field's documentation.
	core.Options

	// Classic knobs. JournalMode applies to the Classic kind; the two
	// ablations to both Classic kinds.
	JournalMode       JournalMode // DataJournal (paper default) or Ordered
	JournalBlocks     uint64      // journal area length (default 4096 = 16MB)
	NoMetaUpdates     bool        // Figure 4 ablation
	NoPersistBarriers bool        // Figure 3(b) ablation

	// File-system knobs (every kind).
	GroupCommitBlocks     int
	GroupCommitIntervalNS int64
}

const (
	// fsOpCostNS is the per-operation CPU cost (syscall + VFS path) the
	// file system charges to the simulated clock.
	fsOpCostNS = 2000
	// checkpointFrac is the journal fill fraction past which the Classic
	// stack checkpoints, modelling JBD2's background flush that keeps the
	// journal from filling.
	checkpointFrac = 0.5
)

// Validate reports a descriptive error for a nonsensical configuration
// instead of silently clamping it. New runs it (after applying defaults)
// so mistakes surface at construction, not as misbehavior later. The zero
// Config is always valid.
func (c Config) Validate() error {
	if c.Kind < Tinca || c.Kind > ClassicNoJournal {
		return fmt.Errorf("stack: unknown kind %v", c.Kind)
	}
	if c.NVMBytes < 0 {
		return fmt.Errorf("stack: NVMBytes %d is negative", c.NVMBytes)
	}
	if c.NVMBytes > 0 && c.NVMBytes < 1<<20 {
		return fmt.Errorf("stack: NVMBytes %d is too small for a cache layout (need at least 1MB)", c.NVMBytes)
	}
	if c.Kind == Tinca {
		if err := c.Options.Validate(); err != nil {
			return err
		}
	}
	if c.JournalMode < DataJournal || c.JournalMode > Ordered {
		return fmt.Errorf("stack: unknown journal mode %d", int(c.JournalMode))
	}
	if err := c.checkKindKnobs(); err != nil {
		return err
	}
	if c.GroupCommitBlocks < 0 {
		return fmt.Errorf("stack: GroupCommitBlocks %d is negative", c.GroupCommitBlocks)
	}
	if c.GroupCommitIntervalNS < 0 {
		return fmt.Errorf("stack: GroupCommitIntervalNS %d is negative", c.GroupCommitIntervalNS)
	}
	return nil
}

// checkKindKnobs rejects a knob set on a kind that never reads it: the
// cache knobs embedded from core.Options (bar Observe and Tracer) belong
// to the Tinca kind, the two cache ablations to both Classic kinds,
// and JournalMode to the Classic kind's journal.
func (c Config) checkKindKnobs() error {
	o := c.Options
	tinca := c.Kind == Tinca
	for _, k := range []struct {
		name  string
		set   bool
		wrong bool   // c.Kind never reads the knob
		kinds string // the kinds that do
	}{
		{"RingBytes", o.RingBytes != 0, !tinca, "the Tinca kind"},
		{"Ablation", o.Ablation != core.AblationNone, !tinca, "the Tinca kind"},
		{"RotatePointers", o.RotatePointers, !tinca, "the Tinca kind"},
		{"SealWaitNS", o.SealWaitNS != 0, !tinca, "the Tinca kind"},
		{"Fault", o.Fault != core.FaultNone, !tinca, "the Tinca kind"},
		{"SealHook", o.SealHook != nil, !tinca, "the Tinca kind"},
		{"FlightRecorder", o.FlightRecorder, !tinca, "the Tinca kind"},
		{"CheckpointIntervalNS", o.CheckpointIntervalNS != 0, !tinca, "the Tinca kind"},
		{"CommitRings", o.CommitRings != 0, !tinca, "the Tinca kind"},
		{"JournalMode", c.JournalMode != DataJournal, c.Kind != Classic, "the Classic kind"},
		{"NoMetaUpdates", c.NoMetaUpdates, tinca, "the Classic kinds"},
		{"NoPersistBarriers", c.NoPersistBarriers, tinca, "the Classic kinds"},
	} {
		if k.set && k.wrong {
			return fmt.Errorf("stack: %s applies only to %s, not %v", k.name, k.kinds, c.Kind)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.NVMBytes == 0 {
		c.NVMBytes = 32 << 20
	}
	if c.NVMProfile.Name == "" {
		c.NVMProfile = pmem.PCM
	}
	if c.DiskProfile.Name == "" {
		c.DiskProfile = blockdev.SSD
	}
	if c.FSBlocks == 0 {
		c.FSBlocks = 32768
	}
	if c.JournalBlocks == 0 {
		c.JournalBlocks = 4096
	}
	return c
}

// Stack is a fully assembled storage stack.
type Stack struct {
	Cfg   Config
	Clock *sim.Clock
	Rec   *metrics.Recorder
	Mem   *pmem.Device
	Disk  *blockdev.Device

	TCache  *core.Cache    // non-nil for Tinca
	CCache  *classic.Cache // non-nil for Classic*
	Journal *jbd.Journal   // non-nil for Classic
	FS      *fs.FS

	// Tracer is the span ring Cfg.Tracer set; nil otherwise. It survives
	// Crash/Remount (spans are DRAM-side diagnostics, not simulated
	// state).
	Tracer *metrics.Tracer

	metricsSrv *http.Server // non-nil while ServeMetrics is live
}

// New builds a stack with a freshly formatted file system. The config is
// validated eagerly: a nonsensical combination returns a descriptive
// error before any device is created.
func New(cfg Config) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Tracer != nil {
		cfg.Observe = true
	}
	s := &Stack{
		Cfg:    cfg,
		Clock:  sim.NewClock(),
		Rec:    metrics.NewRecorder(),
		Tracer: cfg.Tracer,
	}
	s.Mem = pmem.New(cfg.NVMBytes, cfg.NVMProfile, s.Clock, s.Rec)
	s.Disk = blockdev.New(cfg.FSBlocks+cfg.JournalBlocks, cfg.DiskProfile, s.Clock, s.Rec)
	return s, s.bringUp(true)
}

// bringUp opens (or re-opens, running recovery) every layer. format
// chooses Format vs Mount for the file system.
func (s *Stack) bringUp(format bool) error {
	cfg := s.Cfg
	s.Mem.Observe(cfg.Observe)
	fsOpts := fs.Options{
		GroupCommitBlocks:     cfg.GroupCommitBlocks,
		GroupCommitIntervalNS: cfg.GroupCommitIntervalNS,
		Clock:                 s.Clock,
		OpCostNS:              fsOpCostNS,
		Rec:                   s.Rec,
		Observe:               cfg.Observe,
	}
	var backend fs.Backend
	switch cfg.Kind {
	case Tinca:
		copts := cfg.Options
		copts.Tracer = s.Tracer
		c, err := core.Open(s.Mem, s.Disk, copts)
		if err != nil {
			return err
		}
		s.TCache = c
		backend = &tincaBackend{c: c}

	case Classic, ClassicNoJournal:
		copts := classic.Options{
			NoMetaUpdates:     cfg.NoMetaUpdates,
			NoPersistBarriers: cfg.NoPersistBarriers,
		}
		if cfg.Kind == Classic {
			copts.JournalBoundary = cfg.FSBlocks
		}
		cc, err := classic.Open(s.Mem, s.Disk, copts)
		if err != nil {
			return err
		}
		s.CCache = cc
		if cfg.Kind == Classic {
			j, err := jbd.Open(cc, s.Rec, jbd.Options{
				Start:   cfg.FSBlocks,
				Blocks:  cfg.JournalBlocks,
				Observe: cfg.Observe,
				Clock:   s.Clock,
			})
			if err != nil {
				return err
			}
			s.Journal = j
			backend = &journalBackend{j: j, cc: cc, ordered: cfg.JournalMode == Ordered}
		} else {
			backend = &directBackend{store: cc}
		}

	default:
		return fmt.Errorf("stack: unknown kind %v", cfg.Kind)
	}

	var err error
	if format {
		s.FS, err = fs.Format(backend, cfg.FSBlocks, 0, fsOpts)
	} else {
		s.FS, err = fs.Mount(backend, fsOpts)
	}
	if err != nil {
		return err
	}
	if jb, ok := backend.(*journalBackend); ok && jb.ordered {
		_, _, dataStart := s.FS.Geometry()
		jb.SetMetadataBoundary(dataStart)
	}
	return nil
}

// Close flushes every layer down to the disk and stops the metrics
// endpoint if one is serving.
func (s *Stack) Close() error {
	s.CloseMetrics()
	return s.FS.Close()
}

// Stats is a typed snapshot across the stack's layers. Cache is populated
// for the Tinca kind only (the Classic cache keeps its own counters in
// the shared Recorder, still reachable via Stack.Rec); Device is
// populated for every kind.
type Stats struct {
	Kind   Kind
	Cache  core.CacheStats // zero value for Classic kinds
	FS     fs.FSStats
	Device DeviceStats
	// SimulatedNS is the simulated clock reading, the denominator for
	// throughput computations.
	SimulatedNS int64
}

// DeviceStats are the simulated-hardware counters the paper's evaluation
// reports: NVM persistence traffic and disk block I/O. They are cumulative
// since Stack creation; subtract two snapshots to meter an interval.
type DeviceStats struct {
	CLFlushes       int64 // NVM cache lines flushed
	SFences         int64 // NVM store fences
	NVMBytesWritten int64
	NVMBytesRead    int64
	DiskBlocksWrite int64
	DiskBlocksRead  int64
	DiskBytesWrite  int64
	DiskBytesRead   int64
}

// Sub returns the counter deltas d-prev, for metering an interval between
// two Stats snapshots.
func (d DeviceStats) Sub(prev DeviceStats) DeviceStats {
	return DeviceStats{
		CLFlushes:       d.CLFlushes - prev.CLFlushes,
		SFences:         d.SFences - prev.SFences,
		NVMBytesWritten: d.NVMBytesWritten - prev.NVMBytesWritten,
		NVMBytesRead:    d.NVMBytesRead - prev.NVMBytesRead,
		DiskBlocksWrite: d.DiskBlocksWrite - prev.DiskBlocksWrite,
		DiskBlocksRead:  d.DiskBlocksRead - prev.DiskBlocksRead,
		DiskBytesWrite:  d.DiskBytesWrite - prev.DiskBytesWrite,
		DiskBytesRead:   d.DiskBytesRead - prev.DiskBytesRead,
	}
}

// Add returns the counter sums d+o, for aggregating across stacks (e.g. a
// cluster of nodes).
func (d DeviceStats) Add(o DeviceStats) DeviceStats {
	return DeviceStats{
		CLFlushes:       d.CLFlushes + o.CLFlushes,
		SFences:         d.SFences + o.SFences,
		NVMBytesWritten: d.NVMBytesWritten + o.NVMBytesWritten,
		NVMBytesRead:    d.NVMBytesRead + o.NVMBytesRead,
		DiskBlocksWrite: d.DiskBlocksWrite + o.DiskBlocksWrite,
		DiskBlocksRead:  d.DiskBlocksRead + o.DiskBlocksRead,
		DiskBytesWrite:  d.DiskBytesWrite + o.DiskBytesWrite,
		DiskBytesRead:   d.DiskBytesRead + o.DiskBytesRead,
	}
}

// Stats returns a typed snapshot of the stack's counters. It replaces
// string-keyed Recorder lookups for the common cases; Rec remains
// available for everything else.
func (s *Stack) Stats() Stats {
	st := Stats{Kind: s.Cfg.Kind, SimulatedNS: int64(s.Clock.Now())}
	if s.TCache != nil {
		st.Cache = s.TCache.Stats()
	}
	if s.FS != nil {
		st.FS = s.FS.Stats()
	}
	st.Device = DeviceStats{
		CLFlushes:       s.Rec.Get(metrics.NVMCLFlush),
		SFences:         s.Rec.Get(metrics.NVMSFence),
		NVMBytesWritten: s.Rec.Get(metrics.NVMBytesWrite),
		NVMBytesRead:    s.Rec.Get(metrics.NVMBytesRead),
		DiskBlocksWrite: s.Rec.Get(metrics.DiskBlocksWrite),
		DiskBlocksRead:  s.Rec.Get(metrics.DiskBlocksRead),
		DiskBytesWrite:  s.Rec.Get(metrics.DiskBytesWrite),
		DiskBytesRead:   s.Rec.Get(metrics.DiskBytesRead),
	}
	return st
}

// Crash simulates a power failure: everything un-flushed in NVM is lost
// (modulo random cache-line evictions drawn from r) and all DRAM state
// disappears.
func (s *Stack) Crash(r *rand.Rand, evictP float64) {
	s.Mem.Crash(r, evictP)
	s.TCache, s.CCache, s.Journal, s.FS = nil, nil, nil, nil
}

// Remount brings the stack back up after Crash, running each layer's
// recovery (Tinca's Section 4.5 algorithm, or Classic's journal replay).
func (s *Stack) Remount() error { return s.bringUp(false) }

// ---- backends -----------------------------------------------------------

// tincaBackend maps file-system transactions 1:1 onto Tinca commits.
type tincaBackend struct{ c *core.Cache }

func (b *tincaBackend) ReadBlock(no uint64, p []byte) error { return b.c.Read(no, p) }
func (b *tincaBackend) Begin() fs.BackendTxn                { return &tincaTxn{t: b.c.Begin()} }
func (b *tincaBackend) Sync() error                         { return nil } // commits are already durable
func (b *tincaBackend) Close() error                        { return b.c.Close() }

// ConcurrentReads advertises fs.ConcurrentReader: the Tinca cache's read
// path is lock-striped and safe to call concurrently with commits, so the
// file system may serve data reads under its shared lock. The journal and
// direct backends do not implement the interface — their caches serialize
// internally, and the paper's Classic stack is measured fully serialized.
func (b *tincaBackend) ConcurrentReads() bool { return true }

// ReadBlockView implements fs.ViewReader over the cache's zero-copy
// ReadView: the returned view aliases the pinned NVM block (*core.View
// satisfies fs.BlockView directly).
func (b *tincaBackend) ReadBlockView(no uint64) (fs.BlockView, error) {
	v, err := b.c.ReadView(no)
	if err != nil {
		return nil, err
	}
	return &v, nil
}

type tincaTxn struct{ t *core.Txn }

func (t *tincaTxn) Write(no uint64, data []byte) { t.t.Write(no, data) }

// Revoke is a no-op for Tinca: a freed block's stale cached contents are
// harmless (the block is only read again after being re-allocated and
// re-written, and Tinca's commit makes the rewrite durable first).
func (t *tincaTxn) Revoke(uint64) {}
func (t *tincaTxn) Commit() error { return t.t.Commit() }
func (t *tincaTxn) Abort()        { t.t.Abort() }

// journalBackend routes transactions through the redo journal (Classic).
// In ordered mode only metadata blocks are journalled; data blocks are
// written to their home locations before the commit record, as ext4
// data=ordered does.
type journalBackend struct {
	j        *jbd.Journal
	cc       *classic.Cache
	ordered  bool
	metaNext uint64 // first data-area block (set by SetMetadataBoundary)
}

// SetMetadataBoundary tells the backend where the file system's data area
// starts, so ordered mode can tell metadata from data blocks.
func (b *journalBackend) SetMetadataBoundary(dataStart uint64) { b.metaNext = dataStart }

func (b *journalBackend) ReadBlock(no uint64, p []byte) error { return b.j.ReadBlock(no, p) }
func (b *journalBackend) Begin() fs.BackendTxn                { return &journalTxn{b: b} }
func (b *journalBackend) Sync() error                         { return b.j.MaybeCheckpoint(checkpointFrac) }
func (b *journalBackend) Close() error {
	if err := b.j.Close(); err != nil {
		return err
	}
	return b.cc.Close()
}

type journalTxn struct {
	b       *journalBackend
	updates []jbd.Update
	revoked []uint64
}

func (t *journalTxn) Write(no uint64, data []byte) {
	d := make([]byte, len(data))
	copy(d, data)
	t.updates = append(t.updates, jbd.Update{No: no, Data: d})
}

func (t *journalTxn) Revoke(no uint64) { t.revoked = append(t.revoked, no) }

func (t *journalTxn) Commit() error {
	updates := t.updates
	if t.b.ordered && t.b.metaNext > 0 {
		// Ordered mode: write data blocks home first, then journal only
		// the metadata blocks. The data-before-commit ordering is what
		// keeps metadata from referencing unwritten (stale) blocks.
		meta := updates[:0:0]
		for _, u := range updates {
			if u.No >= t.b.metaNext {
				if err := t.b.cc.WriteBlock(u.No, u.Data); err != nil {
					return err
				}
				continue
			}
			meta = append(meta, u)
		}
		updates = meta
	}
	if err := t.b.j.CommitTxn(jbd.Txn{Updates: updates, Revoked: t.revoked}); err != nil {
		return err
	}
	return t.b.j.MaybeCheckpoint(checkpointFrac)
}

func (t *journalTxn) Abort() { t.updates = nil }

// directBackend writes in place with no journal (crash-unsafe baseline).
type directBackend struct{ store jbd.BlockStore }

func (b *directBackend) ReadBlock(no uint64, p []byte) error { return b.store.ReadBlock(no, p) }
func (b *directBackend) Begin() fs.BackendTxn                { return &directTxn{b: b} }
func (b *directBackend) Sync() error                         { return nil }
func (b *directBackend) Close() error {
	if c, ok := b.store.(*classic.Cache); ok {
		return c.Close()
	}
	return nil
}

type directTxn struct {
	b       *directBackend
	updates []jbd.Update
}

func (t *directTxn) Write(no uint64, data []byte) {
	d := make([]byte, len(data))
	copy(d, data)
	t.updates = append(t.updates, jbd.Update{No: no, Data: d})
}

// Revoke is a no-op without a journal.
func (t *directTxn) Revoke(uint64) {}

func (t *directTxn) Commit() error {
	for _, u := range t.updates {
		if err := t.b.store.WriteBlock(u.No, u.Data); err != nil {
			return err
		}
	}
	return nil
}

func (t *directTxn) Abort() { t.updates = nil }
