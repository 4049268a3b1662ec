// Package tinca is the public API of the Tinca reproduction: a
// transactional NVM disk cache with high performance and crash consistency
// (Wei et al., SC '17), together with every substrate the paper's
// evaluation depends on — a persistence-accurate NVM simulator, SSD/HDD
// models, a Flashcache-style baseline cache, a JBD2-style journal, a
// 4KB-block file system with pluggable consistency backends, TPC-C and
// Filebench/Fio/TeraGen workload generators, and HDFS/GlusterFS-like
// cluster substrates.
//
// # Quick start
//
//	sys, err := tinca.NewStack(tinca.StackConfig{Kind: tinca.KindTinca})
//	if err != nil { ... }
//	defer sys.Close()
//	err = sys.FS.WriteFile("/hello", []byte("crash-consistent"))
//
// Every write is committed through Tinca's transactional primitives
// (Section 4.4 of the paper): staged blocks are persisted once (no double
// writes), sealed by the ring-buffer Tail pointer, and recoverable after a
// power failure via sys.Crash / sys.Remount.
//
// # Concurrency and group commit
//
// The Cache and the Stack's FS are safe for concurrent use. Data-path
// reads run under lock-striped shards and an FS read lock, so they scale
// across goroutines; concurrently arriving Txn.Commit calls coalesce into
// a single ring-buffer seal — one Tail flip and a handful of fences
// amortized over the whole batch, with duplicate blocks absorbed into one
// NVM write. One seal coalesces up to eight transactions; the SealWaitNS
// knob in CacheOptions (and StackConfig) optionally holds the seal leader
// back (real time) so a batch can fill, trading commit latency for
// throughput:
//
//	sys, err := tinca.NewStack(tinca.StackConfig{
//		Kind:    tinca.KindTinca,
//		Options: tinca.CacheOptions{SealWaitNS: 20_000},
//	})
//
// The zero value seals opportunistically and is right for most workloads.
// Configurations are validated eagerly: OpenCache and NewStack return
// descriptive errors for nonsensical combinations (including a knob the
// chosen stack kind never reads) instead of silently clamping.
//
// # Observability
//
// Each layer exposes a typed stats API — Cache.Stats, FS.Stats and
// Stack.Stats return exported structs (CacheStats, FSStats, StackStats):
//
//	st := sys.Stats()
//	fmt.Printf("commits=%d seals=%d avg batch=%.1f\n",
//		st.Cache.Commits, st.Cache.GroupSeals, st.Cache.AvgGroupSize())
//
// The Stats structs read a Recorder: one registry per stack whose
// counters are fixed slots named by typed IDs, so every layer counts
// with one atomic add and a misspelt counter does not compile.
//
// Deeper visibility is opt-in via StackConfig (DESIGN.md Section 9):
// Observe enables latency histograms in every layer (commit pipeline
// phases, eviction, recovery, journal, per-op FS read/write), surfaced as
// LatencySummary values in the Stats structs; a Tracer (NewTracer) records
// spans exported as Chrome trace_event JSON (Stack.Tracer); and
// Stack.ServeMetrics starts a live HTTP endpoint with Prometheus text
// /metrics and net/http/pprof. All of it charges zero simulated time —
// enabling observability never changes the simulated results.
//
// CacheOptions.FlightRecorder additionally keeps a crash-surviving black
// box in the NVM image itself (DESIGN.md Section 13): a ring of
// checksummed 64-byte event records written with silent persists, decoded
// after a power failure via Cache.Blackbox, tincacrash -blackbox, or a
// live stack's /blackbox endpoint. Cache.RecoveryStats reports the last
// remount's Section 4.5 recovery pass broken down by phase.
//
// # Layers
//
// The exported names below are curated aliases over the implementation
// packages, so downstream users never import internal paths:
//
//   - Cache / CacheOptions / Txn — the paper's contribution itself
//     (Section 4): Begin/Write/Commit/Abort over an NVM device.
//   - NVM / NVMProfile — byte-addressable NVM with cache-line volatility,
//     clflush/sfence accounting and crash-image generation.
//   - Disk / DiskProfile — SSD and HDD service-time models.
//   - FS — the Ext4 stand-in, mountable over Tinca, a journal, or raw
//     in-place writes.
//   - Stack / StackConfig — fully assembled systems (Tinca vs Classic).
//   - Cluster / HDFS / Volume — the Section 5.3 distributed substrates.
//   - Experiments — regenerate every table and figure (see cmd/tincabench).
package tinca

import (
	"tinca/internal/blockdev"
	"tinca/internal/classic"
	"tinca/internal/cluster"
	"tinca/internal/core"
	"tinca/internal/errs"
	"tinca/internal/exp"
	"tinca/internal/flight"
	"tinca/internal/fs"
	"tinca/internal/jbd"
	"tinca/internal/metrics"
	"tinca/internal/oltp"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
	"tinca/internal/workload"
)

// BlockSize is the 4KB block unit shared by every layer.
const BlockSize = blockdev.BlockSize

// ---- the core contribution ------------------------------------------------

// Cache is the transactional NVM disk cache (paper Section 4). Create one
// with OpenCache over an NVM device and a disk, or let NewStack assemble
// the full system.
type Cache = core.Cache

// CacheOptions configure a Cache (ring size, commit rings, background
// eviction, checkpoints, ablation cost hooks).
type CacheOptions = core.Options

// Txn is a running Tinca transaction (tinca_init_txn/tinca_commit/
// tinca_abort of the paper map to Cache.Begin/Txn.Commit/Txn.Abort).
type Txn = core.Txn

// View is a zero-copy window onto one cached disk block, returned by
// Cache.ReadView: on a hit its Bytes alias the pinned NVM block (no 4KB
// copy, no allocation) and stay a stable snapshot until Close, even
// across concurrent commits and evictions. Only a block freshly written
// by a seal still in flight comes as a private copy. Cache.Read serves a
// hit through the same pinned view, copying it out and releasing it at
// once. See also FS.ReadAtView / FileView for the file-level equivalent.
type View = core.View

// Cross-layer error sentinels. Each layer wraps these in its own
// descriptive error (core.ErrClosed, fs.ErrReadRange, ...), so
// errors.Is(err, tinca.ErrOutOfRange) matches the condition wherever in
// the stack it arose.
var (
	// ErrClosed: the cache (or a layer above it) was used after Close.
	ErrClosed = errs.ErrClosed
	// ErrOutOfRange: a block number, offset or buffer size outside the
	// valid range (including fs reads at or past EOF).
	ErrOutOfRange = errs.ErrOutOfRange
	// ErrViewExpired: a View/FileView used after its Close.
	ErrViewExpired = errs.ErrViewExpired
)

// OpenCache formats or recovers (paper Section 4.5) a Tinca cache.
func OpenCache(mem *NVM, disk *Disk, opts CacheOptions) (*Cache, error) {
	return core.Open(mem, disk, opts)
}

// CacheStats is the typed counter snapshot returned by Cache.Stats.
type CacheStats = core.CacheStats

// Ablation cost hooks on the commit seal, for the design-choice benches.
const (
	AblationNone        = core.AblationNone
	AblationDoubleWrite = core.AblationDoubleWrite
	AblationUBJ         = core.AblationUBJ
)

// ---- devices ----------------------------------------------------------------

// NVM is the simulated byte-addressable non-volatile memory device.
type NVM = pmem.Device

// NVMProfile selects the NVM technology latencies (Table 1).
type NVMProfile = pmem.Profile

// NVM technology profiles.
var (
	PCM    = pmem.PCM
	STTRAM = pmem.STTRAM
	NVDIMM = pmem.NVDIMM
)

// CLWBVariant derives a profile with the cheaper clwb write-back
// instruction in place of clflush (Section 2.1 of the paper).
var CLWBVariant = pmem.CLWBVariant

// Banks derives a profile whose persistence-relevant operations overlap
// up to depth concurrent issuers (DIMM write-bank parallelism) — the
// persist-side analogue of the channel parallelism concurrent reads get.
// Pair it with CacheOptions.CommitRings to let independent per-shard ring
// seals overlap their persists.
var Banks = pmem.Banks

// NewNVM creates an NVM device charging the given clock and recorder.
func NewNVM(size int, prof NVMProfile, clock *Clock, rec *Recorder) *NVM {
	return pmem.New(size, prof, clock, rec)
}

// CatchCrash runs fn, absorbing an injected-crash panic from an armed NVM
// device (see NVM.ArmCrash); use it to build crash-consistency harnesses.
var CatchCrash = pmem.CatchCrash

// Disk is a simulated block device.
type Disk = blockdev.Device

// DiskProfile selects the disk medium service times.
type DiskProfile = blockdev.Profile

// Disk media profiles.
var (
	SSD      = blockdev.SSD
	HDD      = blockdev.HDD
	NullDisk = blockdev.Null
)

// NewDisk creates a block device of nblocks 4KB blocks.
func NewDisk(nblocks uint64, prof DiskProfile, clock *Clock, rec *Recorder) *Disk {
	return blockdev.New(nblocks, prof, clock, rec)
}

// ---- instrumentation --------------------------------------------------------

// Clock is the simulated clock all devices charge service time to.
type Clock = sim.Clock

// NewClock returns a clock at time zero.
var NewClock = sim.NewClock

// Recorder is the counter and histogram registry the devices, caches and
// file systems of one stack charge (clflush, sfence, disk blocks,
// commits, ...). Pass it to NewNVM/NewDisk; read it through the typed
// Stats accessors — Cache.Stats, FS.Stats and Stack.Stats.
type Recorder = metrics.Recorder

// NewRecorder returns a registry with every counter at zero.
var NewRecorder = metrics.NewRecorder

// LatencySummary is a percentile digest (count/mean/p50/p95/p99/max, in
// simulated ns) of one latency histogram; CacheStats and FSStats carry
// them when the stack was built with Observe.
type LatencySummary = metrics.LatencySummary

// PhaseLatency names one commit-pipeline phase's latency digest
// (CacheStats.CommitPhases).
type PhaseLatency = core.PhaseLatency

// Tracer is the fixed-size ring of structured span events recording the
// commit pipeline's phases; export it with WriteChromeTrace for
// chrome://tracing / Perfetto. Allocate one with NewTracer and pass it
// as StackConfig's Tracer (Stack.Tracer then returns it).
type Tracer = metrics.Tracer

// NewTracer allocates a span ring of n events (rounded up to a power of
// two; n <= 0 picks the 65536-event default).
var NewTracer = metrics.NewTracer

// TraceInstant is a point-in-time marker merged into the Chrome trace
// export via Tracer.WriteChromeTraceWith — used for the NVM flight
// recorder's event timeline (CacheOptions.FlightRecorder).
type TraceInstant = metrics.Instant

// FlightRecord is one decoded 64-byte event from the crash-surviving NVM
// flight ring; FlightBlackbox is the forensic digest Cache.Blackbox
// returns (last sealed generation, txns in flight, event timeline). See
// DESIGN.md §13.
type (
	FlightRecord   = flight.Record
	FlightBlackbox = flight.Blackbox
)

// RecoveryStats is the per-phase breakdown of the last §4.5 recovery pass
// (Cache.RecoveryStats). Populated by every remount, Observe or not.
type RecoveryStats = core.RecoveryStats

// Frequently needed counter names; the full list lives in the metrics
// package documentation.
const (
	CounterCLFlush         = metrics.NVMCLFlush
	CounterSFence          = metrics.NVMSFence
	CounterDiskBlocksWrite = metrics.DiskBlocksWrite
	CounterDiskBlocksRead  = metrics.DiskBlocksRead
	CounterTxnCommit       = metrics.TxnCommit
	CounterTxnBlocks       = metrics.TxnBlocks
)

// ---- baseline stack pieces ---------------------------------------------------

// ClassicCache is the Flashcache-style baseline cache (block-format
// metadata, synchronous updates).
type ClassicCache = classic.Cache

// ClassicOptions configure the baseline cache.
type ClassicOptions = classic.Options

// Journal is the JBD2-style redo journal used by the Classic stack.
type Journal = jbd.Journal

// JournalOptions configure the journal area.
type JournalOptions = jbd.Options

// ---- file system --------------------------------------------------------------

// FS is the 4KB-block file system (the Ext4 stand-in). Obtain one from a
// Stack, or mount your own over any Backend.
type FS = fs.FS

// FSOptions configure mounting (group commit, op cost, observability).
type FSOptions = fs.Options

// FileInfo describes a file or directory.
type FileInfo = fs.FileInfo

// FSStats is the typed operation snapshot returned by FS.Stats.
type FSStats = fs.FSStats

// FileView is a zero-copy window onto a contiguous byte range of one
// file, returned by FS.ReadAtView (and File.ReadAtView). On a
// Tinca-backed stack committed bytes alias the pinned NVM block; other
// backends (and holes or staged bytes) degrade to private copies.
type FileView = fs.FileView

// Common file-system errors.
var (
	ErrNotExist = fs.ErrNotExist
	ErrExist    = fs.ErrExist
	ErrNoSpace  = fs.ErrNoSpace
	// ErrReadRange: a read at or past EOF; wraps ErrOutOfRange.
	ErrReadRange = fs.ErrReadRange
)

// ---- assembled stacks -----------------------------------------------------------

// Stack is a fully assembled storage system: file system over cache over
// NVM over disk, with shared clock and metrics.
type Stack = stack.Stack

// StackConfig sizes and parameterizes a Stack.
type StackConfig = stack.Config

// Stack kinds.
const (
	KindTinca            = stack.Tinca
	KindClassic          = stack.Classic
	KindClassicNoJournal = stack.ClassicNoJournal
)

// StackStats aggregates per-layer stats; returned by Stack.Stats.
type StackStats = stack.Stats

// DeviceStats are the typed simulated-hardware counters (NVM persistence
// traffic, disk block I/O) in StackStats.Device; Cluster.Stats returns
// their sum across nodes. Subtract snapshots with Sub to meter an
// interval.
type DeviceStats = stack.DeviceStats

// NewStack builds a stack with a freshly formatted file system.
var NewStack = stack.New

// ---- workloads --------------------------------------------------------------------

// Workload generator types (Table 2 of the paper).
type (
	// FioConfig parameterizes the random-I/O micro-benchmark.
	FioConfig = workload.FioConfig
	// FilebenchConfig parameterizes the fileserver/webproxy/varmail
	// personalities.
	FilebenchConfig = workload.FilebenchConfig
	// TeraGenConfig parameterizes the TeraGen row generator.
	TeraGenConfig = workload.TeraGenConfig
	// WorkloadCounts aggregates what a generator executed.
	WorkloadCounts = workload.Counts
	// FileAPI is the interface workloads drive (FS and cluster volumes).
	FileAPI = workload.FileAPI
)

// Filebench personalities.
const (
	Fileserver = workload.Fileserver
	Webproxy   = workload.Webproxy
	Varmail    = workload.Varmail
)

// Workload entry points.
var (
	RunFio       = workload.RunFio
	RunFilebench = workload.RunFilebench
	RunTeraGen   = workload.RunTeraGen
)

// TPCCEngine is the OLTP engine running the TPC-C mix over a FileAPI.
type TPCCEngine = oltp.Engine

// TPCCConfig sizes the TPC-C database.
type TPCCConfig = oltp.Config

// LoadTPCC populates the TPC-C tables.
var LoadTPCC = oltp.Load

// ---- cluster substrates --------------------------------------------------------------

// Cluster is a set of data nodes with a network model (Section 5.3).
type Cluster = cluster.Cluster

// ClusterConfig sizes a cluster.
type ClusterConfig = cluster.Config

// HDFS is the NameNode/DataNode distributed file system.
type HDFS = cluster.HDFS

// HDFSOptions tune chunking.
type HDFSOptions = cluster.HDFSOptions

// Volume is the GlusterFS-like replicated volume.
type Volume = cluster.Volume

// Cluster entry points.
var (
	NewCluster = cluster.New
	NewHDFS    = cluster.NewHDFS
	NewVolume  = cluster.NewVolume
)

// ---- experiments ----------------------------------------------------------------------

// Experiment types: regenerate the paper's tables and figures.
type (
	// ExpOptions tune experiment scale and seed.
	ExpOptions = exp.Options
	// ExpTable is a printable result table.
	ExpTable = exp.Table
)

// Experiment entry points.
var (
	// RunExperiment executes one registered experiment by name ("7", "8",
	// "10", "recover", ...); see ExperimentNames.
	RunExperiment = exp.Run
	// ExperimentNames lists the registered experiments in paper order.
	ExperimentNames = exp.Names
)
