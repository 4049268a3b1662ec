// Package pmem simulates byte-addressable non-volatile memory attached to
// the memory bus, as used by the paper's prototype (an NVDIMM configured
// with PCM/STT-RAM delays).
//
// The simulator models exactly the properties Tinca's consistency argument
// depends on:
//
//   - Regular stores go to the (volatile) CPU cache and are NOT durable.
//   - CLFlush writes the covering 64-byte cache lines back to the
//     persistence domain; SFence orders flushes against later stores.
//   - The aligned 8-byte word is the only failure-atomic unit (a plain
//     mov on x86): after a crash each word holds either its old or its new
//     value, never a mix. Nothing larger is atomic — LOCK cmpxchg16b is
//     atomic for visibility, but nothing promises that both halves reach
//     the persistence domain together.
//   - Un-flushed dirty data may persist anyway, in any order and at any
//     granularity down to the 8-byte word, because the CPU can evict cache
//     lines at its own whim and writes within a line are not atomic as a
//     unit. Crash images therefore tear dirty lines word by word.
//
// Each operation charges simulated service time to a sim.Clock using a
// per-technology latency profile (Table 1 of the paper), and counts
// clflush/sfence/bytes in a metrics.Recorder — the quantities the paper's
// evaluation normalizes against.
package pmem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tinca/internal/metrics"
	"tinca/internal/sim"
)

// LineSize is the CPU cache line size in bytes (64B on the paper's Xeon
// E5-2640 platform).
const LineSize = 64

// Profile describes an NVM technology's per-line latencies, following the
// paper's prototype methodology: an NVDIMM runs at DRAM speed, and media
// delays are injected on top to emulate PCM (write/read +180ns/+50ns) and
// STT-RAM (+50ns/+50ns). LineFlushNS is the full cost of one clflush to
// that medium; LineReadNS the cost of one cache-line load from the DIMM.
type Profile struct {
	Name        string
	LineStoreNS int64 // per-line store into the CPU cache (memcpy cost)
	LineReadNS  int64 // per-line load
	LineFlushNS int64 // per-line clflush (includes the instruction cost)
	FenceNS     int64 // per sfence
	// Parallel is the DIMM's internal load parallelism: how many in-flight
	// block-sized Loads the memory channels/banks overlap, charged by the
	// sim.Window model. A host that serializes its reads (for example
	// under a shard mutex) pays full price, which is exactly the structure
	// the read-hit scaling figure measures. Only multi-line Load is
	// overlapped; the small Load8/Load16 keep the fully serialized
	// charging model. 0 or 1 disables overlap; every stock profile uses
	// it, so existing figures and crash sweeps are unchanged.
	Parallel int
	// PersistParallel is the DIMM's internal write-bank parallelism: the
	// persist-side analogue of Parallel (see Banks) over stores, flushes
	// and fences, so commit paths that genuinely overlap their persists
	// (e.g. independent per-shard ring seals) advance simulated time by
	// roughly one seal's worth per bank. A path that serializes its
	// persists (a single seal leader, everything under one mutex) pays
	// full price — exactly the structure the writer-scaling figure
	// measures. Only the charged service time is discounted: data
	// movement, crash-boundary counting (persistOps), wear and every
	// counter are untouched, so crash images and boundary spaces are
	// identical with or without banks. 0 or 1 disables the overlap; every
	// stock profile leaves it off, so existing deterministic figures are
	// unchanged.
	PersistParallel int
}

// Base costs of the DRAM path itself: what a cache-line read from DIMM, a
// clflush instruction, and an sfence cost even on plain DRAM.
const (
	baseLineStoreNS = 10
	baseLineReadNS  = 50
	baseLineFlushNS = 100
	baseFenceNS     = 50
)

// CLWBVariant returns the profile with the flush cost reduced to model
// the clwb instruction (Section 2.1: "clflushopt and clwb have been
// proposed to substitute clflush but still bring in overheads"): the line
// is written back without being invalidated and the instruction overhead
// is lower, but the media write cost remains.
func CLWBVariant(p Profile) Profile {
	saved := int64(baseLineFlushNS * 6 / 10) // clwb keeps the line in cache
	if p.LineFlushNS > saved {
		p.LineFlushNS -= saved
	}
	p.Name = p.Name + "+clwb"
	return p
}

// Channels derives a profile whose block-sized loads overlap up to depth
// concurrent requests (the memory-channel/bank parallelism of a real
// DIMM). Per-line costs are unchanged; only the overlap granted to
// concurrently issued Loads.
func Channels(p Profile, depth int) Profile {
	if depth < 1 {
		depth = 1
	}
	p.Parallel = depth
	p.Name = fmt.Sprintf("%s+ch%d", p.Name, depth)
	return p
}

// Banks derives a profile whose persistence-relevant operations (stores,
// flushes, fences) overlap up to depth concurrent issuers — the
// write-bank parallelism of a real DIMM, the persist-side analogue of
// Channels. Per-operation costs are unchanged; only the overlap granted
// to concurrently issued persists.
func Banks(p Profile, depth int) Profile {
	if depth < 1 {
		depth = 1
	}
	p.PersistParallel = depth
	p.Name = fmt.Sprintf("%s+bk%d", p.Name, depth)
	return p
}

// Technology profiles from Table 1 / Section 5.1 of the paper.
var (
	NVDIMM = Profile{Name: "NVDIMM", LineStoreNS: baseLineStoreNS,
		LineReadNS: baseLineReadNS, LineFlushNS: baseLineFlushNS, FenceNS: baseFenceNS}
	STTRAM = Profile{Name: "STT-RAM", LineStoreNS: baseLineStoreNS,
		LineReadNS: baseLineReadNS + 50, LineFlushNS: baseLineFlushNS + 50, FenceNS: baseFenceNS}
	PCM = Profile{Name: "PCM", LineStoreNS: baseLineStoreNS,
		LineReadNS: baseLineReadNS + 50, LineFlushNS: baseLineFlushNS + 180, FenceNS: baseFenceNS}
	// NoFlushCost models the Figure 3(b) baseline that omits clflush and
	// sfence entirely: persistence operations still happen functionally
	// but cost nothing, isolating the ordering-instruction overhead.
	NoFlushCost = Profile{Name: "DRAM-noflush", LineStoreNS: baseLineStoreNS,
		LineReadNS: baseLineReadNS, LineFlushNS: 0, FenceNS: 0}
)

// ErrCrash is the sentinel carried by the panic a Device raises when an
// armed crash point fires. Harnesses recover it with RecoverCrash.
type ErrCrash struct{ Op string }

func (e ErrCrash) Error() string { return "pmem: injected crash during " + e.Op }

// Device is a simulated NVM DIMM. All methods are safe for concurrent use.
// Crash tears every dirty line into independently persisting aligned 8-byte
// words, so Store8 is the one store that is failure-atomic as a whole; a
// wider Store is atomic per word only.
type Device struct {
	mu       sync.Mutex
	size     int
	persist  []byte // contents of the persistence domain (survives crash)
	volatile []byte // CPU-visible contents (lost on crash unless flushed/evicted)
	dirty    []bool // per-line dirty flag (volatile differs from persist)
	nlines   int

	prof  Profile
	clock *sim.Clock
	rec   *metrics.Recorder
	wear  []uint32 // per-line media writes (endurance accounting)

	// loads and persists are the overlap windows of block-sized Loads
	// (Profile.Parallel) and of persistence-relevant operations
	// (Profile.PersistParallel). Issuers serialized by a host mutex keep
	// a window at one and pay full price.
	loads, persists *sim.Window

	// Crash injection: when armed, the device panics with ErrCrash after
	// the countdown of persistence-relevant operations reaches zero.
	// persistOps counts every persistence-relevant operation (stores,
	// flushes, fences) unconditionally, so harnesses can enumerate the
	// crash-boundary space of a workload.
	crashArmed     bool
	crashCountdown int64
	persistOps     int64

	// Flush/fence observation (Observe): distribution of cache lines per
	// CLFlush burst and of the simulated time between successive fences —
	// the two shapes that tell whether a commit path batches its persists
	// or stutters them. Off by default; the hot path then pays one branch
	// per CLFlush/SFence.
	observe     bool
	obsFlush    *metrics.Histogram
	obsFence    *metrics.Histogram
	lastFenceNS int64
}

// New creates a device of the given size (rounded up to a whole number of
// cache lines) with the given technology profile. clock and rec may not be
// nil; share them across the whole storage stack.
func New(size int, prof Profile, clock *sim.Clock, rec *metrics.Recorder) *Device {
	if size <= 0 {
		panic("pmem: non-positive size")
	}
	if clock == nil || rec == nil {
		panic("pmem: nil clock or recorder")
	}
	nlines := (size + LineSize - 1) / LineSize
	size = nlines * LineSize
	return &Device{
		size:     size,
		persist:  make([]byte, size),
		volatile: make([]byte, size),
		dirty:    make([]bool, nlines),
		nlines:   nlines,
		prof:     prof,
		clock:    clock,
		rec:      rec,
		wear:     make([]uint32, nlines),
		loads:    sim.NewWindow(prof.Parallel),
		persists: sim.NewWindow(prof.PersistParallel),
	}
}

// Observe enables (or disables) flush/fence histograms: lines per CLFlush
// burst into metrics.HistNVMFlushLines and simulated ns between fences
// into metrics.HistNVMFenceGap, recorded in the device's Recorder.
func (d *Device) Observe(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.observe = on
	if on && d.obsFlush == nil {
		d.obsFlush = d.rec.Hist(metrics.HistNVMFlushLines)
		d.obsFence = d.rec.Hist(metrics.HistNVMFenceGap)
		d.lastFenceNS = int64(d.clock.Now())
	}
}

// Size returns the usable size in bytes.
func (d *Device) Size() int { return d.size }

// Profile returns the technology profile in use.
func (d *Device) Profile() Profile { return d.prof }

// Clock returns the simulated clock the device charges.
func (d *Device) Clock() *sim.Clock { return d.clock }

// Recorder returns the metrics recorder the device charges.
func (d *Device) Recorder() *metrics.Recorder { return d.rec }

func (d *Device) check(off, n int) {
	if off < 0 || n < 0 || off+n > d.size {
		panic(fmt.Sprintf("pmem: access [%d,%d) outside device of %d bytes", off, off+n, d.size))
	}
}

func (d *Device) maybeCrash(op string) {
	d.persistOps++
	if !d.crashArmed {
		return
	}
	d.crashCountdown--
	if d.crashCountdown < 0 {
		d.crashArmed = false
		panic(ErrCrash{Op: op})
	}
}

// Store copies p into the device at off. The write is volatile: it is not
// durable until the covering lines are flushed (or happen to be evicted at
// crash time).
func (d *Device) Store(off int, p []byte) {
	d.check(off, len(p))
	d.persists.Enter()
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.persists.Leave()
	d.maybeCrash("store")
	copy(d.volatile[off:off+len(p)], p)
	d.markDirty(off, len(p))
	d.persists.Charge(d.clock, int64(coveringLines(off, len(p)))*d.prof.LineStoreNS)
	d.rec.Add(metrics.NVMBytesWrite, int64(len(p)))
}

// Store8 performs a failure-atomic aligned 8-byte store (regular mov on
// x86). off must be 8-byte aligned.
func (d *Device) Store8(off int, v uint64) {
	if off%8 != 0 {
		panic("pmem: Store8 misaligned")
	}
	d.check(off, 8)
	d.persists.Enter()
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.persists.Leave()
	d.maybeCrash("store8")
	binary.LittleEndian.PutUint64(d.volatile[off:off+8], v)
	d.markDirty(off, 8)
	d.persists.Charge(d.clock, d.prof.LineStoreNS)
	d.rec.Inc(metrics.NVMAtomic8)
	d.rec.Add(metrics.NVMBytesWrite, 8)
}

// Load copies n bytes at off into p (len(p) bytes are read). Reads see the
// CPU-visible (volatile) contents. Concurrent Loads overlap on profiles
// with channel parallelism (see Profile.Parallel); the copy itself remains
// serialized under the device lock, only the charged service time is
// discounted.
func (d *Device) Load(off int, p []byte) {
	d.check(off, len(p))
	d.loads.Enter()
	d.mu.Lock()
	copy(p, d.volatile[off:off+len(p)])
	d.mu.Unlock()
	lines := coveringLines(off, len(p))
	d.rec.Add(metrics.NVMBytesRead, int64(len(p)))
	d.loads.Charge(d.clock, int64(lines)*d.prof.LineReadNS)
	d.loads.Leave()
}

// ViewBytes returns a slice aliasing the CPU-visible contents of [off,
// off+n) — the zero-copy read primitive behind core's ReadView. It is
// charged exactly like a Load of the same range (service time, bytes-read
// counter, overlap discount), so a zero-copy hit and a copying hit cost
// the same simulated NVM time and differ only in host-DRAM work; the
// consumer's later byte accesses are free, as they would be on real
// mapped PM.
//
// Safety contract: the caller must guarantee no Store/Persist targets the
// range while it holds the slice (core's view pins provide this — a
// pinned data block is never recycled by the allocator), and must drop
// the slice before any Crash/Restore cycle (those rewrite the whole
// volatile array). The mutex acquisition here orders the view after
// every store that published the range's contents.
func (d *Device) ViewBytes(off, n int) []byte {
	d.check(off, n)
	d.loads.Enter()
	d.mu.Lock()
	v := d.volatile[off : off+n : off+n]
	d.mu.Unlock()
	lines := coveringLines(off, n)
	d.rec.Add(metrics.NVMBytesRead, int64(n))
	d.loads.Charge(d.clock, int64(lines)*d.prof.LineReadNS)
	d.loads.Leave()
	return v
}

// Load8 reads an aligned 8-byte value.
func (d *Device) Load8(off int) uint64 {
	if off%8 != 0 {
		panic("pmem: Load8 misaligned")
	}
	d.check(off, 8)
	d.mu.Lock()
	defer d.mu.Unlock()
	v := binary.LittleEndian.Uint64(d.volatile[off : off+8])
	d.clock.AdvanceNS(d.prof.LineReadNS)
	d.rec.Add(metrics.NVMBytesRead, 8)
	return v
}

// Load16 reads an aligned 16-byte value. A load has no crash semantics; it
// is one charged line read, where two Load8s would be two.
func (d *Device) Load16(off int) (v [16]byte) {
	if off%16 != 0 {
		panic("pmem: Load16 misaligned")
	}
	d.check(off, 16)
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(v[:], d.volatile[off:off+16])
	d.clock.AdvanceNS(d.prof.LineReadNS)
	d.rec.Add(metrics.NVMBytesRead, 16)
	return v
}

// CLFlush flushes every cache line covering [off, off+n) to the
// persistence domain, charging one clflush per line.
func (d *Device) CLFlush(off, n int) {
	d.check(off, n)
	d.persists.Enter()
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.persists.Leave()
	d.maybeCrash("clflush")
	first := off / LineSize
	last := (off + n - 1) / LineSize
	if n == 0 {
		last = first
	}
	for l := first; l <= last; l++ {
		b := l * LineSize
		copy(d.persist[b:b+LineSize], d.volatile[b:b+LineSize])
		d.dirty[l] = false
		d.wear[l]++
	}
	lines := int64(last - first + 1)
	d.rec.Add(metrics.NVMCLFlush, lines)
	d.persists.Charge(d.clock, lines*d.prof.LineFlushNS)
	if d.observe {
		d.obsFlush.Record(lines)
	}
}

// SFence issues a store fence. In this synchronous simulation flushes are
// already complete when CLFlush returns, so the fence only charges its cost
// and counts; the ordering guarantee it provides in hardware is what makes
// the persist-then-continue sequencing of callers valid.
func (d *Device) SFence() {
	d.persists.Enter()
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.persists.Leave()
	d.maybeCrash("sfence")
	d.rec.Inc(metrics.NVMSFence)
	d.persists.Charge(d.clock, d.prof.FenceNS)
	if d.observe {
		now := int64(d.clock.Now())
		d.obsFence.Record(now - d.lastFenceNS)
		d.lastFenceNS = now
	}
}

// PersistRange is the common {store, clflush, sfence} sequence: store p at
// off, flush the covering lines and fence.
func (d *Device) PersistRange(off int, p []byte) {
	d.Store(off, p)
	d.CLFlush(off, len(p))
	d.SFence()
}

// Persist8 is the atomic-8B {store, clflush, sfence} sequence.
func (d *Device) Persist8(off int, v uint64) {
	d.Store8(off, v)
	d.CLFlush(off, 8)
	d.SFence()
}

// Persist16 is PersistRange over 16 bytes. It is not failure-atomic as a
// unit: a crash between its store and its flush tears it per 8-byte word.
func (d *Device) Persist16(off int, v [16]byte) { d.PersistRange(off, v[:]) }

// PersistLineSilent durably writes one whole cache line with the same
// {store, clflush, sfence} discipline as the main log, but charges nothing
// observable: no simulated time, no metrics counters, no wear, no
// flush/fence histograms. It is the flight recorder's write primitive —
// the black box must not perturb the figures it explains (the same
// contract observe.go states for histograms: observability never advances
// the clock).
//
// Crash semantics are NOT silent: the three sub-operations each count as a
// persistence-relevant boundary (exactly like a Store/CLFlush/SFence
// triple), so an armed crash can fire between the store and the flush and
// leave the line dirty — Crash() then tears it word by word like any other
// un-flushed line. This is what makes torn flight records a reachable
// state the decode path must (and does) tolerate.
func (d *Device) PersistLineSilent(off int, line [LineSize]byte) {
	if off%LineSize != 0 {
		panic("pmem: PersistLineSilent misaligned")
	}
	d.check(off, LineSize)
	d.mu.Lock()
	defer d.mu.Unlock()
	// Store: volatile only; the line becomes dirty and torn-able.
	d.maybeCrash("flight-store")
	copy(d.volatile[off:off+LineSize], line[:])
	d.dirty[off/LineSize] = true
	// CLFlush: write the line back to the persistence domain.
	d.maybeCrash("flight-clflush")
	copy(d.persist[off:off+LineSize], d.volatile[off:off+LineSize])
	d.dirty[off/LineSize] = false
	// SFence: orders this record before the next one's store.
	d.maybeCrash("flight-sfence")
}

// LoadSilent copies n = len(p) bytes at off into p without charging
// simulated time or counters — the flight recorder's read primitive, used
// to decode the black box both live (/blackbox) and after a crash. Reads
// see the CPU-visible contents; immediately after Crash() those equal the
// surviving persistence-domain image.
func (d *Device) LoadSilent(off int, p []byte) {
	d.check(off, len(p))
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(p, d.volatile[off:off+len(p)])
}

func (d *Device) markDirty(off, n int) {
	first := off / LineSize
	last := (off + n - 1) / LineSize
	if n == 0 {
		last = first
	}
	for l := first; l <= last; l++ {
		d.dirty[l] = true
	}
}

func coveringLines(off, n int) int {
	if n == 0 {
		return 1
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	return last - first + 1
}

// DirtyLines reports how many cache lines are currently un-flushed.
func (d *Device) DirtyLines() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, dd := range d.dirty {
		if dd {
			n++
		}
	}
	return n
}

// Crash simulates a power failure. The device's contents become the
// persistence-domain image plus whatever the CPU happened to write back on
// its own before the power died. The eviction model is adversarial down
// to the hardware atomicity contract: within each dirty line, every
// aligned 8-byte word independently persists with probability evictP — a
// *torn* line. All dirty state is cleared. If r is nil, no dirty data
// survives (the strictest image).
//
// Crash never charges simulated time. After Crash the device is ready for
// recovery code to read.
func (d *Device) Crash(r *rand.Rand, evictP float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashArmed = false
	d.crashCountdown = 0
	for l := 0; l < d.nlines; l++ {
		if !d.dirty[l] {
			continue
		}
		b := l * LineSize
		if r != nil {
			for w := 0; w < LineSize/8; w++ {
				off := b + w*8
				if r.Float64() < evictP {
					copy(d.persist[off:off+8], d.volatile[off:off+8])
					d.wear[l]++
				}
			}
		}
		d.dirty[l] = false
	}
	copy(d.volatile, d.persist)
}

// ArmCrash arms an injected crash: the device will panic with ErrCrash
// after n more persistence-relevant operations (stores, flushes, fences).
// Use RecoverCrash in a deferred function to catch it, then call Crash to
// materialize the post-failure image.
func (d *Device) ArmCrash(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashArmed = true
	d.crashCountdown = n
}

// DisarmCrash cancels a pending armed crash. The countdown is reset too:
// a later ArmCrash-free sequence must never inherit a stale fuse.
func (d *Device) DisarmCrash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashArmed = false
	d.crashCountdown = 0
}

// PersistOps reports the total number of persistence-relevant operations
// (stores, flushes, fences — exactly the operations an armed crash counts)
// the device has executed since creation. ArmCrash(n) fires on the
// (n+1)th subsequent such operation, so a workload spanning operations
// [a, b) of this counter has crash boundaries ArmCrash(a+k) for
// k in [0, b-a). Exhaustive sweeps use the delta to enumerate every
// boundary instead of sampling one.
func (d *Device) PersistOps() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.persistOps
}

// CatchCrash runs fn and absorbs an injected-crash panic raised by an armed
// device, returning whether a crash fired and its details. Any other panic
// is re-raised. This is the harness entry point for crash testing:
//
//	dev.ArmCrash(n)
//	crashed, _ := pmem.CatchCrash(func() { stack.DoWork() })
//	if crashed {
//		dev.Crash(rng, 0.5)
//		stack.Recover()
//	}
func CatchCrash(fn func()) (crashed bool, details ErrCrash) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if e, ok := v.(ErrCrash); ok {
			crashed, details = true, e
			return
		}
		panic(v)
	}()
	fn()
	return false, ErrCrash{}
}

// SnapshotPersist returns a copy of the persistence-domain image, for
// white-box tests.
func (d *Device) SnapshotPersist() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, d.size)
	copy(out, d.persist)
	return out
}

// Wear reports endurance statistics: the total number of line writes the
// media has absorbed and the write count of the hottest line. The paper
// motivates Tinca partly by NVM write endurance (PCM: 10^6–10^8 writes
// per cell): halving media writes roughly doubles device lifetime.
func (d *Device) Wear() (total int64, maxLine uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.wear {
		total += int64(w)
		if w > maxLine {
			maxLine = w
		}
	}
	return total, maxLine
}

// WearRange returns the maximum per-line media-write count within
// [off, off+n), for endurance accounting of a specific region (e.g. the
// Head/Tail pointer lines).
func (d *Device) WearRange(off, n int) (maxLine uint32) {
	d.check(off, n)
	d.mu.Lock()
	defer d.mu.Unlock()
	first := off / LineSize
	last := (off + n - 1) / LineSize
	for l := first; l <= last; l++ {
		if d.wear[l] > maxLine {
			maxLine = d.wear[l]
		}
	}
	return maxLine
}

// WallTime is a convenience conversion used by drivers when reporting
// simulated durations.
func WallTime(ns int64) time.Duration { return time.Duration(ns) }
