// Package flight implements Tinca's crash-surviving "black box": a small
// fixed-size event ring in simulated NVM whose 64-byte records are written
// with the same store+clflush+sfence discipline as the main transaction
// log, so the telemetry that explains a crash survives the crash itself
// (DESIGN.md §13).
//
// Each record occupies exactly one cache line and is self-describing: a
// monotonic sequence number, the simulated timestamp, the event type, and
// three event-specific payload words, sealed by a mixing checksum over the
// rest of the line. There is no persisted head pointer — the decoder scans
// every slot, keeps the checksum-valid records, and reconstructs the write
// order from the sequence numbers. Because each record is flushed and
// fenced before the next record's store begins, at most one slot (the
// record in flight at the crash) can be torn, and a torn record simply
// fails its checksum: the surviving records always form a contiguous
// sequence window, so a partial write can never fabricate history.
//
// Writes go through pmem.PersistLineSilent, which persists crash-
// consistently but charges no simulated time, counters, or wear — the
// black box never perturbs the figures it is meant to explain.
package flight

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// RecordSize is the size of one flight record: exactly one cache line, so
// a single clflush persists a whole record and tearing is confined to the
// line the crash interrupted.
const RecordSize = pmem.LineSize

// DefaultSlots is the default ring capacity. 256 records x 64B = 16KiB of
// NVM — four data blocks' worth, a rounding error against the cache it
// instruments, yet deep enough to hold the full seal/evict recent
// history of any crash the sweep can produce.
const DefaultSlots = 256

// EventType identifies what a flight record describes.
type EventType uint16

// Event types. The numeric values are persisted in NVM; append only.
const (
	EvNone EventType = iota

	// Group-commit seal lifecycle (core/seal.go sealRings). Gen is the
	// seal generation.
	EvSealBegin    // Block = planned log entries, Arg = batch size (txns)
	EvSealPersist  // Block = ring Head after the seal; emitted after the Tail flip (commit point)
	EvSealComplete // volatile epilogue done (unpin, LRU, counters)

	// Lifecycle of the one-transaction-at-a-time commit the cache no
	// longer has. Nothing emits these three; they stay so later numbers
	// do not shift and older images still decode.
	EvSerialBegin  // Block = txn blocks
	EvSerialCommit // Block = ring Head; emitted after the Tail flip
	EvSealAbort    // alloc failure unwound the commit; Block = ring Head after revoke

	// Recovery phase boundaries (core/recovery.go). Arg carries the
	// phase's entry count where one applies.
	EvRecoverBegin
	EvRecoverScan    // Arg = entries scanned
	EvRecoverRedo    // Arg = entries redone
	EvRecoverUndo    // Arg = entries undone + stray entries revoked
	EvRecoverRebuild // Arg = resident blocks rebuilt
	EvRecoverDone

	// Background machinery. EvDestage belonged to an asynchronous
	// destager the cache no longer has: nothing emits it, and it stays so
	// later numbers do not shift and older images still decode.
	EvDestage    // Block = disk block destaged
	EvEvictBatch // Arg = victims evicted in the batch

	// Recovery failure (core/recovery.go): one of recover()'s structural
	// error returns fired. Block carries the offending value (position,
	// slot or block number) and Arg the failure code, so a failed restart
	// is distinguishable from one that crashed mid-pass.
	EvRecoverFail

	// Checkpoint writer lifecycle (core/checkpoint.go). Gen is the
	// checkpoint epoch being written.
	EvCkptBegin // Block = ring Head, Arg = ring Tail at the snapshot
	EvCkptDone  // Block = valid entries snapshotted

	evSentinel // one past the last valid type
)

func (t EventType) String() string {
	switch t {
	case EvNone:
		return "none"
	case EvSealBegin:
		return "seal-begin"
	case EvSealPersist:
		return "seal-persist"
	case EvSealComplete:
		return "seal-complete"
	case EvSerialBegin:
		return "serial-begin"
	case EvSerialCommit:
		return "serial-commit"
	case EvSealAbort:
		return "seal-abort"
	case EvRecoverBegin:
		return "recover-begin"
	case EvRecoverScan:
		return "recover-scan"
	case EvRecoverRedo:
		return "recover-redo"
	case EvRecoverUndo:
		return "recover-undo"
	case EvRecoverRebuild:
		return "recover-rebuild"
	case EvRecoverDone:
		return "recover-done"
	case EvDestage:
		return "destage"
	case EvEvictBatch:
		return "evict-batch"
	case EvRecoverFail:
		return "recover-fail"
	case EvCkptBegin:
		return "ckpt-begin"
	case EvCkptDone:
		return "ckpt-done"
	default:
		return fmt.Sprintf("event(%d)", uint16(t))
	}
}

// Record is one decoded flight event.
//
// On-line layout (little-endian, 64 bytes):
//
//	[ 0, 8)  Seq      monotonic sequence number, starts at 1 (0 = never written)
//	[ 8,16)  TimeNS   simulated timestamp
//	[16,24)  Gen      seal sequence number (0 if not applicable)
//	[24,32)  Block    event-specific (ring head, disk block, ...)
//	[32,40)  Arg      event-specific (batch size, entry count, ...)
//	[40,42)  Type     EventType
//	[42,44)  Shard    issuing shard (0 if not applicable)
//	[44,56)  reserved (zero)
//	[56,64)  Checksum mix64 chain over words [0,56)
type Record struct {
	Seq    uint64
	TimeNS int64
	Gen    uint64
	Block  uint64
	Arg    uint64
	Type   EventType
	Shard  uint16
}

func (r Record) String() string {
	return fmt.Sprintf("#%d t=%dns %s gen=%d block=%d arg=%d shard=%d",
		r.Seq, r.TimeNS, r.Type, r.Gen, r.Block, r.Arg, r.Shard)
}

// mix64 is the splitmix64 finalizer: every input bit avalanches across the
// output, so a torn record (some 8-byte words old, some new) disagrees
// with its stored checksum except with 2^-64 probability. A plain XOR
// would not do: swapping equal contributions between words preserves XOR.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func checksum(line []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 56; i += 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(line[i:]))
	}
	return h
}

func encode(r Record) (line [RecordSize]byte) {
	binary.LittleEndian.PutUint64(line[0:], r.Seq)
	binary.LittleEndian.PutUint64(line[8:], uint64(r.TimeNS))
	binary.LittleEndian.PutUint64(line[16:], r.Gen)
	binary.LittleEndian.PutUint64(line[24:], r.Block)
	binary.LittleEndian.PutUint64(line[32:], r.Arg)
	binary.LittleEndian.PutUint16(line[40:], uint16(r.Type))
	binary.LittleEndian.PutUint16(line[42:], r.Shard)
	binary.LittleEndian.PutUint64(line[56:], checksum(line[:]))
	return line
}

// decode parses one slot. ok is false when the checksum does not match —
// a never-written or torn slot.
func decode(line []byte) (r Record, ok bool) {
	if binary.LittleEndian.Uint64(line[56:]) != checksum(line) {
		return Record{}, false
	}
	r.Seq = binary.LittleEndian.Uint64(line[0:])
	r.TimeNS = int64(binary.LittleEndian.Uint64(line[8:]))
	r.Gen = binary.LittleEndian.Uint64(line[16:])
	r.Block = binary.LittleEndian.Uint64(line[24:])
	r.Arg = binary.LittleEndian.Uint64(line[32:])
	r.Type = EventType(binary.LittleEndian.Uint16(line[40:]))
	r.Shard = binary.LittleEndian.Uint16(line[42:])
	if r.Seq == 0 || r.Type == EvNone || r.Type >= evSentinel {
		return Record{}, false
	}
	return r, true
}

// Ring is the writer side of the flight recorder. One Ring instance is
// owned by a core.Cache; Emit is safe for concurrent use (the evictor
// and committers both log). The Ring's mutex is leaf-level: it is
// taken with core's cache/shard locks held and takes only the pmem device
// lock inside.
type Ring struct {
	mu    sync.Mutex
	dev   *pmem.Device
	clock *sim.Clock
	off   int
	slots int
	seq   uint64 // last sequence number written (0 = none)
}

// New creates a writer over a freshly formatted region: [off, off+slots*64)
// of dev. The region is expected to be zero (format clears it); sequence
// numbers start at 1.
func New(dev *pmem.Device, clock *sim.Clock, off, slots int) *Ring {
	if slots <= 0 {
		panic("flight: non-positive slots")
	}
	return &Ring{dev: dev, clock: clock, off: off, slots: slots}
}

// Attach creates a writer over a region that survived a crash: it scans
// for the largest valid sequence number and continues numbering after it,
// so post-recovery events extend the same timeline the pre-crash run
// wrote.
func Attach(dev *pmem.Device, clock *sim.Clock, off, slots int) *Ring {
	r := New(dev, clock, off, slots)
	for _, rec := range DecodeRegion(dev, off, slots) {
		if rec.Seq > r.seq {
			r.seq = rec.Seq
		}
	}
	return r
}

// Off returns the region's byte offset in the device.
func (r *Ring) Off() int { return r.off }

// Slots returns the ring capacity in records.
func (r *Ring) Slots() int { return r.slots }

// Emit durably appends one event. The record is fully persisted (stored,
// flushed, fenced) before Emit returns; an injected crash mid-Emit panics
// exactly like a crash inside the main log's persist sequence and may
// leave the slot torn — which decode treats as absent.
func (r *Ring) Emit(t EventType, shard uint16, gen, block, arg uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.seq + 1
	rec := Record{
		Seq:    seq,
		TimeNS: int64(r.clock.Now()),
		Gen:    gen,
		Block:  block,
		Arg:    arg,
		Type:   t,
		Shard:  shard,
	}
	slot := int((seq - 1) % uint64(r.slots))
	r.dev.PersistLineSilent(r.off+slot*RecordSize, encode(rec))
	// The sequence number is consumed only after the record is fully
	// persisted: a crash panic inside the persist unwinds with r.seq
	// unchanged, so the next emitter — a concurrent seal on another ring
	// draining after the injected crash — reuses the number and the slot.
	// Otherwise the dead emitter's skipped number would read back as an
	// interior hole in the surviving window, which CheckWindow (rightly)
	// rejects as corruption.
	r.seq = seq
}

// Seq returns the last sequence number written.
func (r *Ring) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// DecodeRegion scans every slot of a flight region and returns the valid
// records sorted by sequence number. Torn and never-written slots are
// skipped. The read is silent (no simulated time), so decoding is safe
// both live and between crash and remount.
func DecodeRegion(dev *pmem.Device, off, slots int) []Record {
	var out []Record
	line := make([]byte, RecordSize)
	for s := 0; s < slots; s++ {
		dev.LoadSilent(off+s*RecordSize, line)
		if rec, ok := decode(line); ok {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Blackbox is the forensic report decoded from a (possibly crash-
// surviving) flight region.
type Blackbox struct {
	Slots   int      // ring capacity
	Records []Record // valid records, ascending Seq
	MinSeq  uint64   // smallest surviving Seq (0 if none)
	MaxSeq  uint64   // largest surviving Seq (0 if none)
	Dropped uint64   // records overwritten by ring wrap (MaxSeq - len)

	// Seal-oriented digest.
	LastSealedGen  uint64   // Gen of the newest durable seal/serial commit record
	LastSealedHead uint64   // ring Head that commit recorded
	InFlight       []uint64 // seal gens with a begin but no persist/commit/abort in the window

	// Per-ring heads on multi-ring layouts (CommitRings > 1): the largest
	// Block a durable commit record booked per ring, keyed by the
	// record's Shard field (the ring id on seal events). Nil when the
	// window holds no commit records; on single-ring layouts it has one
	// key (0) equal to LastSealedHead.
	LastSealedHeads map[uint16]uint64

	// Recovery failure digest: set when the window holds an EvRecoverFail
	// record (the restart gave up with a structural error).
	RecoverFailed   bool
	RecoverFailCode uint64
}

// Analyze builds the forensic digest over decoded records.
func Analyze(slots int, recs []Record) *Blackbox {
	b := &Blackbox{Slots: slots, Records: recs}
	if len(recs) == 0 {
		return b
	}
	b.MinSeq = recs[0].Seq
	b.MaxSeq = recs[len(recs)-1].Seq
	b.Dropped = b.MaxSeq - uint64(len(recs))
	open := map[uint64]bool{}
	for _, r := range recs {
		switch r.Type {
		case EvSealBegin, EvSerialBegin:
			open[r.Gen] = true
		case EvSealPersist, EvSerialCommit:
			delete(open, r.Gen)
			if r.Gen >= b.LastSealedGen {
				b.LastSealedGen = r.Gen
				b.LastSealedHead = r.Block
			}
			if b.LastSealedHeads == nil {
				b.LastSealedHeads = map[uint16]uint64{}
			}
			if r.Block > b.LastSealedHeads[r.Shard] {
				b.LastSealedHeads[r.Shard] = r.Block
			}
		case EvSealAbort:
			delete(open, r.Gen)
		case EvRecoverFail:
			b.RecoverFailed = true
			b.RecoverFailCode = r.Arg
		}
	}
	for g := range open {
		b.InFlight = append(b.InFlight, g)
	}
	sort.Slice(b.InFlight, func(i, j int) bool { return b.InFlight[i] < b.InFlight[j] })
	return b
}

// Decode is DecodeRegion + Analyze in one call.
func Decode(dev *pmem.Device, off, slots int) *Blackbox {
	return Analyze(slots, DecodeRegion(dev, off, slots))
}

// CheckWindow verifies the structural invariant a correctly functioning
// recorder guarantees across any crash: the surviving sequence numbers
// form one contiguous window ending at MaxSeq, missing at most one record
// at the window's lower edge.
//
// Why at most one: each Emit flushes and fences its record before the
// next Emit's store begins, so only the single in-flight record can be
// un-flushed at crash time. Its slot then holds, adversarially, either
// the fully-old previous-lap record (window gains its oldest member), the
// fully-new record (window gains its newest), or a torn mix that fails
// the checksum — removing exactly the oldest surviving sequence (the
// previous-lap record that shared the slot). Anything else — an interior
// hole, a duplicate, a record in the wrong slot — means the recorder or
// the persistence model is broken.
func (b *Blackbox) CheckWindow() error {
	if len(b.Records) == 0 {
		if b.MaxSeq != 0 {
			return fmt.Errorf("flight: empty window but MaxSeq=%d", b.MaxSeq)
		}
		return nil
	}
	// Distinct and contiguous.
	for i := 1; i < len(b.Records); i++ {
		prev, cur := b.Records[i-1].Seq, b.Records[i].Seq
		if cur == prev {
			return fmt.Errorf("flight: duplicate sequence %d", cur)
		}
		if cur != prev+1 {
			return fmt.Errorf("flight: interior hole in sequence window: %d then %d", prev, cur)
		}
	}
	// Window length: full min(MaxSeq, slots) records, short by at most one.
	full := b.MaxSeq
	if n := uint64(b.Slots); n < full {
		full = n
	}
	if got := uint64(len(b.Records)); got+1 < full {
		return fmt.Errorf("flight: window [%d,%d] has %d records, want >= %d", b.MinSeq, b.MaxSeq, got, full-1)
	}
	return nil
}

// Report writes the human-readable forensic report: the digest, then the
// last n events (all of them if n <= 0 or n exceeds the window).
func (b *Blackbox) Report(w io.Writer, n int) error {
	if _, err := fmt.Fprintf(w, "flight recorder: %d/%d slots valid, seq window [%d, %d], %d overwritten\n",
		len(b.Records), b.Slots, b.MinSeq, b.MaxSeq, b.Dropped); err != nil {
		return err
	}
	if len(b.Records) == 0 {
		_, err := fmt.Fprintln(w, "  (no surviving records)")
		return err
	}
	fmt.Fprintf(w, "last sealed generation: %d (ring head %d)\n", b.LastSealedGen, b.LastSealedHead)
	if len(b.InFlight) > 0 {
		fmt.Fprintf(w, "txns in flight at crash: gens %v\n", b.InFlight)
	} else {
		fmt.Fprintln(w, "txns in flight at crash: none")
	}
	if b.RecoverFailed {
		fmt.Fprintf(w, "RECOVERY FAILED: structural error, code %d (see core.RecoveryStats.Failed)\n", b.RecoverFailCode)
	}
	recs := b.Records
	if n > 0 && n < len(recs) {
		fmt.Fprintf(w, "timeline (last %d of %d events):\n", n, len(recs))
		recs = recs[len(recs)-n:]
	} else {
		fmt.Fprintf(w, "timeline (%d events):\n", len(recs))
	}
	for _, r := range recs {
		if _, err := fmt.Fprintf(w, "  %s\n", r); err != nil {
			return err
		}
	}
	return nil
}
