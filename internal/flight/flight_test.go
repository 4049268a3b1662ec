package flight

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

func newDev(t *testing.T, slots int) (*pmem.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	dev := pmem.New(slots*RecordSize+4096, pmem.NVDIMM, clock, rec)
	return dev, clock
}

func TestRecordRoundtrip(t *testing.T) {
	in := Record{Seq: 42, TimeNS: 123456, Gen: 7, Block: 99, Arg: 3, Type: EvSealPersist, Shard: 11}
	line := encode(in)
	out, ok := decode(line[:])
	if !ok {
		t.Fatal("valid record failed checksum")
	}
	if out != in {
		t.Fatalf("roundtrip mismatch: got %+v want %+v", out, in)
	}
}

// TestEventTypeNumbering pins every EventType's persisted value: the
// numbers live in NVM images (and the crash sweep's commit-point oracle
// matches on them), so deleting or reordering a constant must fail here
// rather than silently shift iota under existing images.
func TestEventTypeNumbering(t *testing.T) {
	want := []struct {
		ev EventType
		n  uint16
	}{
		{EvNone, 0},
		{EvSealBegin, 1},
		{EvSealPersist, 2},
		{EvSealComplete, 3},
		{EvSerialBegin, 4},
		{EvSerialCommit, 5},
		{EvSealAbort, 6},
		{EvRecoverBegin, 7},
		{EvRecoverScan, 8},
		{EvRecoverRedo, 9},
		{EvRecoverUndo, 10},
		{EvRecoverRebuild, 11},
		{EvRecoverDone, 12},
		{EvDestage, 13},
		{EvEvictBatch, 14},
		{EvRecoverFail, 15},
		{EvCkptBegin, 16},
		{EvCkptDone, 17},
	}
	for _, w := range want {
		if uint16(w.ev) != w.n {
			t.Errorf("%v = %d, want %d", w.ev, uint16(w.ev), w.n)
		}
	}
	if int(evSentinel) != len(want) {
		t.Errorf("%d event types defined, %d pinned: pin the new one", int(evSentinel), len(want))
	}
}

func TestDecodeRejectsTornAndEmpty(t *testing.T) {
	var zero [RecordSize]byte
	if _, ok := decode(zero[:]); ok {
		t.Fatal("all-zero slot decoded as valid")
	}
	line := encode(Record{Seq: 5, Type: EvDestage, Block: 17})
	// Tear: replace one 8-byte word with the same word of another record.
	other := encode(Record{Seq: 6, Type: EvDestage, Block: 18})
	torn := line
	copy(torn[24:32], other[24:32])
	if _, ok := decode(torn[:]); ok {
		t.Fatal("torn record passed checksum")
	}
}

func TestEmitDecodeWindow(t *testing.T) {
	const slots = 8
	dev, clock := newDev(t, slots)
	r := New(dev, clock, 0, slots)
	for i := 0; i < 20; i++ {
		r.Emit(EvDestage, 1, 0, uint64(i), 0)
	}
	bb := Decode(dev, 0, slots)
	if err := bb.CheckWindow(); err != nil {
		t.Fatal(err)
	}
	if bb.MaxSeq != 20 || bb.MinSeq != 13 || len(bb.Records) != slots {
		t.Fatalf("window [%d,%d] len %d, want [13,20] len %d", bb.MinSeq, bb.MaxSeq, len(bb.Records), slots)
	}
	if bb.Dropped != 12 {
		t.Fatalf("Dropped = %d, want 12", bb.Dropped)
	}
}

func TestAttachContinuesSequence(t *testing.T) {
	const slots = 8
	dev, clock := newDev(t, slots)
	r := New(dev, clock, 0, slots)
	for i := 0; i < 5; i++ {
		r.Emit(EvDestage, 0, 0, uint64(i), 0)
	}
	r2 := Attach(dev, clock, 0, slots)
	if r2.Seq() != 5 {
		t.Fatalf("Attach picked up seq %d, want 5", r2.Seq())
	}
	r2.Emit(EvRecoverBegin, 0, 0, 0, 0)
	bb := Decode(dev, 0, slots)
	if bb.MaxSeq != 6 {
		t.Fatalf("MaxSeq = %d, want 6", bb.MaxSeq)
	}
	if err := bb.CheckWindow(); err != nil {
		t.Fatal(err)
	}
}

func TestEmitIsSilent(t *testing.T) {
	dev, clock := newDev(t, 16)
	rec := dev.Recorder()
	before := rec.Snapshot()
	t0 := clock.Now()
	wear0, _ := dev.Wear()
	r := New(dev, clock, 0, 16)
	for i := 0; i < 100; i++ {
		r.Emit(EvSealBegin, 0, uint64(i), 0, 0)
	}
	if clock.Now() != t0 {
		t.Fatalf("Emit advanced the clock by %d ns", clock.Now()-t0)
	}
	wear1, _ := dev.Wear()
	if wear1 != wear0 {
		t.Fatalf("Emit charged wear: %d -> %d", wear0, wear1)
	}
	after := rec.Snapshot()
	for k, v := range after {
		if before[k] != v {
			t.Fatalf("Emit changed counter %s: %d -> %d", metrics.Counter(k), before[k], v)
		}
	}
}

// TestCrashTearsAtMostOneRecord drives random crash points through a
// stream of Emits and checks the §13 window invariant at each: the
// surviving records are contiguous and short by at most one.
func TestCrashTearsAtMostOneRecord(t *testing.T) {
	const slots = 8
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev, clock := newDev(t, slots)
		r := New(dev, clock, 0, slots)
		// Each Emit is 3 persist boundaries; crash somewhere inside 20 emits.
		dev.ArmCrash(rng.Int63n(60))
		crashed, _ := pmem.CatchCrash(func() {
			for i := 0; i < 20; i++ {
				r.Emit(EvDestage, 0, 0, uint64(i), 0)
			}
		})
		if !crashed {
			t.Fatalf("seed %d: crash did not fire", seed)
		}
		dev.Crash(rng, rng.Float64())
		bb := Decode(dev, 0, slots)
		if err := bb.CheckWindow(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAnalyzeDigest(t *testing.T) {
	recs := []Record{
		{Seq: 1, Type: EvSealBegin, Gen: 1},
		{Seq: 2, Type: EvSealPersist, Gen: 1, Block: 10},
		{Seq: 3, Type: EvSealComplete, Gen: 1},
		{Seq: 4, Type: EvSerialBegin, Gen: 2},
		{Seq: 5, Type: EvSerialCommit, Gen: 2, Block: 14},
		{Seq: 6, Type: EvSealBegin, Gen: 3},
	}
	bb := Analyze(16, recs)
	if bb.LastSealedGen != 2 || bb.LastSealedHead != 14 {
		t.Fatalf("LastSealedGen/Head = %d/%d, want 2/14", bb.LastSealedGen, bb.LastSealedHead)
	}
	if len(bb.InFlight) != 1 || bb.InFlight[0] != 3 {
		t.Fatalf("InFlight = %v, want [3]", bb.InFlight)
	}
	var buf bytes.Buffer
	if err := bb.Report(&buf, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"last sealed generation: 2", "gens [3]", "last 3 of 6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCheckWindowRejectsInteriorHole(t *testing.T) {
	bb := Analyze(16, []Record{
		{Seq: 1, Type: EvDestage},
		{Seq: 2, Type: EvDestage},
		{Seq: 4, Type: EvDestage},
	})
	if err := bb.CheckWindow(); err == nil {
		t.Fatal("interior hole not detected")
	}
}

// FuzzFlightRecord: the flight ring is read back from a crash image, so
// its decoder sees arbitrary bytes. Any 64-byte line either fails to
// decode or decodes to a record that encodes back to the same line; and
// decoding, analysing, window-checking and reporting a region of
// arbitrary bytes never panics. The seed corpus holds one valid record of
// every event kind, a torn checksum and an all-ones line.
func FuzzFlightRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var line [RecordSize]byte
		copy(line[:], data)
		if r, ok := decode(line[:]); ok {
			if got := encode(r); got != line {
				t.Fatalf("line % x decodes as %+v, which encodes as % x", line, r, got)
			}
		}

		slots := min((len(data)+RecordSize-1)/RecordSize, DefaultSlots)
		if slots == 0 {
			return
		}
		dev := pmem.New(slots*RecordSize, pmem.NVDIMM, sim.NewClock(), metrics.NewRecorder())
		for s := 0; s < slots; s++ {
			var l [RecordSize]byte
			copy(l[:], data[s*RecordSize:])
			dev.PersistLineSilent(s*RecordSize, l)
		}
		bb := Decode(dev, 0, slots)
		_ = bb.CheckWindow()
		if err := bb.Report(io.Discard, 0); err != nil {
			t.Fatal(err)
		}
	})
}
