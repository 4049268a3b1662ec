package core

import (
	"errors"
	"testing"

	"tinca/internal/blockdev"
	"tinca/internal/flight"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// entryImageOpts is the configuration of the images below: the flight
// recorder is on so a refused recovery leaves its failure code behind.
var entryImageOpts = Options{FlightRecorder: true, RingBytes: 4096}

// committedImage returns the devices of a closed 1 MiB cache holding five
// committed blocks, three of them rewritten once (copy-on-write).
func committedImage(t testing.TB) (*pmem.Device, *blockdev.Device, Layout) {
	t.Helper()
	clock := sim.NewClock()
	rec := metrics.NewRecorder()
	mem := pmem.New(1<<20, pmem.NVDIMM, clock, rec)
	disk := blockdev.New(1<<12, blockdev.Null, clock, rec)
	c, err := Open(mem, disk, entryImageOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		txn := c.Begin()
		txn.Write(uint64(i%5), blockOf(byte(i)))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	lay := c.Layout()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return mem, disk, lay
}

// overwriteEntryTable persists table over the start of the entry table,
// one 16-byte slot after another.
func overwriteEntryTable(mem *pmem.Device, lay Layout, table []byte) {
	if n := min(len(table), lay.Capacity*EntrySize); n > 0 {
		mem.PersistRange(lay.EntryOff, table[:n])
	}
}

// corruptEntryTables are entry tables no crash can leave, each of which
// recovery used to accept or panic on, for an image of the given capacity.
// Each overwrites slot 0 (and 1) of the committed image.
func corruptEntryTables(capacity uint32) map[string][]byte {
	free := capacity - 1 // an NVM block the committed image leaves unused
	tables := map[string][]entry{
		"cur-past-capacity": {{valid: true, disk: 100, prev: Fresh, cur: capacity}},
		"log-prev-past-capacity": {
			{valid: true, role: RoleLog, disk: 101, prev: capacity + 100, cur: free}},
		"shared-nvm-block": {
			{valid: true, disk: 102, prev: Fresh, cur: free},
			{valid: true, disk: 103, prev: Fresh, cur: free}},
		"dirty-past-disk": {{valid: true, modified: true, disk: 1 << 40, prev: Fresh, cur: free}},
	}
	out := make(map[string][]byte, len(tables))
	for name, es := range tables {
		for _, e := range es {
			b := encodeEntry(e)
			out[name] = append(out[name], b[:]...)
		}
	}
	return out
}

// TestOpenRefusesCorruptEntryTable: an entry table naming an NVM block
// past capacity, an NVM block twice, or a disk block past the device makes
// Open fail with the bad-entry code in the flight ring, instead of
// panicking in the rebuild, failing CheckInvariants, or panicking in a
// later FlushAll.
func TestOpenRefusesCorruptEntryTable(t *testing.T) {
	_, _, lay := committedImage(t)
	for name, table := range corruptEntryTables(uint32(lay.Capacity)) {
		t.Run(name, func(t *testing.T) {
			mem, disk, lay := committedImage(t)
			overwriteEntryTable(mem, lay, table)
			_, err := Open(mem, disk, entryImageOpts)
			if err == nil {
				t.Fatal("Open accepted the corrupt entry table")
			}
			t.Log(err)
			var re *RecoveryError
			if !errors.As(err, &re) || !re.Stats.Ran || !re.Stats.Failed {
				t.Fatalf("Open error %T does not carry failed recovery stats: %v", err, err)
			}
			bb := flight.Decode(mem, lay.FlightOff, lay.FlightSlots)
			if !bb.RecoverFailed || bb.RecoverFailCode != recFailBadEntry {
				t.Fatalf("recover-fail record: failed=%v code=%d, want code %d",
					bb.RecoverFailed, bb.RecoverFailCode, recFailBadEntry)
			}
		})
	}
}

// FuzzRecoverEntryTable writes arbitrary bytes over the entry table of a
// committed image and reopens it: Open must refuse the image, or return a
// cache that passes CheckInvariants and flushes without panicking. The
// checked-in corpus holds corruptEntryTables.
func FuzzRecoverEntryTable(f *testing.F) {
	mem, _, lay := committedImage(f)
	table := make([]byte, 8*EntrySize)
	mem.Load(lay.EntryOff, table)
	f.Add(table)
	f.Fuzz(func(t *testing.T, table []byte) {
		mem, disk, lay := committedImage(t)
		overwriteEntryTable(mem, lay, table)
		c, err := Open(mem, disk, entryImageOpts)
		if err != nil {
			return
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("Open accepted a table that breaks an invariant: %v", err)
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after FlushAll: %v", err)
		}
	})
}
