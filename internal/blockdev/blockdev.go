// Package blockdev simulates the disks that sit underneath the NVM cache:
// a SATA SSD and a ferromagnetic HDD, exactly the two media the paper
// evaluates (Section 5.4.1). Devices transfer fixed 4KB blocks, count every
// block read/written in a metrics.Recorder, and charge per-block service
// time to the shared simulated clock.
//
// Block contents are held sparsely (only blocks ever written occupy
// memory), so large address spaces are cheap; unwritten blocks read as
// zeroes, like a freshly trimmed device.
package blockdev

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tinca/internal/metrics"
	"tinca/internal/sim"
)

// BlockSize is the transfer unit, matching the cache and file system block
// size (4KB, the paper's default).
const BlockSize = 4096

// Store is the block-store contract the Tinca cache writes behind. A raw
// *Device satisfies it, and so does any wrapper around one (the
// benchmark's rig wraps the disk to attribute its time). Writes are
// durable when WriteBlock returns — every implementation must preserve
// that property, because the layers above clear their own dirty state on
// return.
type Store interface {
	// Blocks returns the store's capacity (its addressable span) in
	// BlockSize blocks.
	Blocks() uint64
	// ReadBlock copies block no into p (len BlockSize). Unwritten blocks
	// read as zeroes.
	ReadBlock(no uint64, p []byte)
	// WriteBlock stores p (len BlockSize) as block no, durably.
	WriteBlock(no uint64, p []byte)
}

// Profile describes a disk medium's per-block service times.
type Profile struct {
	Name    string
	ReadNS  int64 // per 4KB block read
	WriteNS int64 // per 4KB block write
}

// Media profiles. The SSD figure is a SATA-class ~45K write IOPS device;
// the HDD figure is dominated by positioning time, giving the ~5x
// throughput drop the paper observes when swapping SSD for HDD.
var (
	// SSD is a SATA flash SSD, the paper's default disk.
	SSD = Profile{Name: "SSD", ReadNS: 70_000, WriteNS: 90_000}
	// HDD is a 7.2K RPM hard disk, positioning dominated.
	HDD = Profile{Name: "HDD", ReadNS: 4_000_000, WriteNS: 4_500_000}
	// Null is an infinitely fast disk, useful for isolating NVM-layer
	// behaviour in unit tests.
	Null = Profile{Name: "null", ReadNS: 0, WriteNS: 0}
)

// Device is a simulated block device. All methods are safe for concurrent
// use.
type Device struct {
	mu     sync.Mutex
	blocks map[uint64][]byte
	nblk   uint64
	prof   Profile
	clock  *sim.Clock
	rec    *metrics.Recorder

	// queued counts the requests inside ReadBlock/WriteBlock: the
	// queue-depth gauge IOStats and the shared Recorder expose.
	queued atomic.Int64

	// Per-device I/O counters. The shared Recorder aggregates the same
	// quantities across every device charging it; these stay per device so
	// multi-device stacks (a cluster of nodes)
	// can be read one medium at a time.
	blocksRead    atomic.Int64
	blocksWritten atomic.Int64
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
}

// IOStats is a typed per-device counter snapshot, cumulative since New.
// QueueDepth is the instantaneous in-flight request count (a gauge, not a
// cumulative counter).
type IOStats struct {
	Name          string
	BlocksRead    int64
	BlocksWritten int64
	BytesRead     int64
	BytesWritten  int64
	QueueDepth    int64
}

// Stats returns the device's typed I/O counters.
func (d *Device) Stats() IOStats {
	return IOStats{
		Name:          d.prof.Name,
		BlocksRead:    d.blocksRead.Load(),
		BlocksWritten: d.blocksWritten.Load(),
		BytesRead:     d.bytesRead.Load(),
		BytesWritten:  d.bytesWritten.Load(),
		QueueDepth:    d.queued.Load(),
	}
}

// New creates a device with capacity nblocks blocks of BlockSize bytes.
func New(nblocks uint64, prof Profile, clock *sim.Clock, rec *metrics.Recorder) *Device {
	if nblocks == 0 {
		panic("blockdev: zero capacity")
	}
	if clock == nil || rec == nil {
		panic("blockdev: nil clock or recorder")
	}
	return &Device{
		blocks: make(map[uint64][]byte),
		nblk:   nblocks,
		prof:   prof,
		clock:  clock,
		rec:    rec,
	}
}

// Blocks returns the device capacity in blocks.
func (d *Device) Blocks() uint64 { return d.nblk }

// Profile returns the medium profile.
func (d *Device) Profile() Profile { return d.prof }

func (d *Device) check(no uint64) {
	if no >= d.nblk {
		panic(fmt.Sprintf("blockdev: block %d beyond device of %d blocks", no, d.nblk))
	}
}

// admit counts a request into the queue-depth gauges, the per-device one
// and the shared Recorder's.
func (d *Device) admit() {
	d.rec.Inc(metrics.DiskQueueDepth)
	d.queued.Add(1)
}

func (d *Device) release() {
	d.queued.Add(-1)
	d.rec.Add(metrics.DiskQueueDepth, -1)
}

// ReadBlock copies block no into p (which must be BlockSize long).
// Unwritten blocks read as zeroes.
func (d *Device) ReadBlock(no uint64, p []byte) {
	if len(p) != BlockSize {
		panic("blockdev: short read buffer")
	}
	d.check(no)
	d.admit()
	defer d.release()
	d.mu.Lock()
	b, ok := d.blocks[no]
	if ok {
		copy(p, b)
	} else {
		for i := range p {
			p[i] = 0
		}
	}
	d.mu.Unlock()
	d.blocksRead.Add(1)
	d.bytesRead.Add(BlockSize)
	d.rec.Inc(metrics.DiskBlocksRead)
	d.rec.Add(metrics.DiskBytesRead, BlockSize)
	d.clock.AdvanceNS(d.prof.ReadNS)
}

// WriteBlock stores p (BlockSize bytes) as block no. Disk writes are
// durable when WriteBlock returns (the simulated device has a non-volatile
// write cache, like an enterprise disk with power-loss protection; the
// consistency problems the paper studies all live above the disk).
func (d *Device) WriteBlock(no uint64, p []byte) {
	if len(p) != BlockSize {
		panic("blockdev: short write buffer")
	}
	d.check(no)
	d.admit()
	defer d.release()
	d.mu.Lock()
	b, ok := d.blocks[no]
	if !ok {
		b = make([]byte, BlockSize)
		d.blocks[no] = b
	}
	copy(b, p)
	d.mu.Unlock()
	d.blocksWritten.Add(1)
	d.bytesWritten.Add(BlockSize)
	d.rec.Inc(metrics.DiskBlocksWrite)
	d.rec.Add(metrics.DiskBytesWrite, BlockSize)
	d.clock.AdvanceNS(d.prof.WriteNS)
}

// WrittenBlocks reports how many distinct blocks hold data, for tests.
func (d *Device) WrittenBlocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blocks)
}
