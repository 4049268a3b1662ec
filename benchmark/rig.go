package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"tinca/internal/blockdev"
	"tinca/internal/classic"
	"tinca/internal/core"
	"tinca/internal/fs"
	"tinca/internal/jbd"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
	"tinca/internal/stack"
	"tinca/internal/workload"
)

// Common sizing: the internal/exp figure configuration, so numbers line up
// with Fig 7/8. Stock PCM and SSD profiles charge the simulated clock
// additively and nothing runs in the background, which is what makes the
// simulated numbers of a single client repeat exactly.
const (
	nvmBytes          = 16 << 20
	fsBlocks          = 32768
	journalBlocks     = 512
	groupCommitBlocks = 32
	fsOpCostNS        = 2000 // stack.Config's default FSOpCostNS
	checkpointFrac    = 0.5  // stack.Config's default CheckpointFrac
	blockSize         = blockdev.BlockSize
)

func stackConfig(kind stack.Kind, fault core.Fault) stack.Config {
	return stack.Config{
		Kind:              kind,
		Options:           core.Options{Fault: fault},
		NVMBytes:          nvmBytes,
		NVMProfile:        pmem.PCM,
		DiskProfile:       blockdev.SSD,
		FSBlocks:          fsBlocks,
		GroupCommitBlocks: groupCommitBlocks,
		JournalBlocks:     journalBlocks,
	}
}

// rig is one storage stack under test. Untraced it is stack.New's stack;
// traced it is assembled here from the same public constructors with a span
// wrapper at every seam (parity_test.go holds the two to identical
// simulated results).
type rig struct {
	kind  stack.Kind
	fault core.Fault
	st    *stack.Stack // untraced only
	tr    *tracer      // traced only

	clock  *sim.Clock
	rec    *metrics.Recorder
	mem    *pmem.Device
	disk   *blockdev.Device
	tcache *core.Cache // Tinca kind only
	fs     *fs.FS
	files  []workload.FileAPI // one handle per client

	// userBytes is every byte the clients wrote through the traced file
	// handles, the denominator of write amplification.
	userBytes atomic.Int64
	// groupCommitsBefore carries the FS group-commit count across remounts
	// (the counter lives in the FS object a crash throws away).
	groupCommitsBefore int64
}

func newRig(kind stack.Kind, traced bool, clients int, fault core.Fault) (*rig, error) {
	r := &rig{kind: kind, fault: fault, files: make([]workload.FileAPI, clients)}
	if !traced {
		st, err := stack.New(stackConfig(kind, fault))
		if err != nil {
			return nil, err
		}
		r.st, r.clock, r.rec, r.mem, r.disk = st, st.Clock, st.Rec, st.Mem, st.Disk
		r.adopt()
		return r, nil
	}
	r.clock = sim.NewClock()
	r.rec = metrics.NewRecorder()
	r.tr = newTracer(r.clock, clients)
	r.mem = pmem.New(nvmBytes, pmem.PCM, r.clock, r.rec)
	r.disk = blockdev.New(fsBlocks+journalBlocks, blockdev.SSD, r.clock, r.rec)
	return r, r.bringUp(true)
}

// adopt picks up the untraced stack's current layers (they are replaced by
// every Remount).
func (r *rig) adopt() {
	r.tcache, r.fs = r.st.TCache, r.st.FS
	for i := range r.files {
		r.files[i] = r.st.FS
	}
}

// bringUp mirrors stack.Stack.bringUp for the two kinds the benchmark runs.
func (r *rig) bringUp(format bool) error {
	r.mem.Observe(false)
	var backend fs.Backend
	switch r.kind {
	case stack.Tinca:
		r.tr.beginIfOn(r.tr.lowerLane, kCoreRecover)
		c, err := core.Open(r.mem, &spanDisk{inner: r.disk, tr: r.tr}, core.Options{Fault: r.fault})
		r.tr.endIfOn(r.tr.lowerLane)
		if err != nil {
			return err
		}
		r.tcache = c
		backend = &spanViewBackend{spanBackend{inner: &tincaBackend{c: c}, tr: r.tr, first: kCoreRead}}
	case stack.Classic:
		r.tr.beginIfOn(r.tr.lowerLane, kJBDRecover)
		cc, err := classic.Open(r.mem, r.disk, classic.Options{JournalBoundary: fsBlocks})
		var j *jbd.Journal
		if err == nil {
			j, err = jbd.Open(&spanStore{inner: cc, tr: r.tr}, r.rec,
				jbd.Options{Start: fsBlocks, Blocks: journalBlocks, Clock: r.clock})
		}
		r.tr.endIfOn(r.tr.lowerLane)
		if err != nil {
			return err
		}
		backend = &spanBackend{inner: &journalBackend{j: j, cc: cc}, tr: r.tr, first: kJBDRead}
	default:
		return fmt.Errorf("rig: kind %v is not benchmarked", r.kind)
	}
	opts := fs.Options{GroupCommitBlocks: groupCommitBlocks, Clock: r.clock, OpCostNS: fsOpCostNS, Rec: r.rec}
	var err error
	r.tr.beginIfOn(r.tr.lowerLane, kFSMount)
	if format {
		r.fs, err = fs.Format(backend, fsBlocks, 0, opts)
	} else {
		r.fs, err = fs.Mount(backend, opts)
	}
	r.tr.endIfOn(r.tr.lowerLane)
	if err != nil {
		return err
	}
	for i := range r.files {
		r.files[i] = &spanFile{inner: r.fs, tr: r.tr, lane: i, userBytes: &r.userBytes}
	}
	return nil
}

// crash is a power failure: un-flushed NVM lines survive word by word with
// probability 1/2, all DRAM state is gone.
func (r *rig) crash(rng *rand.Rand) {
	r.groupCommitsBefore += r.fs.Stats().GroupCommits
	if r.st != nil {
		r.st.Crash(rng, 0.5)
		return
	}
	r.mem.Crash(rng, 0.5)
	r.tcache, r.fs = nil, nil
}

// remount runs every layer's recovery.
func (r *rig) remount() error {
	if r.st != nil {
		if err := r.st.Remount(); err != nil {
			return err
		}
		r.adopt()
		return nil
	}
	return r.bringUp(false)
}

// ---- backend glue, as in internal/stack ---------------------------------

type tincaBackend struct{ c *core.Cache }

func (b *tincaBackend) ReadBlock(no uint64, p []byte) error { return b.c.Read(no, p) }
func (b *tincaBackend) Begin() fs.BackendTxn                { return &tincaTxn{t: b.c.Begin()} }
func (b *tincaBackend) Sync() error                         { return nil }
func (b *tincaBackend) Close() error                        { return b.c.Close() }
func (b *tincaBackend) ConcurrentReads() bool               { return true }

func (b *tincaBackend) ReadBlockView(no uint64) (fs.BlockView, error) {
	v, err := b.c.ReadView(no)
	if err != nil {
		return nil, err
	}
	return &v, nil
}

type tincaTxn struct{ t *core.Txn }

func (t *tincaTxn) Write(no uint64, data []byte) { t.t.Write(no, data) }
func (t *tincaTxn) Revoke(uint64)                {}
func (t *tincaTxn) Commit() error                { return t.t.Commit() }
func (t *tincaTxn) Abort()                       { t.t.Abort() }

// journalBackend is internal/stack's data-journal mode.
type journalBackend struct {
	j  *jbd.Journal
	cc *classic.Cache
}

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
	if err := t.b.j.CommitTxn(jbd.Txn{Updates: t.updates, Revoked: t.revoked}); err != nil {
		return err
	}
	return t.b.j.MaybeCheckpoint(checkpointFrac)
}

func (t *journalTxn) Abort() { t.updates = nil }

// ---- span wrappers, one per public seam ---------------------------------

// beginIfOn/endIfOn bracket a call when the tracer exists and is recording.
func (t *tracer) beginIfOn(ln int, kind spanKind) {
	if t != nil && t.on {
		t.begin(ln, kind)
	}
}

func (t *tracer) endIfOn(ln int) {
	if t != nil && t.on {
		t.end(ln)
	}
}

// spanFile wraps workload.FileAPI around *fs.FS: the fs layer's spans.
type spanFile struct {
	inner     workload.FileAPI
	tr        *tracer
	lane      int
	userBytes *atomic.Int64
}

func (f *spanFile) span(kind spanKind, call func() error) error {
	if !f.tr.on {
		return call()
	}
	f.tr.begin(f.lane, kind)
	err := call()
	f.tr.end(f.lane)
	return err
}

func (f *spanFile) Create(path string) error {
	return f.span(kFSMeta, func() error { return f.inner.Create(path) })
}
func (f *spanFile) Mkdir(path string) error {
	return f.span(kFSMeta, func() error { return f.inner.Mkdir(path) })
}
func (f *spanFile) Remove(path string) error {
	return f.span(kFSMeta, func() error { return f.inner.Remove(path) })
}
func (f *spanFile) Fsync(path string) error {
	return f.span(kFSFsync, func() error { return f.inner.Fsync(path) })
}
func (f *spanFile) Append(path string, data []byte) error {
	f.userBytes.Add(int64(len(data)))
	return f.span(kFSWrite, func() error { return f.inner.Append(path, data) })
}

func (f *spanFile) Stat(path string) (fs.FileInfo, error) {
	if !f.tr.on {
		return f.inner.Stat(path)
	}
	f.tr.begin(f.lane, kFSMeta)
	fi, err := f.inner.Stat(path)
	f.tr.end(f.lane)
	return fi, err
}

// WriteAt and ReadAt are the hot calls; they skip the closure.
func (f *spanFile) WriteAt(path string, off uint64, data []byte) error {
	if !f.tr.on {
		return f.inner.WriteAt(path, off, data)
	}
	f.userBytes.Add(int64(len(data)))
	f.tr.begin(f.lane, kFSWrite)
	err := f.inner.WriteAt(path, off, data)
	f.tr.end(f.lane)
	return err
}

func (f *spanFile) ReadAt(path string, off uint64, p []byte) (int, error) {
	if !f.tr.on {
		return f.inner.ReadAt(path, off, p)
	}
	f.tr.begin(f.lane, kFSRead)
	n, err := f.inner.ReadAt(path, off, p)
	f.tr.end(f.lane)
	return n, err
}

// spanBackend wraps fs.Backend around the cache or the journal: the core
// layer's spans on the Tinca stack, the jbd layer's on Classic. first is the
// layer's read kind; the other kinds follow it in backend* order.
type spanBackend struct {
	inner fs.Backend
	tr    *tracer
	first spanKind
}

func (b *spanBackend) span(which spanKind, call func() error) error {
	if !b.tr.on {
		return call()
	}
	b.tr.begin(b.tr.lowerLane, b.first+which)
	err := call()
	b.tr.end(b.tr.lowerLane)
	return err
}

func (b *spanBackend) ReadBlock(no uint64, p []byte) error {
	if !b.tr.on {
		return b.inner.ReadBlock(no, p)
	}
	b.tr.begin(b.tr.lowerLane, b.first+backendRead)
	err := b.inner.ReadBlock(no, p)
	b.tr.end(b.tr.lowerLane)
	return err
}

func (b *spanBackend) Begin() fs.BackendTxn {
	return &spanTxn{inner: b.inner.Begin(), b: b}
}
func (b *spanBackend) Sync() error  { return b.span(backendSync, b.inner.Sync) }
func (b *spanBackend) Close() error { return b.inner.Close() }

type spanTxn struct {
	inner fs.BackendTxn
	b     *spanBackend
}

func (t *spanTxn) Write(no uint64, data []byte) {
	if !t.b.tr.on {
		t.inner.Write(no, data)
		return
	}
	t.b.tr.begin(t.b.tr.lowerLane, t.b.first+backendStage)
	t.inner.Write(no, data)
	t.b.tr.end(t.b.tr.lowerLane)
}
func (t *spanTxn) Revoke(no uint64) { t.inner.Revoke(no) }
func (t *spanTxn) Commit() error    { return t.b.span(backendCommit, t.inner.Commit) }
func (t *spanTxn) Abort()           { t.inner.Abort() }

// spanViewBackend adds the optional capabilities the Tinca backend
// advertises; fs probes for them with type assertions, so the Classic
// wrapper must not have them.
type spanViewBackend struct{ spanBackend }

func (b *spanViewBackend) ConcurrentReads() bool {
	return b.inner.(fs.ConcurrentReader).ConcurrentReads()
}

func (b *spanViewBackend) ReadBlockView(no uint64) (fs.BlockView, error) {
	vr := b.inner.(fs.ViewReader)
	if !b.tr.on {
		return vr.ReadBlockView(no)
	}
	b.tr.begin(b.tr.lowerLane, b.first+backendRead)
	v, err := vr.ReadBlockView(no)
	b.tr.end(b.tr.lowerLane)
	return v, err
}

// spanStore wraps jbd.BlockStore between the journal and the Classic cache.
type spanStore struct {
	inner jbd.BlockStore
	tr    *tracer
}

func (s *spanStore) ReadBlock(no uint64, p []byte) error {
	if !s.tr.on {
		return s.inner.ReadBlock(no, p)
	}
	s.tr.begin(s.tr.lowerLane, kClassicRead)
	err := s.inner.ReadBlock(no, p)
	s.tr.end(s.tr.lowerLane)
	return err
}

func (s *spanStore) WriteBlock(no uint64, p []byte) error {
	if !s.tr.on {
		return s.inner.WriteBlock(no, p)
	}
	s.tr.begin(s.tr.lowerLane, kClassicWrite)
	err := s.inner.WriteBlock(no, p)
	s.tr.end(s.tr.lowerLane)
	return err
}

// spanDisk wraps blockdev.Store between the Tinca cache and the disk.
type spanDisk struct {
	inner blockdev.Store
	tr    *tracer
}

func (d *spanDisk) Blocks() uint64 { return d.inner.Blocks() }

func (d *spanDisk) ReadBlock(no uint64, p []byte) {
	if !d.tr.on {
		d.inner.ReadBlock(no, p)
		return
	}
	d.tr.begin(d.tr.lowerLane, kDiskRead)
	d.inner.ReadBlock(no, p)
	d.tr.end(d.tr.lowerLane)
}

func (d *spanDisk) WriteBlock(no uint64, p []byte) {
	if !d.tr.on {
		d.inner.WriteBlock(no, p)
		return
	}
	d.tr.begin(d.tr.lowerLane, kDiskWrite)
	d.inner.WriteBlock(no, p)
	d.tr.end(d.tr.lowerLane)
}
