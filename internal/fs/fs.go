package fs

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tinca/internal/errs"
	"tinca/internal/metrics"
	"tinca/internal/pmem"
	"tinca/internal/sim"
)

// Common errors.
var (
	ErrNotExist  = errors.New("fs: file does not exist")
	ErrExist     = errors.New("fs: file already exists")
	ErrIsDir     = errors.New("fs: is a directory")
	ErrNotDir    = errors.New("fs: not a directory")
	ErrNotEmpty  = errors.New("fs: directory not empty")
	ErrNoSpace   = errors.New("fs: no space left")
	ErrNoInodes  = errors.New("fs: no inodes left")
	ErrTooLarge  = errors.New("fs: file too large")
	ErrNameLen   = errors.New("fs: name too long")
	ErrBadPath   = errors.New("fs: bad path")
	ErrReadRange = fmt.Errorf("fs: read beyond end of file: %w", errs.ErrOutOfRange)
	ErrLinkLoop  = errors.New("fs: too many levels of symbolic links")
	ErrNotLink   = errors.New("fs: not a symbolic link")
	// ErrViewExpired is returned by FileView.Close on a double close (it
	// wraps the cross-layer errs.ErrViewExpired sentinel, like the cache's
	// own view error, so errors.Is matches either layer's variant).
	ErrViewExpired = fmt.Errorf("fs: view used after Close: %w", errs.ErrViewExpired)
)

// Options configure a mounted file system.
type Options struct {
	// GroupCommitBlocks batches multiple operations into one backend
	// transaction, committing when at least this many distinct blocks are
	// staged (JBD2-style group commit). Zero commits every operation
	// individually. Fsync/Sync always force a commit.
	GroupCommitBlocks int
	// GroupCommitIntervalNS additionally commits the open group
	// transaction when this much simulated time has passed since the last
	// commit (JBD2's 5-second commit window). Zero disables the timer.
	GroupCommitIntervalNS int64
	// Clock supplies mtimes and is charged OpCostNS per operation;
	// optional.
	Clock *sim.Clock
	// OpCostNS is the CPU cost (syscall + VFS path) charged to the clock
	// at the start of every file-system operation. Zero charges nothing.
	OpCostNS int64
	// Rec receives per-operation latency histograms (fs.read_ns /
	// fs.write_ns, simulated time) when Observe is set. Both Rec and
	// Clock must be non-nil for latency recording to happen; otherwise
	// the hot path pays a single nil check.
	Rec     *metrics.Recorder
	Observe bool

	// pageCacheBlocks bounds the DRAM page cache that absorbs repeated
	// reads (the OS page cache both evaluated stacks enjoy). Zero uses
	// defaultPageCacheBlocks. Unexported: only tests shrink it, so large
	// files read back through the backend.
	pageCacheBlocks int
}

// defaultPageCacheBlocks is the DRAM page cache size (4MB).
const defaultPageCacheBlocks = 1024

// FS is a mounted file system. All methods are safe for concurrent use.
// Mutating operations are serialized by one big write lock (the
// journal-handle path is the bottleneck the paper measures in both
// stacks, and it is serialized there too), but data-path reads (ReadAt,
// Stat, ReadDir, Readlink, Exists) take only a read lock when the backend
// advertises concurrent reads (see ConcurrentReader), so they scale with
// the Tinca cache's sharded read path instead of queueing behind the FS
// lock.
type FS struct {
	mu      sync.RWMutex
	b       Backend
	g       geometry
	opts    Options
	rlockOK bool       // backend supports concurrent ReadBlock
	vr      ViewReader // non-nil when the backend serves zero-copy views

	// DRAM mirrors of the allocation bitmaps for O(1) scanning. The
	// persistent bitmaps are still updated transactionally; mirrors are
	// rebuilt on mount.
	blockBitmap []uint64
	inodeBitmap []uint64
	freeBlocks  uint64
	freeInodes  uint64
	allocHint   uint64

	// Group transaction: staged block updates of *successful* operations,
	// not yet committed to the backend, plus the data blocks those
	// operations freed (for journal revocation).
	staged        map[uint64][]byte
	stagedSeq     []uint64
	stagedRevokes map[uint64]bool
	groupLimit    int

	// Page cache: committed block contents (DRAM, free to read).
	pageCache *pageCache

	lastCommit int64 // simulated ns of the last group commit

	// crashed carries the injected-crash panic after a simulated power
	// failure unwound an operation: the failure may have left the DRAM
	// mirrors and the open group transaction mid-update, so every later
	// operation re-raises the crash instead of running on that state
	// (exactly as core.Cache poisons itself). Only Crash+Remount — which
	// build a fresh FS — clear it.
	crashed atomic.Value

	// Operation counters for Stats (atomic: read ops bump them under the
	// shared lock).
	nReadOps      atomic.Int64
	nWriteOps     atomic.Int64
	nGroupCommits atomic.Int64

	// Per-operation latency histograms (simulated ns); nil unless
	// Options.Observe with a Recorder and Clock.
	hRead  *metrics.Histogram
	hWrite *metrics.Histogram
}

// FSStats is a typed snapshot of file-system-level state and activity.
type FSStats struct {
	FreeBlocks       uint64 // unallocated data blocks
	FreeInodes       uint64 // unallocated inodes
	StagedBlocks     int    // blocks in the open group transaction
	PageCachedBlocks int    // blocks resident in the DRAM page cache
	ReadOps          int64  // read-only operations served
	WriteOps         int64  // mutating operations executed
	GroupCommits     int64  // backend transactions committed
	ConcurrentReads  bool   // reads bypass the exclusive FS lock

	// Per-operation latency digests (simulated ns); zero unless the FS
	// was mounted with Options.Observe, a Recorder, and a Clock.
	ReadLatency  metrics.LatencySummary
	WriteLatency metrics.LatencySummary
}

// Stats returns a typed snapshot of file-system counters. Safe for
// concurrent use; the snapshot is not atomic across fields.
func (f *FS) Stats() FSStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := FSStats{
		FreeBlocks:       f.freeBlocks,
		FreeInodes:       f.freeInodes,
		StagedBlocks:     len(f.staged),
		PageCachedBlocks: f.pageCache.len(),
		ReadOps:          f.nReadOps.Load(),
		WriteOps:         f.nWriteOps.Load(),
		GroupCommits:     f.nGroupCommits.Load(),
		ConcurrentReads:  f.rlockOK,
	}
	if f.hRead != nil {
		st.ReadLatency = f.hRead.Snapshot().Summary()
		st.WriteLatency = f.hWrite.Snapshot().Summary()
	}
	return st
}

// Format writes a fresh file system over the backend and mounts it.
// totalBlocks is the device span the file system manages; inodeCount of
// zero picks a default.
func Format(b Backend, totalBlocks, inodeCount uint64, opts Options) (*FS, error) {
	g, err := computeGeometry(totalBlocks, inodeCount)
	if err != nil {
		return nil, err
	}
	f := newFS(b, g, opts)
	err = f.runOp(true, func(ctx *opCtx) error {
		ctx.writeBlock(0, g.encode())
		// Reserve the metadata area and the root in the mirrors directly
		// (format owns the whole device; no undo needed).
		for blk := uint64(0); blk < g.dataStart; blk++ {
			bitmapSet(f.blockBitmap, blk)
		}
		f.freeBlocks = g.totalBlocks - g.dataStart
		f.freeInodes = g.inodeCount - 2 // inode 0 invalid, inode 1 root
		bitmapSet(f.inodeBitmap, 0)
		bitmapSet(f.inodeBitmap, rootIno)
		f.stageBitmapMirror(ctx)
		root := inode{mode: ModeDir, nlink: 2, mtime: f.now()}
		return ctx.writeInode(rootIno, root)
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Mount opens an existing file system on the backend.
func Mount(b Backend, opts Options) (*FS, error) {
	buf := make([]byte, BlockSize)
	if err := b.ReadBlock(0, buf); err != nil {
		return nil, err
	}
	g, err := decodeGeometry(buf)
	if err != nil {
		return nil, err
	}
	f := newFS(b, g, opts)
	if err := f.loadBitmaps(); err != nil {
		return nil, err
	}
	return f, nil
}

const rootIno = 1

func newFS(b Backend, g geometry, opts Options) *FS {
	pcBlocks := opts.pageCacheBlocks
	if pcBlocks == 0 {
		pcBlocks = defaultPageCacheBlocks
	}
	words := func(n uint64) int { return int((n + 63) / 64) }
	rlockOK := false
	if cr, ok := b.(ConcurrentReader); ok && cr.ConcurrentReads() {
		rlockOK = true
	}
	f := &FS{
		b:             b,
		g:             g,
		opts:          opts,
		rlockOK:       rlockOK,
		blockBitmap:   make([]uint64, words(g.totalBlocks)),
		inodeBitmap:   make([]uint64, words(g.inodeCount)),
		staged:        make(map[uint64][]byte),
		stagedRevokes: make(map[uint64]bool),
		groupLimit:    opts.GroupCommitBlocks,
		pageCache:     newPageCache(pcBlocks),
		allocHint:     g.dataStart,
	}
	if opts.Observe && opts.Rec != nil && opts.Clock != nil {
		f.hRead = opts.Rec.Hist(metrics.HistFSRead)
		f.hWrite = opts.Rec.Hist(metrics.HistFSWrite)
	}
	// Zero-copy views require the backend to tolerate reads outside the
	// FS locks, so the capability is only honored alongside
	// ConcurrentReader (backend.go).
	if vr, ok := b.(ViewReader); ok && rlockOK {
		f.vr = vr
	}
	return f
}

func (f *FS) now() uint64 {
	if f.opts.Clock == nil {
		return 0
	}
	return uint64(f.opts.Clock.Now())
}

// Geometry exposes the superblock geometry (for tests and tools).
func (f *FS) Geometry() (totalBlocks, inodeCount, dataStart uint64) {
	return f.g.totalBlocks, f.g.inodeCount, f.g.dataStart
}

// FreeBlockCount reports the number of unallocated blocks.
func (f *FS) FreeBlockCount() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.freeBlocks
}

// loadBitmaps rebuilds the DRAM bitmap mirrors from the persistent
// bitmaps on mount.
func (f *FS) loadBitmaps() error {
	buf := make([]byte, BlockSize)
	load := func(start, nblocks uint64, mirror []uint64, bits uint64) (free uint64, err error) {
		idx := 0
		for blk := uint64(0); blk < nblocks; blk++ {
			if err := f.b.ReadBlock(start+blk, buf); err != nil {
				return 0, err
			}
			for i := 0; i+8 <= BlockSize && idx < len(mirror); i += 8 {
				mirror[idx] = uint64(buf[i]) | uint64(buf[i+1])<<8 | uint64(buf[i+2])<<16 |
					uint64(buf[i+3])<<24 | uint64(buf[i+4])<<32 | uint64(buf[i+5])<<40 |
					uint64(buf[i+6])<<48 | uint64(buf[i+7])<<56
				idx++
			}
		}
		for i := uint64(0); i < bits; i++ {
			if mirror[i/64]&(1<<(i%64)) == 0 {
				free++
			}
		}
		return free, nil
	}
	var err error
	if f.freeBlocks, err = load(f.g.blockBitmapStart, f.g.blockBitmapBlocks, f.blockBitmap, f.g.totalBlocks); err != nil {
		return err
	}
	if f.freeInodes, err = load(f.g.inodeBitmapStart, f.g.inodeBitmapBlocks, f.inodeBitmap, f.g.inodeCount); err != nil {
		return err
	}
	return nil
}

func bitmapSet(m []uint64, i uint64)      { m[i/64] |= 1 << (i % 64) }
func bitmapClear(m []uint64, i uint64)    { m[i/64] &^= 1 << (i % 64) }
func bitmapGet(m []uint64, i uint64) bool { return m[i/64]&(1<<(i%64)) != 0 }

// stageBitmapMirror writes both full bitmaps from the mirrors into the
// transaction. Used only by Format.
func (f *FS) stageBitmapMirror(ctx *opCtx) {
	write := func(start, nblocks uint64, mirror []uint64) {
		buf := make([]byte, BlockSize)
		idx := 0
		for blk := uint64(0); blk < nblocks; blk++ {
			for i := 0; i+8 <= BlockSize; i += 8 {
				var w uint64
				if idx < len(mirror) {
					w = mirror[idx]
				}
				buf[i] = byte(w)
				buf[i+1] = byte(w >> 8)
				buf[i+2] = byte(w >> 16)
				buf[i+3] = byte(w >> 24)
				buf[i+4] = byte(w >> 32)
				buf[i+5] = byte(w >> 40)
				buf[i+6] = byte(w >> 48)
				buf[i+7] = byte(w >> 56)
				idx++
			}
			ctx.writeBlock(start+blk, buf)
		}
	}
	write(f.g.blockBitmapStart, f.g.blockBitmapBlocks, f.blockBitmap)
	write(f.g.inodeBitmapStart, f.g.inodeBitmapBlocks, f.inodeBitmap)
}

// ---- operation context -------------------------------------------------

// opCtx is the per-operation view. Reads see this operation's overlay
// first, then the group transaction's staged blocks, then the page cache,
// then the backend. Writes go to the overlay, so an operation that fails
// mid-way is discarded wholesale: overlay dropped, bitmap-mirror changes
// undone. A successful operation merges its overlay into the group
// transaction.
type opCtx struct {
	f       *FS
	overlay map[uint64][]byte
	seq     []uint64
	undo    []bitmapUndo
	freed   []uint64 // data blocks this operation freed
}

type bitmapUndo struct {
	inodeMap bool
	idx      uint64
	wasSet   bool
}

func (f *FS) beginOp() *opCtx {
	return &opCtx{f: f, overlay: make(map[uint64][]byte)}
}

// runOp executes one operation body atomically with respect to the group
// transaction. force commits the group transaction immediately on
// success. Caller must NOT hold f.mu.
func (f *FS) runOp(force bool, body func(*opCtx) error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.checkCrashed()
	defer f.poisonOnCrash()
	return f.runOpLocked(force, body)
}

// checkCrashed re-raises a previously observed injected-crash panic: after
// a (simulated) power failure nothing may keep mutating this mount.
func (f *FS) checkCrashed() {
	if pv := f.crashed.Load(); pv != nil {
		panic(pv)
	}
}

// poisonOnCrash (deferred) records an injected-crash panic unwinding
// through this operation, then lets it continue to the harness.
func (f *FS) poisonOnCrash() {
	pv := recover()
	if pv == nil {
		return
	}
	if _, ok := pv.(pmem.ErrCrash); ok {
		f.crashed.CompareAndSwap(nil, pv)
	}
	panic(pv)
}

// runRead executes a read-only operation body. When the backend supports
// concurrent reads, only the read lock is taken: the body sees the group
// transaction's staged blocks and the page cache exactly as a serialized
// read would (writers are excluded by the RWMutex; the page cache has its
// own lock), but any number of readers proceed in parallel. A read never
// commits the group transaction — except that, to preserve the historical
// timer semantics, a read arriving after the commit window expired
// upgrades to the write lock and flushes it. The body must not write
// through the opCtx.
func (f *FS) runRead(body func(*opCtx) error) error {
	if !f.rlockOK {
		return f.runOp(false, body)
	}
	f.mu.RLock()
	if f.commitTimerDue() {
		f.mu.RUnlock()
		return f.runOp(false, body)
	}
	defer f.mu.RUnlock()
	f.checkCrashed()
	defer f.poisonOnCrash()
	f.nReadOps.Add(1)
	if f.opts.Clock != nil && f.opts.OpCostNS > 0 {
		f.opts.Clock.AdvanceNS(f.opts.OpCostNS)
	}
	if f.hRead != nil {
		t0 := int64(f.opts.Clock.Now())
		defer func() { f.hRead.Record(int64(f.opts.Clock.Now()) - t0) }()
	}
	return body(f.beginOp())
}

func (f *FS) runOpLocked(force bool, body func(*opCtx) error) error {
	f.nWriteOps.Add(1)
	if f.opts.Clock != nil && f.opts.OpCostNS > 0 {
		f.opts.Clock.AdvanceNS(f.opts.OpCostNS)
	}
	if f.hWrite != nil {
		t0 := int64(f.opts.Clock.Now())
		defer func() { f.hWrite.Record(int64(f.opts.Clock.Now()) - t0) }()
	}
	ctx := f.beginOp()
	if err := body(ctx); err != nil {
		// Roll back mirror mutations in reverse order; drop the overlay.
		for i := len(ctx.undo) - 1; i >= 0; i-- {
			u := ctx.undo[i]
			m := f.blockBitmap
			if u.inodeMap {
				m = f.inodeBitmap
			}
			cur := bitmapGet(m, u.idx)
			if cur == u.wasSet {
				continue
			}
			if u.wasSet {
				bitmapSet(m, u.idx)
			} else {
				bitmapClear(m, u.idx)
			}
			if u.inodeMap {
				if u.wasSet {
					f.freeInodes--
				} else {
					f.freeInodes++
				}
			} else {
				if u.wasSet {
					f.freeBlocks--
				} else {
					f.freeBlocks++
				}
			}
		}
		return err
	}
	// Merge the overlay into the group transaction in write order. A
	// freed block is revoked; re-allocating it later un-revokes it.
	for _, no := range ctx.seq {
		d := ctx.overlay[no]
		delete(f.stagedRevokes, no)
		if cur, ok := f.staged[no]; ok {
			copy(cur, d)
		} else {
			f.staged[no] = d
			f.stagedSeq = append(f.stagedSeq, no)
		}
	}
	for _, no := range ctx.freed {
		f.stagedRevokes[no] = true
	}
	if !force && f.groupLimit > 0 && len(f.staged) < f.groupLimit && !f.commitTimerDue() {
		return nil
	}
	return f.commitGroup()
}

// commitTimerDue reports whether the group-commit window elapsed.
func (f *FS) commitTimerDue() bool {
	if f.opts.GroupCommitIntervalNS <= 0 || f.opts.Clock == nil || len(f.staged) == 0 {
		return false
	}
	return int64(f.opts.Clock.Now())-f.lastCommit >= f.opts.GroupCommitIntervalNS
}

// commitGroup pushes all staged blocks into one backend transaction.
// Caller holds f.mu.
func (f *FS) commitGroup() error {
	if f.opts.Clock != nil {
		f.lastCommit = int64(f.opts.Clock.Now())
	}
	if len(f.staged) == 0 {
		return nil
	}
	txn := f.b.Begin()
	for _, no := range f.stagedSeq {
		txn.Write(no, f.staged[no])
	}
	for no := range f.stagedRevokes {
		if _, rewritten := f.staged[no]; !rewritten {
			txn.Revoke(no)
		}
	}
	if err := txn.Commit(); err != nil {
		txn.Abort()
		return err
	}
	f.nGroupCommits.Add(1)
	for _, no := range f.stagedSeq {
		f.pageCache.put(no, f.staged[no])
	}
	f.staged = make(map[uint64][]byte)
	f.stagedSeq = f.stagedSeq[:0]
	f.stagedRevokes = make(map[uint64]bool)
	return nil
}

// StagedBlocks reports the group transaction's current size (tests and
// the Figure 13 probe).
func (f *FS) StagedBlocks() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.staged)
}

func (c *opCtx) readBlock(no uint64, p []byte) error {
	f := c.f
	if d, ok := c.overlay[no]; ok {
		copy(p, d)
		return nil
	}
	if d, ok := f.staged[no]; ok {
		copy(p, d)
		return nil
	}
	if f.pageCache.get(no, p) {
		return nil
	}
	if err := f.b.ReadBlock(no, p); err != nil {
		return err
	}
	f.pageCache.put(no, p)
	return nil
}

func (c *opCtx) writeBlock(no uint64, data []byte) {
	if len(data) != BlockSize {
		panic("fs: writeBlock needs a full block")
	}
	if d, ok := c.overlay[no]; ok {
		copy(d, data)
		return
	}
	d := make([]byte, BlockSize)
	copy(d, data)
	c.overlay[no] = d
	c.seq = append(c.seq, no)
}

// mutateBlock reads block no, lets fn edit it in place, and stages it.
func (c *opCtx) mutateBlock(no uint64, fn func(b []byte)) error {
	buf := make([]byte, BlockSize)
	if err := c.readBlock(no, buf); err != nil {
		return err
	}
	fn(buf)
	c.writeBlock(no, buf)
	return nil
}

// ---- inode and bitmap transactional helpers ----------------------------

func (c *opCtx) readInode(ino uint64) (inode, error) {
	blk, off := c.f.g.inodeBlock(ino)
	buf := make([]byte, BlockSize)
	if err := c.readBlock(blk, buf); err != nil {
		return inode{}, err
	}
	return decodeInode(buf[off : off+inodeSize]), nil
}

func (c *opCtx) writeInode(ino uint64, in inode) error {
	blk, off := c.f.g.inodeBlock(ino)
	return c.mutateBlock(blk, func(b []byte) {
		encodeInode(in, b[off:off+inodeSize])
	})
}

// stageBit flips bit i of the persistent bitmap rooted at start.
func (c *opCtx) stageBit(start, i uint64, set bool) error {
	blk := start + i/(BlockSize*8)
	bit := i % (BlockSize * 8)
	return c.mutateBlock(blk, func(b []byte) {
		if set {
			b[bit/8] |= 1 << (bit % 8)
		} else {
			b[bit/8] &^= 1 << (bit % 8)
		}
	})
}

// allocBlock allocates one data block transactionally.
func (c *opCtx) allocBlock() (uint64, error) {
	f := c.f
	if f.freeBlocks == 0 {
		return 0, ErrNoSpace
	}
	n := f.g.totalBlocks
	for scanned := uint64(0); scanned < n; scanned++ {
		blk := f.allocHint + scanned
		if blk >= n {
			blk = f.g.dataStart + (blk-n)%(n-f.g.dataStart)
		}
		if blk < f.g.dataStart {
			continue
		}
		if !bitmapGet(f.blockBitmap, blk) {
			c.undo = append(c.undo, bitmapUndo{inodeMap: false, idx: blk, wasSet: false})
			bitmapSet(f.blockBitmap, blk)
			f.freeBlocks--
			f.allocHint = blk + 1
			if err := c.stageBit(f.g.blockBitmapStart, blk, true); err != nil {
				return 0, err
			}
			return blk, nil
		}
	}
	return 0, ErrNoSpace
}

func (c *opCtx) freeBlock(blk uint64) error {
	f := c.f
	if blk < f.g.dataStart || blk >= f.g.totalBlocks {
		return fmt.Errorf("fs: freeing out-of-range block %d", blk)
	}
	if !bitmapGet(f.blockBitmap, blk) {
		return fmt.Errorf("fs: double free of block %d", blk)
	}
	c.undo = append(c.undo, bitmapUndo{inodeMap: false, idx: blk, wasSet: true})
	bitmapClear(f.blockBitmap, blk)
	f.freeBlocks++
	c.freed = append(c.freed, blk)
	return c.stageBit(f.g.blockBitmapStart, blk, false)
}

func (c *opCtx) allocInode() (uint64, error) {
	f := c.f
	if f.freeInodes == 0 {
		return 0, ErrNoInodes
	}
	for ino := uint64(2); ino < f.g.inodeCount; ino++ {
		if !bitmapGet(f.inodeBitmap, ino) {
			c.undo = append(c.undo, bitmapUndo{inodeMap: true, idx: ino, wasSet: false})
			bitmapSet(f.inodeBitmap, ino)
			f.freeInodes--
			if err := c.stageBit(f.g.inodeBitmapStart, ino, true); err != nil {
				return 0, err
			}
			return ino, nil
		}
	}
	return 0, ErrNoInodes
}

func (c *opCtx) freeInode(ino uint64) error {
	f := c.f
	if !bitmapGet(f.inodeBitmap, ino) {
		return fmt.Errorf("fs: double free of inode %d", ino)
	}
	c.undo = append(c.undo, bitmapUndo{inodeMap: true, idx: ino, wasSet: true})
	bitmapClear(f.inodeBitmap, ino)
	f.freeInodes++
	return c.stageBit(f.g.inodeBitmapStart, ino, false)
}

// ---- page cache ---------------------------------------------------------

// pageCache is a bounded LRU of committed block contents, standing in for
// the OS page cache. It has its own lock (get reorders the LRU list, so
// even lookups mutate) because readers holding only the FS read lock use
// it concurrently.
type pageCache struct {
	mu    sync.Mutex
	max   int
	items map[uint64]*list.Element
	order *list.List // front = MRU
}

type pcEntry struct {
	no   uint64
	data []byte
}

func newPageCache(max int) *pageCache {
	return &pageCache{max: max, items: make(map[uint64]*list.Element), order: list.New()}
}

func (p *pageCache) get(no uint64, out []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.items[no]
	if !ok {
		return false
	}
	p.order.MoveToFront(el)
	copy(out, el.Value.(*pcEntry).data)
	return true
}

func (p *pageCache) put(no uint64, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.items[no]; ok {
		copy(el.Value.(*pcEntry).data, data)
		p.order.MoveToFront(el)
		return
	}
	d := make([]byte, BlockSize)
	copy(d, data)
	p.items[no] = p.order.PushFront(&pcEntry{no: no, data: d})
	for len(p.items) > p.max {
		back := p.order.Back()
		e := back.Value.(*pcEntry)
		p.order.Remove(back)
		delete(p.items, e.no)
	}
}

func (p *pageCache) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items)
}
