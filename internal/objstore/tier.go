package objstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tinca/internal/blockdev"
	"tinca/internal/bufpool"
	"tinca/internal/metrics"
)

// Tier mounts an object store as the capacity tier (L3) behind a small
// block device (L2), and presents the pair to the cache layer as one
// large blockdev.Store. Three pipelines overlap with the foreground:
//
//   - an async uploader absorbs destaged-dirty blocks into multi-block
//     objects and PUTs them in batches, off the foreground path;
//   - the upload dispatcher doubles as a compactor, always claiming the
//     object with the most dirty blocks so adjacent destages coalesce
//     into one large PUT instead of many small ones;
//   - a read-ahead prefetcher watches the demand miss stream for
//     sequential/strided object access and fetches ahead through the
//     store's request-overlap window into a DRAM staging area.
//
// Tiering is exclusive: blocks fetched from L3 go to the cache above
// (and the staging area), not into L2. L2 holds destaged-dirty blocks
// awaiting upload plus clean victims the cache pushes down (AdmitClean).
//
// # Durability and crash ordering
//
// The head of the L2 device is a persistent slot map: one 8-byte record
// per data slot (bit 63 valid, bit 62 dirty, low bits the cached block
// number), 512 records per map block. The DRAM state is a mirror,
// rebuilt from the map on attach. Four orderings make a crash at any
// point safe:
//
//  1. a slot's data write is durable before its map record says
//     valid — a torn install reads as a free slot after recovery;
//  2. a dirty block's object upload is durable (Put returned) before
//     its map record clears the dirty bit — a crash between the two
//     merely re-uploads identical bytes;
//  3. clean victims' records are invalidated durably before their
//     slots enter the free list — otherwise a crash after reuse could
//     resurrect an old record naming the new slot's contents;
//  4. only clean, unpinned slots are evicted from L2.
//
// Together these keep the tier-wide invariant: the latest committed
// content of every block is in the NVM cache (dirty), in L2 (dirty per
// the durable map), or in the object store; and a clean L2 slot always
// holds exactly what the store (or zero, for never-uploaded blocks)
// holds, so losing it loses nothing.
type Tier struct {
	dev   *blockdev.Device
	store *Store
	rec   *metrics.Recorder
	span  uint64 // addressable blocks (what Blocks() reports)
	opts  TierOptions

	// uploadTrigger is the dirty-block watermark that arms the upload
	// lanes: MaxDirty/2, clamped to [1, MaxDirty]. Below it destages
	// accumulate in L2 — write absorption: a block rewritten before the
	// watermark trips costs one PUT, not several — and the burst above it
	// gives every PUT lane work at once, so the store's request-overlap
	// window prices the batch instead of a serial request train. Drain
	// and Close ignore the watermark.
	uploadTrigger int
	// prefetchDepth is how many objects ahead of the detected stream the
	// prefetcher runs: two per prefetch worker.
	prefetchDepth int

	mapBlocks uint64 // map region at the head of dev
	nslots    int    // data slots behind the map region

	mu        sync.Mutex
	slots     []slotState
	byBlock   map[uint64]int32 // block no -> slot
	freeList  []int32
	hand      int            // clock hand for clean-slot eviction
	dirtyCnt  int            // slots with the dirty bit set
	dirtyObjs map[uint64]int // object key -> dirty blocks in it
	uploading map[uint64]bool
	paused    bool
	draining  bool // Drain in progress: lanes ignore uploadTrigger
	closing   bool
	writeCond *sync.Cond // backpressure / drain: dirty count dropped
	upCond    *sync.Cond // work for the uploader / eviction progress

	// metaMu[i] serializes durable writes of map block i. Holding it
	// across {snapshot under mu -> dev.WriteBlock} makes persisted map
	// blocks monotone: an older snapshot can never land after a newer
	// one. Lock order: metaMu before mu, never the reverse.
	metaMu []sync.Mutex

	// Staging area and fetch dedup (smu; independent of mu).
	smu      sync.Mutex
	staging  map[uint64]*stagedObj
	stageSeq uint64
	fetching map[uint64]*objFetch

	// Stride detection over the object access stream (guarded by smu).
	lastObj  uint64
	stride   int64
	streak   int
	haveLast bool

	pfCh chan uint64
	wg   sync.WaitGroup

	l2Hits       atomic.Int64
	stagingHits  atomic.Int64
	l3Fetches    atomic.Int64
	prefetches   atomic.Int64
	prefetchHits atomic.Int64
	uploads      atomic.Int64
	uploadBlocks atomic.Int64
	l2Evicts     atomic.Int64
	admits       atomic.Int64
	admitDrops   atomic.Int64
	backpressure atomic.Int64
}

type slotState struct {
	block   uint64
	version uint64
	// payload retains a dirty slot's bytes in DRAM so the uploader
	// assembles objects without re-reading L2. Immutable once set (an
	// overwrite installs a fresh slice); nil for clean slots and for
	// dirty slots recovered from the map after a crash, which the
	// uploader re-reads from L2 instead.
	payload []byte
	pin     int32
	valid   bool
	dirty   bool
}

type stagedObj struct {
	data       []byte
	seq        uint64
	prefetched bool
}

type objFetch struct {
	done  chan struct{}
	data  []byte
	stale bool // content superseded while the fetch was in flight
}

// TierOptions tunes the tier's pipelines. The zero value picks the
// defaults noted on each field.
type TierOptions struct {
	// ObjectBlocks is the object size in blocks (default 16 = 64KB).
	// Larger objects amortize the per-request latency and price floors
	// over more bytes at the cost of coarser read amplification.
	ObjectBlocks int
	// UploadWorkers PUT that many objects concurrently (default 8), so
	// uploads ride the store's request-overlap window instead of
	// paying the full per-request latency serially.
	UploadWorkers int
	// MaxDirty bounds dirty (not yet uploaded) slots; WriteBlock stalls
	// at the bound until the uploader catches up (default 3/4 of the
	// data slots). The bound also caps the DRAM payload buffer, and half
	// of it is the watermark that arms the upload lanes.
	MaxDirty int
	// PrefetchWorkers fetch ahead concurrently, two objects each ahead of
	// the detected stream; 0 disables read-ahead.
	PrefetchWorkers int
	// StagingObjects caps the DRAM staging area (default 32 objects).
	StagingObjects int
}

const recsPerMapBlock = BlockSize / 8

const (
	recValid = uint64(1) << 63
	recDirty = uint64(1) << 62
	recBlock = (uint64(1) << 56) - 1
)

// MapBlocks returns the size of the persistent slot-map region at the
// head of a tier over an L2 device of devBlocks blocks.
func MapBlocks(devBlocks uint64) uint64 {
	return (devBlocks + recsPerMapBlock) / (recsPerMapBlock + 1)
}

// DevBlocksFor returns the smallest L2 device size whose map region
// leaves at least dataSlots data slots — the inverse of MapBlocks, for
// sizing a device from a desired L2 capacity.
func DevBlocksFor(dataSlots uint64) uint64 {
	dev := dataSlots + (dataSlots+recsPerMapBlock-1)/recsPerMapBlock
	for dev-MapBlocks(dev) < dataSlots {
		dev++
	}
	return dev
}

// NewTier attaches a tier over dev and store, spanning span addressable
// blocks. A fresh (all-zero) device attaches empty; a device carrying a
// slot map from a previous incarnation — including one cut short by a
// crash — is recovered from the map region, with dirty slots queued for
// upload again. NewTier starts the upload and prefetch pipelines; Close
// (or Crash) stops them.
func NewTier(span uint64, dev *blockdev.Device, store *Store, rec *metrics.Recorder, opts TierOptions) (*Tier, error) {
	if span == 0 {
		return nil, fmt.Errorf("objstore: zero tier span")
	}
	if opts.ObjectBlocks <= 0 {
		opts.ObjectBlocks = 16
	}
	if opts.UploadWorkers <= 0 {
		opts.UploadWorkers = 8
	}
	if opts.StagingObjects <= 0 {
		opts.StagingObjects = 32
	}
	mapBlocks := MapBlocks(dev.Blocks())
	nslots := int(dev.Blocks() - mapBlocks)
	if nslots < opts.ObjectBlocks {
		return nil, fmt.Errorf("objstore: L2 of %d blocks leaves %d data slots, need at least one object (%d blocks)",
			dev.Blocks(), nslots, opts.ObjectBlocks)
	}
	if opts.MaxDirty <= 0 {
		opts.MaxDirty = nslots * 3 / 4
	}
	if opts.MaxDirty > nslots {
		opts.MaxDirty = nslots
	}
	t := &Tier{
		dev:   dev,
		store: store,
		rec:   rec,
		span:  span,
		opts:  opts,
		// A trigger past the backpressure bound could never trip.
		uploadTrigger: min(max(opts.MaxDirty/2, 1), opts.MaxDirty),
		prefetchDepth: 2 * opts.PrefetchWorkers,
		mapBlocks:     mapBlocks,
		nslots:        nslots,
		slots:         make([]slotState, nslots),
		byBlock:       make(map[uint64]int32),
		dirtyObjs:     make(map[uint64]int),
		uploading:     make(map[uint64]bool),
		metaMu:        make([]sync.Mutex, mapBlocks),
		staging:       make(map[uint64]*stagedObj),
		fetching:      make(map[uint64]*objFetch),
	}
	t.writeCond = sync.NewCond(&t.mu)
	t.upCond = sync.NewCond(&t.mu)
	if err := t.attach(); err != nil {
		return nil, err
	}
	for w := 0; w < opts.UploadWorkers; w++ {
		t.wg.Add(1)
		go t.uploadWorker()
	}
	if opts.PrefetchWorkers > 0 {
		t.pfCh = make(chan uint64, 4*t.prefetchDepth+opts.PrefetchWorkers)
		for w := 0; w < opts.PrefetchWorkers; w++ {
			t.wg.Add(1)
			go t.prefetchWorker()
		}
	}
	return t, nil
}

// attach rebuilds the DRAM mirror from the persistent slot map.
func (t *Tier) attach() error {
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	var conflicts []uint64 // map blocks needing re-persist
	for mb := uint64(0); mb < t.mapBlocks; mb++ {
		t.dev.ReadBlock(mb, buf)
		for i := 0; i < recsPerMapBlock; i++ {
			slot := int(mb)*recsPerMapBlock + i
			if slot >= t.nslots {
				break
			}
			rec := leU64(buf[i*8:])
			if rec&recValid == 0 {
				t.freeList = append(t.freeList, int32(slot))
				continue
			}
			no := rec & recBlock
			if no >= t.span {
				return fmt.Errorf("objstore: slot %d maps block %d beyond span %d", slot, no, t.span)
			}
			st := &t.slots[slot]
			st.block, st.valid, st.dirty = no, true, rec&recDirty != 0
			if prev, dup := t.byBlock[no]; dup {
				// Two slots naming one block should be impossible
				// (in-place overwrite reuses the slot); if a damaged
				// map presents one anyway, keep the dirty record —
				// it is the one recovery must re-upload — and
				// durably retire the other.
				loser, winner := int32(slot), prev
				if st.dirty && !t.slots[prev].dirty {
					loser, winner = prev, int32(slot)
				}
				t.slots[loser].valid = false
				t.slots[loser].dirty = false
				t.freeList = append(t.freeList, loser)
				conflicts = append(conflicts, uint64(loser)/recsPerMapBlock)
				t.byBlock[no] = winner
				continue
			}
			t.byBlock[no] = int32(slot)
			if st.dirty {
				t.dirtyCnt++
				t.dirtyObjs[t.objKey(no)]++
			}
		}
	}
	for _, mb := range conflicts {
		t.persistMeta(mb)
	}
	return nil
}

// Blocks returns the tier's addressable span; the layers above size
// themselves from it exactly as from a raw device.
func (t *Tier) Blocks() uint64 { return t.span }

// DataSlots returns the L2 capacity behind the map region, in blocks.
func (t *Tier) DataSlots() int { return t.nslots }

// ObjectBlocks returns the object size in blocks.
func (t *Tier) ObjectBlocks() int { return t.opts.ObjectBlocks }

func (t *Tier) objKey(no uint64) uint64 { return no / uint64(t.opts.ObjectBlocks) }

// dataBlock maps slot index to its device block behind the map region.
func (t *Tier) dataBlock(slot int32) uint64 { return t.mapBlocks + uint64(slot) }

func (t *Tier) metaBlockOf(slot int32) uint64 { return uint64(slot) / recsPerMapBlock }

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

// persistMeta durably writes map block mb from a snapshot of the DRAM
// mirror. metaMu[mb] is held across snapshot and write, so persisted
// images of a map block are monotone in the order their snapshots were
// taken; callers must not hold t.mu.
func (t *Tier) persistMeta(mb uint64) {
	t.metaMu[mb].Lock()
	defer t.metaMu[mb].Unlock()
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	t.mu.Lock()
	for i := 0; i < recsPerMapBlock; i++ {
		slot := int(mb)*recsPerMapBlock + i
		var rec uint64
		if slot < t.nslots && t.slots[slot].valid {
			rec = recValid | t.slots[slot].block&recBlock
			if t.slots[slot].dirty {
				rec |= recDirty
			}
		}
		putLeU64(buf[i*8:], rec)
	}
	t.mu.Unlock()
	t.dev.WriteBlock(mb, buf)
}

func (t *Tier) checkSpan(no uint64) {
	if no >= t.span {
		panic(fmt.Sprintf("objstore: block %d beyond tier span %d", no, t.span))
	}
}

// WriteBlock absorbs one destaged block into L2, durably (data write,
// then map record marking the slot valid+dirty), and queues its object
// for upload. When dirty slots reach MaxDirty the call stalls until the
// uploader catches up — the bounded queue's backpressure. The retained
// DRAM payload lets the uploader assemble objects without re-reading L2.
func (t *Tier) WriteBlock(no uint64, p []byte) {
	if len(p) != BlockSize {
		panic("objstore: short write buffer")
	}
	t.checkSpan(no)
	payload := make([]byte, BlockSize)
	copy(payload, p)

	t.mu.Lock()
	for t.dirtyCnt >= t.opts.MaxDirty && !t.paused && !t.closing {
		t.backpressure.Add(1)
		t.rec.Inc(metrics.TierBackpressure)
		t.upCond.Broadcast()
		t.writeCond.Wait()
	}
	if s, ok := t.byBlock[no]; ok {
		// In-place overwrite of the existing slot. The version bump
		// under mu makes a concurrent upload's stale snapshot unable
		// to clear the dirty bit it is about to re-earn.
		st := &t.slots[s]
		st.pin++
		t.mu.Unlock()
		t.dev.WriteBlock(t.dataBlock(s), p)
		t.mu.Lock()
		st.pin--
		st.version++
		st.payload = payload
		if !st.dirty {
			st.dirty = true
			t.dirtyCnt++
			t.dirtyObjs[t.objKey(no)]++
		}
		mb := t.metaBlockOf(s)
		t.mu.Unlock()
		t.persistMeta(mb)
		t.dropStaged(t.objKey(no))
		t.upCond.Broadcast()
		return
	}
	s := t.allocSlotLocked()
	if s < 0 { // closing teardown; durability is off the table anyway
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.dev.WriteBlock(t.dataBlock(s), p)
	t.mu.Lock()
	if _, ok := t.byBlock[no]; ok {
		// The layers above order same-block write-backs (the wb flag in
		// core.writeBack); two concurrent installs of one block mean
		// that ordering broke, and silently picking one would hide it.
		panic(fmt.Sprintf("objstore: concurrent install of block %d", no))
	}
	st := &t.slots[s]
	st.block, st.valid, st.dirty = no, true, true
	st.version++
	st.payload = payload
	t.byBlock[no] = s
	t.dirtyCnt++
	t.dirtyObjs[t.objKey(no)]++
	mb := t.metaBlockOf(s)
	t.mu.Unlock()
	t.persistMeta(mb)
	t.dropStaged(t.objKey(no))
	t.upCond.Broadcast()
}

// allocSlotLocked returns a free slot in limbo: invalid, in neither the
// free list nor byBlock, so nothing else can touch it until the caller
// publishes it. Called with t.mu held; may drop and retake it to evict.
// Returns -1 only during close.
func (t *Tier) allocSlotLocked() int32 {
	for {
		if n := len(t.freeList); n > 0 {
			s := t.freeList[n-1]
			t.freeList = t.freeList[:n-1]
			return s
		}
		if t.closing {
			return -1
		}
		victims, mbs := t.selectVictimsLocked()
		if len(victims) == 0 {
			// Everything is dirty or pinned: wait for upload progress,
			// which turns dirty slots into evictable clean ones.
			t.upCond.Broadcast()
			t.writeCond.Wait()
			continue
		}
		t.mu.Unlock()
		// Ordering (3): invalidations are durable before any victim
		// slot is handed out for reuse.
		for mb := range mbs {
			t.persistMeta(mb)
		}
		t.mu.Lock()
		t.freeList = append(t.freeList, victims...)
		t.l2Evicts.Add(int64(len(victims)))
		t.rec.Add(metrics.TierL2Evicts, int64(len(victims)))
	}
}

// selectVictimsLocked unmaps a batch of clean, unpinned slots (clock
// hand), leaving them in limbo for the caller to persist and free.
func (t *Tier) selectVictimsLocked() ([]int32, map[uint64]bool) {
	const batch = 32
	var victims []int32
	mbs := make(map[uint64]bool)
	for scanned := 0; scanned < t.nslots && len(victims) < batch; scanned++ {
		s := int32(t.hand)
		t.hand = (t.hand + 1) % t.nslots
		st := &t.slots[s]
		if !st.valid || st.dirty || st.pin > 0 {
			continue
		}
		delete(t.byBlock, st.block)
		st.valid = false
		st.payload = nil
		victims = append(victims, s)
		mbs[t.metaBlockOf(s)] = true
	}
	return victims, mbs
}

// ReadBlock serves block no from L2, the staging area, or an L3 object
// fetch (deduplicated against concurrent fetches of the same object),
// feeding the access stream to the prefetcher.
func (t *Tier) ReadBlock(no uint64, p []byte) {
	if len(p) != BlockSize {
		panic("objstore: short read buffer")
	}
	t.checkSpan(no)
	t.mu.Lock()
	if s, ok := t.byBlock[no]; ok {
		st := &t.slots[s]
		if st.payload != nil { // dirty payload still buffered: DRAM hit
			copy(p, st.payload)
			t.mu.Unlock()
			t.l2Hits.Add(1)
			t.rec.Inc(metrics.TierL2Hits)
			return
		}
		st.pin++ // ordering (4): pinned across the read, not evictable
		t.mu.Unlock()
		t.dev.ReadBlock(t.dataBlock(s), p)
		t.mu.Lock()
		st.pin--
		t.mu.Unlock()
		t.l2Hits.Add(1)
		t.rec.Inc(metrics.TierL2Hits)
		return
	}
	t.mu.Unlock()

	key := t.objKey(no)
	off := int(no-key*uint64(t.opts.ObjectBlocks)) * BlockSize
	if t.stagingCopy(key, off, p) {
		t.noteAccess(key)
		return
	}
	t.l3Fetches.Add(1)
	t.rec.Inc(metrics.TierL3Fetches)
	data := t.fetchObject(key, false)
	copy(p, data[off:off+BlockSize])
	t.noteAccess(key)
}

// stagingCopy serves one block from a staged object, if present.
func (t *Tier) stagingCopy(key uint64, off int, p []byte) bool {
	t.smu.Lock()
	so, ok := t.staging[key]
	if !ok {
		t.smu.Unlock()
		return false
	}
	t.stageSeq++
	so.seq = t.stageSeq
	copy(p, so.data[off:off+BlockSize])
	pf := so.prefetched
	t.smu.Unlock()
	t.stagingHits.Add(1)
	t.rec.Inc(metrics.TierStagingHits)
	if pf {
		t.prefetchHits.Add(1)
		t.rec.Inc(metrics.TierPrefetchHits)
	}
	return true
}

// fetchObject returns object key's content (zeroes for a never-stored
// object, matching an unwritten device), deduplicating concurrent
// fetches: late arrivals wait on the in-flight request instead of
// issuing their own. The result lands in the staging area unless its
// content was superseded (a destage or upload of the object) mid-fetch.
func (t *Tier) fetchObject(key uint64, prefetched bool) []byte {
	t.smu.Lock()
	if so, ok := t.staging[key]; ok {
		t.stageSeq++
		so.seq = t.stageSeq
		d := so.data
		t.smu.Unlock()
		return d
	}
	if f, ok := t.fetching[key]; ok {
		t.smu.Unlock()
		<-f.done
		return f.data
	}
	f := &objFetch{done: make(chan struct{})}
	t.fetching[key] = f
	t.smu.Unlock()

	buf := make([]byte, t.opts.ObjectBlocks*BlockSize)
	t.store.Get(key, buf)
	f.data = buf

	t.smu.Lock()
	delete(t.fetching, key)
	if !f.stale {
		t.stageInsertLocked(key, buf, prefetched)
	}
	t.smu.Unlock()
	close(f.done)
	return buf
}

func (t *Tier) stageInsertLocked(key uint64, data []byte, prefetched bool) {
	t.stageSeq++
	t.staging[key] = &stagedObj{data: data, seq: t.stageSeq, prefetched: prefetched}
	for len(t.staging) > t.opts.StagingObjects {
		var oldKey uint64
		oldSeq := t.stageSeq + 1
		for k, so := range t.staging {
			if so.seq < oldSeq {
				oldSeq, oldKey = so.seq, k
			}
		}
		delete(t.staging, oldKey)
	}
}

// dropStaged invalidates any staged copy of object key, and poisons an
// in-flight fetch of it so its (now stale) result is not staged. Called
// whenever the object's content changes: a destage into L2, or an
// upload PUT.
func (t *Tier) dropStaged(key uint64) {
	t.smu.Lock()
	delete(t.staging, key)
	if f, ok := t.fetching[key]; ok {
		f.stale = true
	}
	t.smu.Unlock()
}

// noteAccess feeds one object access from the miss path into the stride
// detector, extending the prefetch stream when two consecutive accesses
// repeat the same object stride (+1 for sequential scans, any constant
// for strided ones).
func (t *Tier) noteAccess(key uint64) {
	if t.pfCh == nil {
		return
	}
	t.smu.Lock()
	var queue []uint64
	if t.haveLast && key != t.lastObj {
		d := int64(key) - int64(t.lastObj)
		if d == t.stride {
			t.streak++
		} else {
			t.stride, t.streak = d, 1
		}
		if t.streak >= 2 {
			maxObj := (t.span - 1) / uint64(t.opts.ObjectBlocks)
			next := int64(key)
			for i := 0; i < t.prefetchDepth; i++ {
				next += t.stride
				if next < 0 || next > int64(maxObj) {
					break
				}
				k := uint64(next)
				if _, ok := t.staging[k]; ok {
					continue
				}
				if _, ok := t.fetching[k]; ok {
					continue
				}
				queue = append(queue, k)
			}
		}
	}
	t.lastObj, t.haveLast = key, true
	t.smu.Unlock()
	for _, k := range queue {
		select {
		case t.pfCh <- k:
		default: // prefetcher saturated; the stream will re-trigger
			return
		}
	}
}

func (t *Tier) prefetchWorker() {
	defer t.wg.Done()
	for key := range t.pfCh {
		t.smu.Lock()
		_, staged := t.staging[key]
		_, inflight := t.fetching[key]
		t.smu.Unlock()
		if staged || inflight {
			continue
		}
		t.prefetches.Add(1)
		t.rec.Inc(metrics.TierPrefetches)
		t.fetchObject(key, true)
	}
}

// AdmitClean offers a clean block evicted from the cache above a home
// in L2 (the blockdev-backed half of the exclusive tier), so a re-miss
// is an L2 read instead of an object fetch. Only spare capacity is
// used: with no free slot the offer is dropped — a clean victim's
// content is by construction identical to what the store (or zero)
// already holds, so dropping loses nothing. Reports whether the block
// was admitted (or already resident).
func (t *Tier) AdmitClean(no uint64, data []byte) bool {
	if len(data) != BlockSize {
		panic("objstore: short admit buffer")
	}
	t.checkSpan(no)
	t.mu.Lock()
	if _, ok := t.byBlock[no]; ok {
		t.mu.Unlock()
		return true
	}
	n := len(t.freeList)
	if n == 0 || t.closing {
		t.mu.Unlock()
		t.admitDrops.Add(1)
		t.rec.Inc(metrics.TierAdmitDrops)
		return false
	}
	s := t.freeList[n-1]
	t.freeList = t.freeList[:n-1]
	t.mu.Unlock()
	t.dev.WriteBlock(t.dataBlock(s), data) // ordering (1): data first
	t.mu.Lock()
	if _, ok := t.byBlock[no]; ok {
		// Lost an install race for the same block; the other copy is
		// identical (clean content is unique), so just return the
		// limbo slot — its record is still durably invalid.
		t.freeList = append(t.freeList, s)
		t.mu.Unlock()
		return true
	}
	st := &t.slots[s]
	st.block, st.valid, st.dirty = no, true, false
	st.version++
	st.payload = nil
	t.byBlock[no] = s
	mb := t.metaBlockOf(s)
	t.mu.Unlock()
	t.persistMeta(mb)
	t.admits.Add(1)
	t.rec.Inc(metrics.TierAdmits)
	return true
}

type upBlock struct {
	off     int // block index within the object
	slot    int32
	version uint64
	payload []byte // nil after crash recovery: re-read from L2
}

// uploadWorker is one lane of the async upload pipeline. Each worker
// claims the object with the most dirty blocks (the compaction
// heuristic: coalesce adjacent destages into one large PUT), assembles
// it — prior object as the base for a partial rewrite, dirty payloads
// overlaid — uploads it, and clears the dirty bits whose blocks were
// not overwritten mid-flight. UploadWorkers lanes PUT concurrently, so
// the store's request-overlap window prices the pipeline like the
// batched background stream it is rather than a serial request train.
func (t *Tier) uploadWorker() {
	defer t.wg.Done()
	for {
		t.mu.Lock()
		var key uint64
		for {
			if t.closing {
				t.mu.Unlock()
				return
			}
			best := -1
			// Below the trigger watermark destages keep accumulating
			// (absorption); lanes only engage on a backlog burst, a
			// drain, or when eviction is starved for clean slots
			// (dirtyCnt == nslots >= trigger then, so the gate is open
			// whenever allocSlotLocked could be waiting on uploads).
			if !t.paused && (t.draining || t.dirtyCnt >= t.uploadTrigger) {
				for k, n := range t.dirtyObjs {
					if !t.uploading[k] && n > best {
						key, best = k, n
					}
				}
			}
			if best > 0 {
				break
			}
			t.upCond.Wait()
		}
		t.uploading[key] = true
		blocks := t.snapshotObjectLocked(key)
		t.mu.Unlock()

		t.uploadObject(key, blocks)

		t.mu.Lock()
		delete(t.uploading, key)
		t.mu.Unlock()
	}
}

// snapshotObjectLocked captures object key's dirty blocks (slot,
// version, payload) under t.mu for an upload.
func (t *Tier) snapshotObjectLocked(key uint64) []upBlock {
	var blocks []upBlock
	base := key * uint64(t.opts.ObjectBlocks)
	for i := 0; i < t.opts.ObjectBlocks; i++ {
		no := base + uint64(i)
		if no >= t.span {
			break
		}
		s, ok := t.byBlock[no]
		if !ok || !t.slots[s].dirty {
			continue
		}
		blocks = append(blocks, upBlock{off: i, slot: s,
			version: t.slots[s].version, payload: t.slots[s].payload})
	}
	return blocks
}

// uploadObject performs one object PUT and the post-PUT dirty-bit
// bookkeeping (ordering (2): PUT durable before any dirty bit clears,
// in DRAM or on the map).
func (t *Tier) uploadObject(key uint64, blocks []upBlock) {
	if len(blocks) == 0 {
		return
	}
	objBytes := t.opts.ObjectBlocks * BlockSize
	buf := make([]byte, objBytes)
	if len(blocks) < t.opts.ObjectBlocks && t.store.Contains(key) {
		// Partial rewrite of an existing object: read-modify-write.
		// Clean resident blocks need no overlay — a clean slot always
		// equals the stored (or zero) content.
		t.store.Get(key, buf)
	}
	for i := range blocks {
		dst := buf[blocks[i].off*BlockSize : (blocks[i].off+1)*BlockSize]
		if blocks[i].payload != nil {
			copy(dst, blocks[i].payload)
		} else {
			// Recovered-dirty slot (payload lost in a crash): the L2
			// copy is authoritative, read it back.
			t.dev.ReadBlock(t.dataBlock(blocks[i].slot), dst)
		}
	}
	t.store.Put(key, buf)
	t.dropStaged(key)

	mbs := make(map[uint64]bool)
	cleared := 0
	t.mu.Lock()
	base := key * uint64(t.opts.ObjectBlocks)
	for i := range blocks {
		st := &t.slots[blocks[i].slot]
		no := base + uint64(blocks[i].off)
		if !st.valid || st.block != no || !st.dirty || st.version != blocks[i].version {
			continue // overwritten mid-flight; stays dirty, re-uploads
		}
		st.dirty = false
		st.payload = nil
		t.dirtyCnt--
		cleared++
		if t.dirtyObjs[key]--; t.dirtyObjs[key] == 0 {
			delete(t.dirtyObjs, key)
		}
		mbs[t.metaBlockOf(blocks[i].slot)] = true
	}
	t.writeCond.Broadcast()
	t.mu.Unlock()
	for mb := range mbs {
		t.persistMeta(mb)
	}
	t.uploads.Add(1)
	t.uploadBlocks.Add(int64(cleared))
	t.rec.Inc(metrics.TierUploads)
	t.rec.Add(metrics.TierUploadBlocks, int64(cleared))
	t.rec.Observe(metrics.HistTierUploadObj, t.store.serviceNS(objBytes))
}

// Pause stops (true) or resumes (false) the upload pipeline, for
// measuring foreground cost with the uploader idle. While paused the
// dirty bound is not enforced (backpressure against a stopped consumer
// would deadlock), so dirty state may exceed MaxDirty.
func (t *Tier) Pause(p bool) {
	t.mu.Lock()
	t.paused = p
	t.mu.Unlock()
	t.upCond.Broadcast()
	t.writeCond.Broadcast()
}

// Drain blocks until every dirty block has been durably uploaded. The
// uploader must not be paused.
func (t *Tier) Drain() {
	t.mu.Lock()
	t.draining = true
	t.upCond.Broadcast()
	for t.dirtyCnt > 0 && !t.closing {
		t.writeCond.Wait()
	}
	t.draining = false
	t.mu.Unlock()
}

// Close stops the pipelines without flushing: dirty blocks stay in L2
// under the durable slot map and are queued for upload again on the
// next attach — exactly the crash contract, which is why Crash is an
// alias. In-flight uploads complete (an upload that finished before
// the lights went out is durable; one that did not leaves the dirty
// bit set). Close does not drain; call Drain first for a clean handoff
// with an empty L2 dirty set.
func (t *Tier) Close() {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return
	}
	t.closing = true
	t.mu.Unlock()
	t.upCond.Broadcast()
	t.writeCond.Broadcast()
	if t.pfCh != nil {
		close(t.pfCh)
	}
	t.wg.Wait()
}

// Crash simulates power loss: stop everything, flush nothing. The
// durable state (L2 device + object store) is what recovery sees.
func (t *Tier) Crash() { t.Close() }

// TierStats is a typed snapshot of the tier's counters and gauges.
type TierStats struct {
	L2Hits       int64
	StagingHits  int64
	L3Fetches    int64
	Prefetches   int64
	PrefetchHits int64
	Uploads      int64 // object PUTs issued by the uploader
	UploadBlocks int64 // dirty blocks those PUTs cleaned
	L2Evicts     int64
	Admits       int64
	AdmitDrops   int64
	Backpressure int64 // writes stalled on the dirty bound

	DataSlots     int // L2 capacity (gauges below are instantaneous)
	DirtySlots    int
	FreeSlots     int
	StagedObjects int
}

// Stats returns the tier's typed counters.
func (t *Tier) Stats() TierStats {
	st := TierStats{
		L2Hits:       t.l2Hits.Load(),
		StagingHits:  t.stagingHits.Load(),
		L3Fetches:    t.l3Fetches.Load(),
		Prefetches:   t.prefetches.Load(),
		PrefetchHits: t.prefetchHits.Load(),
		Uploads:      t.uploads.Load(),
		UploadBlocks: t.uploadBlocks.Load(),
		L2Evicts:     t.l2Evicts.Load(),
		Admits:       t.admits.Load(),
		AdmitDrops:   t.admitDrops.Load(),
		Backpressure: t.backpressure.Load(),
		DataSlots:    t.nslots,
	}
	t.mu.Lock()
	st.DirtySlots = t.dirtyCnt
	st.FreeSlots = len(t.freeList)
	t.mu.Unlock()
	t.smu.Lock()
	st.StagedObjects = len(t.staging)
	t.smu.Unlock()
	return st
}

var _ blockdev.Store = (*Tier)(nil)
