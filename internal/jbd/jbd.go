// Package jbd implements a JBD2-style redo journal, the consistency
// mechanism of the paper's "Classic" competitor (Ext4 with data
// journalling, Section 2.3).
//
// The journal occupies a contiguous block range of the underlying device
// (which, in the Classic stack, is fronted by the Flashcache-style NVM
// cache — so every journal write is also a cached NVM write, reproducing
// the double-write amplification of Figure 3).
//
// On-disk format (Figure 2(b) of the paper): a journal superblock followed
// by a ring of transactions, each made of one or more descriptor blocks
// (tagging the home locations of the logged blocks), the log blocks
// themselves, and a commit block that seals the transaction. Committed
// transactions are later *checkpointed*: their blocks are written a second
// time, to their home locations, and the journal tail advances.
package jbd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"tinca/internal/blockdev"
	"tinca/internal/bufpool"
	"tinca/internal/metrics"
	"tinca/internal/sim"
)

// BlockSize is the journal block size (4KB, same as the file system).
const BlockSize = blockdev.BlockSize

// BlockStore is the device interface the journal runs on. Both the
// Classic cache and a raw disk adapter satisfy it.
type BlockStore interface {
	ReadBlock(no uint64, p []byte) error
	WriteBlock(no uint64, p []byte) error
}

// Journal block types.
const (
	jMagic     uint32 = 0x4a424432 // "JBD2"
	typeDesc   uint32 = 1
	typeCommit uint32 = 2
	typeSuper  uint32 = 3
	typeRevoke uint32 = 4
)

// tagsPerDesc is how many home-block tags fit one descriptor block
// (header: magic, type, seq, count = 4×8B for alignment simplicity).
const tagsPerDesc = (BlockSize - 32) / 8

// Errors.
var (
	ErrTooLarge = errors.New("jbd: transaction larger than journal")
	ErrClosed   = errors.New("jbd: journal closed")
)

// Update is one block mutation in a transaction.
type Update struct {
	No   uint64 // home (file system) block number
	Data []byte // BlockSize bytes
}

// Txn is a full journal transaction: block updates plus the home blocks
// the transaction *revokes* (freed by truncate/unlink — Figure 2(b)'s
// revoke block). Replay must not resurrect an earlier logged version of a
// revoked block.
type Txn struct {
	Updates []Update
	Revoked []uint64
}

// committedTxn tracks a committed-but-not-checkpointed transaction.
type committedTxn struct {
	seq    uint64
	homes  []uint64
	endPos uint64 // monotonic journal position just past this txn
}

// Journal is a redo journal over a BlockStore. All methods are safe for
// concurrent use; commits are serialized.
type Journal struct {
	mu    sync.Mutex
	store BlockStore
	rec   *metrics.Recorder

	start  uint64 // first device block of the journal area (superblock)
	blocks uint64 // total journal area length in blocks (incl. superblock)
	area   uint64 // ring size = blocks-1

	seq       uint64            // sequence of the next transaction to commit
	head      uint64            // monotonic next-free ring position
	tail      uint64            // monotonic oldest live ring position
	tailSeq   uint64            // sequence of the oldest un-checkpointed txn
	pending   map[uint64][]byte // home block -> latest committed data
	pendingBy map[uint64]uint64 // home block -> seq of latest committer
	live      []committedTxn

	// Commit-phase observation (Options.Observe): simulated-ns histograms
	// for the log-write phase, the commit record, checkpointing and the
	// whole CommitTxn, mirroring the per-phase breakdown the Tinca commit
	// pipeline records so the two designs can be compared phase by phase.
	clock                         *sim.Clock
	hLog, hCommitBlk, hCkpt, hTxn *metrics.Histogram

	closed bool
}

// Options configure a Journal.
type Options struct {
	// Start is the first device block of the journal area.
	Start uint64
	// Blocks is the journal area length (superblock + ring). Must be at
	// least 8.
	Blocks uint64
	// Observe enables commit-phase latency histograms (jbd.* names in the
	// shared Recorder), measured on Clock. Both must be set; off by
	// default, costing the commit path nothing.
	Observe bool
	// Clock is the simulated clock phases are measured on (required for
	// Observe; the journal itself never charges time to it — the devices
	// below do).
	Clock *sim.Clock
}

// Open creates or recovers a journal on store. If the superblock is
// present, recovery replays every sealed transaction (Section 2.3);
// otherwise the journal is formatted.
func Open(store BlockStore, rec *metrics.Recorder, opts Options) (*Journal, error) {
	if opts.Blocks < 8 {
		return nil, fmt.Errorf("jbd: journal of %d blocks is too small", opts.Blocks)
	}
	j := &Journal{
		store:     store,
		rec:       rec,
		start:     opts.Start,
		blocks:    opts.Blocks,
		area:      opts.Blocks - 1,
		seq:       1,
		tailSeq:   1,
		pending:   make(map[uint64][]byte),
		pendingBy: make(map[uint64]uint64),
	}
	if opts.Observe && opts.Clock != nil {
		j.clock = opts.Clock
		j.hLog = rec.Hist(metrics.HistJBDLog)
		j.hCommitBlk = rec.Hist(metrics.HistJBDCommitBlk)
		j.hCkpt = rec.Hist(metrics.HistJBDCheckpoint)
		j.hTxn = rec.Hist(metrics.HistJBDCommit)
	}
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	if err := store.ReadBlock(j.start, buf); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(buf[0:4]) == jMagic &&
		binary.LittleEndian.Uint32(buf[4:8]) == typeSuper {
		if err := j.recover(buf); err != nil {
			return nil, err
		}
	} else {
		if err := j.writeSuper(); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// ringBlock maps a monotonic ring position to a device block number.
func (j *Journal) ringBlock(pos uint64) uint64 {
	return j.start + 1 + pos%j.area
}

func (j *Journal) freeSpace() uint64 { return j.area - (j.head - j.tail) }

// writeSuper persists the journal superblock. The recovery-critical pair
// (tailSeq, tail) is packed into ONE aligned 8-byte word: on the memory
// bus, separate words of a block write can persist independently across a
// crash, and a torn pair would make recovery scan from the wrong place
// and silently drop sealed transactions. Packing bounds both values to 32
// bits — JBD2 itself uses 32-bit sequence numbers — and Commit/checkpoint
// guard the bound explicitly.
func (j *Journal) writeSuper() error {
	if j.tailSeq > maxSuper32 || j.tail > maxSuper32 {
		return fmt.Errorf("jbd: journal epoch overflow (tailSeq %d, tail %d)", j.tailSeq, j.tail)
	}
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:4], jMagic)
	binary.LittleEndian.PutUint32(buf[4:8], typeSuper)
	binary.LittleEndian.PutUint64(buf[8:16], j.tailSeq<<32|j.tail)
	j.rec.Inc(metrics.JournalMeta)
	return j.store.WriteBlock(j.start, buf)
}

// maxSuper32 bounds the packed superblock fields.
const maxSuper32 = 1<<32 - 1

// spaceNeeded returns the journal blocks one transaction of n updates and
// r revocations occupies: descriptors + log blocks + revoke blocks +
// commit block.
func spaceNeeded(n, r int) uint64 {
	descs := (n + tagsPerDesc - 1) / tagsPerDesc
	if n == 0 {
		descs = 0
	}
	revs := (r + tagsPerDesc - 1) / tagsPerDesc
	return uint64(descs + n + revs + 1)
}

// Commit seals the given updates as one journal transaction: descriptor
// block(s), the log copies of the data, then the commit block. When the
// journal is too full, the oldest transactions are checkpointed first.
func (j *Journal) Commit(updates []Update) error {
	return j.CommitTxn(Txn{Updates: updates})
}

// CommitTxn seals a transaction that may also revoke blocks. Revoke
// records are written before the commit block, exactly as JBD2 places its
// revoke blocks inside the transaction.
func (j *Journal) CommitTxn(txn Txn) error {
	updates := txn.Updates
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if len(updates) == 0 && len(txn.Revoked) == 0 {
		return nil
	}
	need := spaceNeeded(len(updates), len(txn.Revoked))
	if need > j.area {
		return ErrTooLarge
	}
	var tTxn int64
	if j.clock != nil {
		tTxn = int64(j.clock.Now())
		defer func() { j.hTxn.Record(int64(j.clock.Now()) - tTxn) }()
	}
	for j.freeSpace() < need {
		if err := j.checkpointOldest(); err != nil {
			return err
		}
	}

	seq := j.seq
	homes := make([]uint64, len(updates))
	for i, u := range updates {
		homes[i] = u.No
	}

	// Descriptor blocks, each tagging up to tagsPerDesc updates, followed
	// by the corresponding log blocks.
	var tLog int64
	if j.clock != nil {
		tLog = int64(j.clock.Now())
	}
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	for base := 0; base < len(updates); base += tagsPerDesc {
		n := len(updates) - base
		if n > tagsPerDesc {
			n = tagsPerDesc
		}
		for i := range buf {
			buf[i] = 0
		}
		binary.LittleEndian.PutUint32(buf[0:4], jMagic)
		binary.LittleEndian.PutUint32(buf[4:8], typeDesc)
		binary.LittleEndian.PutUint64(buf[8:16], seq)
		binary.LittleEndian.PutUint64(buf[16:24], uint64(n))
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[32+8*i:], updates[base+i].No)
		}
		if err := j.store.WriteBlock(j.ringBlock(j.head), buf); err != nil {
			return err
		}
		j.head++
		j.rec.Inc(metrics.JournalMeta)
		for i := 0; i < n; i++ {
			u := updates[base+i]
			if len(u.Data) != BlockSize {
				return fmt.Errorf("jbd: update for block %d has %d bytes", u.No, len(u.Data))
			}
			if err := j.store.WriteBlock(j.ringBlock(j.head), u.Data); err != nil {
				return err
			}
			j.head++
			j.rec.Inc(metrics.JournalBlocks)
		}
	}

	// Revoke blocks, each listing up to tagsPerDesc revoked home blocks.
	for base := 0; base < len(txn.Revoked); base += tagsPerDesc {
		n := len(txn.Revoked) - base
		if n > tagsPerDesc {
			n = tagsPerDesc
		}
		for i := range buf {
			buf[i] = 0
		}
		binary.LittleEndian.PutUint32(buf[0:4], jMagic)
		binary.LittleEndian.PutUint32(buf[4:8], typeRevoke)
		binary.LittleEndian.PutUint64(buf[8:16], seq)
		binary.LittleEndian.PutUint64(buf[16:24], uint64(n))
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[32+8*i:], txn.Revoked[base+i])
		}
		if err := j.store.WriteBlock(j.ringBlock(j.head), buf); err != nil {
			return err
		}
		j.head++
		j.rec.Inc(metrics.JournalMeta)
	}

	var tCommitBlk int64
	if j.clock != nil {
		tCommitBlk = int64(j.clock.Now())
		j.hLog.Record(tCommitBlk - tLog)
	}

	// Commit block seals the transaction. The store is synchronous, so
	// everything above is durable before this write begins (the flush
	// barrier JBD2 issues before its commit block).
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:4], jMagic)
	binary.LittleEndian.PutUint32(buf[4:8], typeCommit)
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	if err := j.store.WriteBlock(j.ringBlock(j.head), buf); err != nil {
		return err
	}
	j.head++
	j.rec.Inc(metrics.JournalMeta)
	j.rec.Inc(metrics.JournalCommit)
	if j.clock != nil {
		j.hCommitBlk.Record(int64(j.clock.Now()) - tCommitBlk)
	}

	// Bookkeeping: this transaction now owns the latest version of its
	// blocks until a later transaction overwrites them; revoked blocks
	// lose any pending version (their contents are dead).
	for _, u := range updates {
		d := make([]byte, BlockSize)
		copy(d, u.Data)
		j.pending[u.No] = d
		j.pendingBy[u.No] = seq
	}
	for _, no := range txn.Revoked {
		delete(j.pending, no)
		delete(j.pendingBy, no)
	}
	j.live = append(j.live, committedTxn{seq: seq, homes: homes, endPos: j.head})
	j.seq++
	return nil
}

// checkpointOldest writes the oldest committed transaction's blocks to
// their home locations (the second write of the double-write pair) and
// advances the journal tail. Blocks superseded by a later transaction are
// skipped, exactly as JBD2 skips buffers that migrated to a newer
// transaction.
func (j *Journal) checkpointOldest() error {
	if len(j.live) == 0 {
		return errors.New("jbd: journal full with nothing to checkpoint")
	}
	if j.clock != nil {
		t0 := int64(j.clock.Now())
		defer func() { j.hCkpt.Record(int64(j.clock.Now()) - t0) }()
	}
	t := j.live[0]
	for _, home := range t.homes {
		if j.pendingBy[home] != t.seq {
			continue // a later transaction owns this block now
		}
		if err := j.store.WriteBlock(home, j.pending[home]); err != nil {
			return err
		}
		j.rec.Inc(metrics.JournalCkptBlks)
		delete(j.pending, home)
		delete(j.pendingBy, home)
	}
	j.live = j.live[1:]
	j.tail = t.endPos
	j.tailSeq = t.seq + 1
	return j.writeSuper()
}

// MaybeCheckpoint checkpoints old transactions until at most frac of the
// ring is occupied. The file system calls it after commits, modelling
// JBD2's kjournald background work.
func (j *Journal) MaybeCheckpoint(frac float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	for float64(j.head-j.tail) > frac*float64(j.area) && len(j.live) > 0 {
		if err := j.checkpointOldest(); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointAll drains the journal completely (unmount path).
func (j *Journal) CheckpointAll() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	for len(j.live) > 0 {
		if err := j.checkpointOldest(); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlock serves a read with read-your-committed-writes semantics: the
// latest committed (possibly un-checkpointed) version wins over the home
// location.
func (j *Journal) ReadBlock(no uint64, p []byte) error {
	j.mu.Lock()
	if d, ok := j.pending[no]; ok {
		copy(p, d)
		j.mu.Unlock()
		return nil
	}
	j.mu.Unlock()
	return j.store.ReadBlock(no, p)
}

// Close drains and closes the journal.
func (j *Journal) Close() error {
	if err := j.CheckpointAll(); err != nil {
		return err
	}
	j.mu.Lock()
	j.closed = true
	j.mu.Unlock()
	return nil
}

// PendingBlocks reports how many committed blocks await checkpointing
// (for tests).
func (j *Journal) PendingBlocks() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// recover scans the ring from the persisted tail, replaying every sealed
// transaction to its home location and discarding a trailing unsealed
// transaction (redo journalling, Section 2.3). Like JBD2, recovery is two
// passes: the first collects sealed transactions and revocation records;
// the second replays logged blocks, skipping any block revoked by the
// same or a later transaction (replay must not resurrect freed contents).
func (j *Journal) recover(super []byte) error {
	packed := binary.LittleEndian.Uint64(super[8:16])
	j.tailSeq = packed >> 32
	j.tail = packed & maxSuper32
	if j.tailSeq == 0 {
		j.tailSeq = 1
	}
	j.head = j.tail
	j.seq = j.tailSeq

	type logged struct {
		home uint64
		data []byte
	}
	type sealedTxn struct {
		seq    uint64
		blocks []logged
	}

	var txns []sealedTxn
	revokedBy := make(map[uint64]uint64) // home block -> highest revoking seq

	pos := j.tail
	expect := j.tailSeq
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	for pos-j.tail < j.area {
		var txn sealedTxn
		txn.seq = expect
		var revs []uint64
		p := pos
		sealed := false
	scan:
		for p-j.tail < j.area {
			if err := j.store.ReadBlock(j.ringBlock(p), buf); err != nil {
				return err
			}
			if binary.LittleEndian.Uint32(buf[0:4]) != jMagic ||
				binary.LittleEndian.Uint64(buf[8:16]) != expect {
				break scan // unsealed tail: discard
			}
			switch binary.LittleEndian.Uint32(buf[4:8]) {
			case typeDesc:
				n := int(binary.LittleEndian.Uint64(buf[16:24]))
				if n <= 0 || n > tagsPerDesc {
					break scan
				}
				homes := make([]uint64, n)
				for i := 0; i < n; i++ {
					homes[i] = binary.LittleEndian.Uint64(buf[32+8*i:])
				}
				p++
				for i := 0; i < n; i++ {
					if p-j.tail >= j.area {
						break scan
					}
					d := make([]byte, BlockSize)
					if err := j.store.ReadBlock(j.ringBlock(p), d); err != nil {
						return err
					}
					txn.blocks = append(txn.blocks, logged{home: homes[i], data: d})
					p++
				}
			case typeRevoke:
				n := int(binary.LittleEndian.Uint64(buf[16:24]))
				if n <= 0 || n > tagsPerDesc {
					break scan
				}
				for i := 0; i < n; i++ {
					revs = append(revs, binary.LittleEndian.Uint64(buf[32+8*i:]))
				}
				p++
			case typeCommit:
				p++
				sealed = true
				break scan
			default:
				break scan
			}
		}
		if !sealed {
			break
		}
		txns = append(txns, txn)
		for _, no := range revs {
			if revokedBy[no] < expect {
				revokedBy[no] = expect
			}
		}
		pos = p
		expect++
	}

	// Pass 2: replay in order, honoring revocations.
	for _, txn := range txns {
		for _, l := range txn.blocks {
			if rs, ok := revokedBy[l.home]; ok && rs >= txn.seq {
				continue // revoked by this or a later transaction
			}
			if err := j.store.WriteBlock(l.home, l.data); err != nil {
				return err
			}
			j.rec.Inc(metrics.JournalCkptBlks)
		}
	}

	// Everything replayed; reset to an empty journal at the scan point.
	j.tail = pos
	j.head = pos
	j.tailSeq = expect
	j.seq = expect
	return j.writeSuper()
}
