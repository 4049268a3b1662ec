package core

import (
	"fmt"

	"tinca/internal/metrics"
)

// Txn is a running transaction (Section 4.4): an ordered set of 4KB block
// updates staged in DRAM. Running transactions are pure DRAM state, so any
// number of them build up concurrently without touching cache locks; only
// Commit enters the (group-) commit pipeline. A Txn is not safe for
// concurrent use by multiple goroutines; use one Txn per writer.
type Txn struct {
	c      *Cache
	blocks map[uint64][]byte
	order  []uint64
	done   bool

	// sealSeq is the generation of the seal this transaction was
	// committed under (0 until a seal claims it). Written under the seal
	// locks of the transaction's rings.
	sealSeq uint64
}

// SealSeq returns the sequence number of the seal that committed (or was
// committing) this transaction, or 0 if no seal has claimed it yet. A
// crash harness compares it against the largest value Options.SealHook
// reported: seals at or below that value reached their commit point, so
// every transaction they claimed must be durable; transactions with a
// larger (or zero) SealSeq must be absent. Read it only after Commit
// returned or after the committing goroutines were joined.
func (t *Txn) SealSeq() uint64 { return t.sealSeq }

// Begin initiates a running transaction (tinca_init_txn).
func (c *Cache) Begin() *Txn {
	return &Txn{c: c, blocks: make(map[uint64][]byte)}
}

// Write stages the new contents of disk block no. Writing the same block
// twice in one transaction keeps the latest contents (the file system
// coalesces updates per transaction, as JBD2 does).
func (t *Txn) Write(no uint64, data []byte) {
	if t.done {
		panic("core: Write on finished transaction")
	}
	if len(data) != BlockSize {
		panic(fmt.Sprintf("core: transaction block must be %d bytes", BlockSize))
	}
	if no > maxDiskBlock {
		panic("core: disk block number exceeds 7 bytes")
	}
	buf, ok := t.blocks[no]
	if !ok {
		buf = make([]byte, BlockSize)
		t.blocks[no] = buf
		t.order = append(t.order, no)
	}
	copy(buf, data)
}

// Len reports how many distinct blocks are staged.
func (t *Txn) Len() int { return len(t.order) }

// Abort discards the running transaction (tinca_abort). Nothing has been
// written to NVM for a running transaction, so this is purely a DRAM
// operation; blocks partially committed by a crashed commit are revoked by
// recovery instead.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.blocks = nil
	t.order = nil
	t.c.rec.Inc(metrics.TxnAbort)
}

// Commit makes the running transaction durable and atomic following the
// commit protocol of Section 4.4:
//
//  1. for each block: write the data into a newly allocated NVM block
//     (COW for hits) and persist it; atomically persist the block's cache
//     entry with the log role and both NVM locations;
//  2. record the on-disk block number in the ring slot Head points at and
//     advance Head (8B atomic persists);
//  3. after all blocks: switch every block's role to buffer, releasing
//     the previous versions;
//  4. set Tail = Head; this atomic store is the commit point.
//
// Concurrently arriving Commits coalesce into a single seal (see seal.go):
// the protocol's persist order is kept but its fences and pointer flips
// are paid once per batch; a lone Commit is a batch of one.
//
// On success all staged blocks are durable and atomic: after any crash,
// either every block of this transaction is visible or none is.
func (t *Txn) Commit() error {
	if t.done {
		panic("core: Commit on finished transaction")
	}
	c := t.c
	c.checkPoison()
	if c.closed.Load() {
		return ErrClosed
	}
	if len(t.order) == 0 {
		t.done = true
		return nil
	}
	// Per-ring capacity checks and routing live in commitMultiRing.
	return c.commitMultiRing(t)
}

// CommitBlocks is a convenience wrapper committing the given blocks as one
// transaction. The bufs slice parallels nos.
func (c *Cache) CommitBlocks(nos []uint64, bufs [][]byte) error {
	t := c.Begin()
	for i, no := range nos {
		t.Write(no, bufs[i])
	}
	return t.Commit()
}
