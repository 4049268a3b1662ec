package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestSealFallbackSoloSeals builds a queued batch whose merged write set
// cannot be allocated in a tiny cache although every transaction alone
// can: the merged plan must fail with nothing persisted and nothing left
// pinned or allocated, every transaction must then commit through a seal
// of its own, and TxnAbort must count only the transaction that cannot be
// allocated alone either. The fallback is the same code at every ring
// count; the blocks are all ≡ 0 (mod 16), so at R=4 they share ring 0 and
// take the queued single-ring route.
func TestSealFallbackSoloSeals(t *testing.T) {
	for _, rings := range []int{1, 4} {
		t.Run(fmt.Sprintf("rings=%d", rings), func(t *testing.T) {
			r := newRig(t, 96<<10, Options{RingBytes: 4096, CommitRings: rings})
			c := r.cache
			capacity := c.Capacity()
			n := capacity/2 + 1 // two of these overflow the cache, one fits
			mk := func(first, blocks int, fill byte) *commitReq {
				txn := c.Begin()
				for b := 0; b < blocks; b++ {
					txn.Write(uint64(16*(first+b)), blockOf(fill))
				}
				return &commitReq{t: txn}
			}
			fits := []*commitReq{mk(0, n, 'x'), mk(100, n, 'y')}
			tooBig := mk(200, capacity+1, 'z')
			if capacity+1 > c.Layout().RingSlots {
				t.Fatalf("capacity %d does not fit the %d-slot ring; the oversized txn would be rejected before the seal", capacity, c.Layout().RingSlots)
			}

			rs := &c.rings[0]
			rs.mu.Lock()
			before := r.mem.PersistOps()
			err := c.sealRings(rs.only[:], fits, 0, 0)
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("merged plan of %d blocks in a %d-block cache: %v, want ErrNoSpace", 2*n, capacity, err)
			}
			if got := r.mem.PersistOps(); got != before {
				t.Fatalf("the failed merged plan issued %d persist ops", got-before)
			}
			if got := c.FreeBlocks(); got != capacity {
				t.Fatalf("the failed merged plan left %d of %d blocks allocated", capacity-got, capacity)
			}

			batch := append(append([]*commitReq{}, fits...), tooBig)
			pv := c.runRingSealLocked(rs.only[:], batch, 0, 0)
			rs.mu.Unlock()
			if pv != nil {
				t.Fatalf("seal panicked: %v", pv)
			}
			for i, q := range fits {
				if q.err != nil {
					t.Fatalf("txn %d fits alone but failed: %v", i, q.err)
				}
				if q.t.SealSeq() == 0 {
					t.Fatalf("txn %d committed without a seal generation", i)
				}
			}
			if fits[0].t.SealSeq() == fits[1].t.SealSeq() {
				t.Fatal("both transactions carry one generation: they were not sealed solo")
			}
			if !errors.Is(tooBig.err, ErrNoSpace) {
				t.Fatalf("txn of capacity+1 blocks: %v, want ErrNoSpace", tooBig.err)
			}
			st := c.Stats()
			if st.Aborts != 1 || st.Commits != 2 || st.GroupSeals != 2 || st.GroupedTxns != 2 {
				t.Fatalf("aborts=%d commits=%d seals=%d sealed txns=%d, want 1/2/2/2",
					st.Aborts, st.Commits, st.GroupSeals, st.GroupedTxns)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < n; b++ {
				if !bytes.Equal(mustRead(t, c, uint64(16*b)), blockOf('x')) ||
					!bytes.Equal(mustRead(t, c, uint64(16*(100+b))), blockOf('y')) {
					t.Fatalf("block %d of a solo-sealed transaction reads back wrong", b)
				}
			}
			if got := mustRead(t, c, 16*200); !bytes.Equal(got, make([]byte, BlockSize)) {
				t.Fatal("the aborted transaction left data behind")
			}
		})
	}
}
