package fs

import "tinca/internal/bufpool"

// This file is the file-system half of the zero-copy read API: ReadAtView
// hands out windows onto file bytes without the per-call copy ReadAt
// pays. When the backend advertises ViewReader (the Tinca stack), a view
// of committed data aliases the pinned NVM block directly; otherwise —
// and for bytes the backend cannot serve, like staged-but-uncommitted
// blocks or holes — the view degrades to a private copy (or the shared
// zero block) with identical semantics.

// zeroBlock backs hole reads: one shared, never-written block of zeroes.
var zeroBlock [BlockSize]byte

// FileView is a read-only window onto a contiguous byte range of one
// file, entirely within one 4KB block (ReadAtView never crosses a block
// boundary — callers loop for longer ranges). Bytes is a stable snapshot
// of the range at ReadAtView time, valid until Close even across
// concurrent writes and cache evictions. A FileView must not be copied
// after first use and must be Closed exactly once; it must be closed
// before a simulated Crash/Remount of the stack it came from.
type FileView struct {
	data   []byte
	bv     BlockView // non-nil when backed by a pinned backend view
	owned  []byte    // non-nil when data lives in a private bufpool copy
	closed bool
}

// Bytes returns the viewed range (nil after Close). The slice must not
// be written to and must not outlive Close.
func (v *FileView) Bytes() []byte {
	if v.closed {
		return nil
	}
	return v.data
}

// Len returns the number of viewed bytes (0 after Close).
func (v *FileView) Len() int { return len(v.Bytes()) }

// ZeroCopy reports whether the view aliases backend (NVM) bytes rather
// than a private copy.
func (v *FileView) ZeroCopy() bool { return v.bv != nil && !v.closed }

// Close releases the view (dropping the backend pin or recycling the
// copy). Returns ErrViewExpired if already closed.
func (v *FileView) Close() error {
	if v.closed {
		return ErrViewExpired
	}
	v.closed = true
	v.data = nil
	if v.bv != nil {
		bv := v.bv
		v.bv = nil
		return bv.Close()
	}
	if v.owned != nil {
		bufpool.Put(v.owned)
		v.owned = nil
	}
	return nil
}

// ReadAtView returns a view of up to n bytes of the file at path,
// starting at byte offset off. The view stops at the end of the
// containing 4KB block (and at EOF), so it may be shorter than n —
// callers iterate, advancing off by Len(), exactly as with short reads.
// Reading at or past EOF returns ErrReadRange, like ReadAt.
//
// On a Tinca-backed stack a view of committed data is zero-copy: the
// bytes alias the NVM cache block, pinned until Close. Bytes the backend
// cannot serve stably — a hole, or data still staged in the open FS
// group transaction — come as a private copy (the page cache is bypassed
// either way; it exists to absorb the copying path's backend reads).
func (f *FS) ReadAtView(path string, off uint64, n int) (FileView, error) {
	var view FileView
	err := f.runRead(func(ctx *opCtx) error {
		in, want, err := ctx.readRange(path, off, uint64(n))
		if err != nil {
			return err
		}
		bo := int(off % BlockSize)
		if maxInBlock := uint64(BlockSize - bo); want > maxInBlock {
			want = maxInBlock
		}
		if want == 0 {
			view = FileView{data: zeroBlock[:0]}
			return nil
		}
		_, phys, err := ctx.bmap(in, off/BlockSize, false)
		if err != nil {
			return err
		}
		if phys == 0 {
			// A hole: every byte reads as zero, and nothing can write the
			// range without allocating a fresh block, so the shared zero
			// block is a stable snapshot.
			view = FileView{data: zeroBlock[bo : bo+int(want)]}
			return nil
		}
		if d, ok := f.staged[phys]; ok {
			// Staged in the open group transaction: not committed to the
			// backend yet, so serve a private copy of the staged bytes.
			buf := bufpool.Get()
			copy(buf, d)
			view = FileView{data: buf[bo : bo+int(want)], owned: buf}
			return nil
		}
		if f.vr != nil {
			bv, err := f.vr.ReadBlockView(phys)
			if err != nil {
				return err
			}
			view = FileView{data: bv.Bytes()[bo : bo+int(want)], bv: bv}
			return nil
		}
		buf := bufpool.Get()
		if err := ctx.readBlock(phys, buf); err != nil {
			bufpool.Put(buf)
			return err
		}
		view = FileView{data: buf[bo : bo+int(want)], owned: buf}
		return nil
	})
	return view, err
}

// ReadAtView serves the handle's file through FS.ReadAtView.
func (h *File) ReadAtView(off uint64, n int) (FileView, error) {
	return h.fs.ReadAtView(h.path, off, n)
}
