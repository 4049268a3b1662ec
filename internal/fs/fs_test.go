package fs

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// memBackend is a trivial in-memory backend with atomic transactions, for
// testing the file system logic in isolation from the cache stacks.
type memBackend struct {
	mu     sync.Mutex
	blocks map[uint64][]byte
}

func newMemBackend() *memBackend { return &memBackend{blocks: make(map[uint64][]byte)} }

func (m *memBackend) ReadBlock(no uint64, p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.blocks[no]; ok {
		copy(p, b)
		return nil
	}
	for i := range p {
		p[i] = 0
	}
	return nil
}

func (m *memBackend) Begin() BackendTxn { return &memTxn{m: m, w: make(map[uint64][]byte)} }
func (m *memBackend) Sync() error       { return nil }
func (m *memBackend) Close() error      { return nil }

type memTxn struct {
	m *memBackend
	w map[uint64][]byte
}

func (t *memTxn) Write(no uint64, data []byte) {
	d := make([]byte, len(data))
	copy(d, data)
	t.w[no] = d
}

func (t *memTxn) Revoke(uint64) {}

func (t *memTxn) Commit() error {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	for no, d := range t.w {
		t.m.blocks[no] = d
	}
	return nil
}

func (t *memTxn) Abort() {}

func newFSForTest(t *testing.T, blocks uint64, opts Options) *FS {
	t.Helper()
	f, err := Format(newMemBackend(), blocks, 0, opts)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return f
}

func TestCreateStatRemove(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	if err := f.Create("/a.txt"); err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir || info.Size != 0 {
		t.Fatalf("info = %+v", info)
	}
	if err := f.Create("/a.txt"); err != ErrExist {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := f.Remove("/a.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/a.txt"); err != ErrNotExist {
		t.Fatalf("stat after remove: %v", err)
	}
	if err := f.Remove("/a.txt"); err != ErrNotExist {
		t.Fatalf("double remove: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	if err := f.Create("/data"); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 3*BlockSize+123)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := f.WriteAt("/data", 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadFile("/data")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnalignedWrites(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	f.Create("/u")
	// Overlapping unaligned writes; compare against an in-memory model.
	model := make([]byte, 0)
	write := func(off uint64, data []byte) {
		if err := f.WriteAt("/u", off, data); err != nil {
			t.Fatal(err)
		}
		if int(off)+len(data) > len(model) {
			model = append(model, make([]byte, int(off)+len(data)-len(model))...)
		}
		copy(model[off:], data)
	}
	write(100, bytes.Repeat([]byte{1}, 5000))
	write(4000, bytes.Repeat([]byte{2}, 300))
	write(0, bytes.Repeat([]byte{3}, 50))
	write(8180, bytes.Repeat([]byte{4}, 20))
	got, err := f.ReadFile("/u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("unaligned write mismatch")
	}
}

func TestSparseFileHolesReadZero(t *testing.T) {
	f := newFSForTest(t, 8192, Options{})
	f.Create("/sparse")
	// Write one block far into the file: everything before is a hole.
	off := uint64(50 * BlockSize)
	if err := f.WriteAt("/sparse", off, []byte("end")); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, BlockSize)
	n, err := f.ReadAt("/sparse", 10*BlockSize, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if p[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, p[i])
		}
	}
}

func TestLargeFileIndirect(t *testing.T) {
	// Cross the direct (10 blocks) and into the single-indirect range,
	// then into the double-indirect range.
	f := newFSForTest(t, 1<<16, Options{pageCacheBlocks: 8})
	f.Create("/big")
	blockIdxs := []uint64{0, 9, 10, 100, 521, 522, 1500} // direct/indirect/double
	for _, l := range blockIdxs {
		data := bytes.Repeat([]byte{byte(l%250 + 1)}, BlockSize)
		if err := f.WriteAt("/big", l*BlockSize, data); err != nil {
			t.Fatalf("write block %d: %v", l, err)
		}
	}
	p := make([]byte, BlockSize)
	for _, l := range blockIdxs {
		if _, err := f.ReadAt("/big", l*BlockSize, p); err != nil {
			t.Fatalf("read block %d: %v", l, err)
		}
		if p[0] != byte(l%250+1) {
			t.Fatalf("block %d = %d", l, p[0])
		}
	}
}

func TestAppendGrows(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	f.Create("/log")
	for i := 0; i < 10; i++ {
		if err := f.Append("/log", bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	info, _ := f.Stat("/log")
	if info.Size != 10000 {
		t.Fatalf("size = %d", info.Size)
	}
	got, _ := f.ReadFile("/log")
	if got[999] != 0 || got[1000] != 1 || got[9999] != 9 {
		t.Fatal("append contents wrong")
	}
}

func TestDirectoriesNested(t *testing.T) {
	f := newFSForTest(t, 8192, Options{})
	if err := f.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("/a/b/c/file"); err != nil {
		t.Fatal(err)
	}
	names, err := f.ReadDir("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "file" {
		t.Fatalf("names = %v", names)
	}
	if err := f.Remove("/a/b"); err != ErrNotEmpty {
		t.Fatalf("remove non-empty: %v", err)
	}
	if err := f.Create("/missing/f"); err != ErrNotExist {
		t.Fatalf("create in missing dir: %v", err)
	}
	// A file is not a directory.
	if _, err := f.ReadDir("/a/b/c/file"); err != ErrNotDir {
		t.Fatalf("readdir on file: %v", err)
	}
}

func TestManyFilesInDirectory(t *testing.T) {
	f := newFSForTest(t, 1<<15, Options{})
	f.Mkdir("/d")
	const n = 300 // several directory blocks
	for i := 0; i < n; i++ {
		if err := f.Create(pathN(i)); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	names, err := f.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != n {
		t.Fatalf("len = %d", len(names))
	}
	// Remove half, re-list.
	for i := 0; i < n; i += 2 {
		if err := f.Remove(pathN(i)); err != nil {
			t.Fatal(err)
		}
	}
	names, _ = f.ReadDir("/d")
	if len(names) != n/2 {
		t.Fatalf("after removal len = %d", len(names))
	}
}

func pathN(i int) string {
	return "/d/file-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
}

func TestRename(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	f.Mkdir("/x")
	f.Create("/x/old")
	f.WriteAt("/x/old", 0, []byte("hello"))
	if err := f.Rename("/x/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if f.Exists("/x/old") {
		t.Fatal("old path still exists")
	}
	got, err := f.ReadFile("/new")
	if err != nil || string(got) != "hello" {
		t.Fatalf("renamed contents: %q %v", got, err)
	}
}

func TestRenameOverExistingReplacesTarget(t *testing.T) {
	// POSIX rename(2): an existing target is replaced atomically and its
	// storage released when the replaced name was the last link.
	f := newFSForTest(t, 1<<15, Options{})
	f.Create("/src")
	f.WriteAt("/src", 0, []byte("source"))
	f.Create("/dst")
	f.WriteAt("/dst", 0, make([]byte, 8*BlockSize))
	free0 := f.FreeBlockCount()
	freeIno0 := f.Stats().FreeInodes
	if err := f.Rename("/src", "/dst"); err != nil {
		t.Fatalf("rename over existing: %v", err)
	}
	if f.Exists("/src") {
		t.Fatal("source name survived rename")
	}
	got, err := f.ReadFile("/dst")
	if err != nil || string(got) != "source" {
		t.Fatalf("target contents: %q %v", got, err)
	}
	if f.FreeBlockCount() <= free0 {
		t.Fatal("replaced target's blocks were not freed")
	}
	if f.Stats().FreeInodes != freeIno0+1 {
		t.Fatal("replaced target's inode was not freed")
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRenameOverHardLinkDecrementsNlink(t *testing.T) {
	// Replacing one name of a multiply linked target only drops a link;
	// the other name keeps the contents.
	f := newFSForTest(t, 4096, Options{})
	f.Create("/src")
	f.WriteAt("/src", 0, []byte("new"))
	f.Create("/a")
	f.WriteAt("/a", 0, []byte("shared"))
	if err := f.Link("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/src", "/b"); err != nil {
		t.Fatalf("rename over hard link: %v", err)
	}
	got, _ := f.ReadFile("/a")
	if string(got) != "shared" {
		t.Fatalf("surviving link contents: %q", got)
	}
	info, err := f.Stat("/a")
	if err != nil || info.Nlink != 1 {
		t.Fatalf("surviving link nlink = %d (%v), want 1", info.Nlink, err)
	}
	got, _ = f.ReadFile("/b")
	if string(got) != "new" {
		t.Fatalf("replaced name contents: %q", got)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRenameSameInodeIsNoop(t *testing.T) {
	// POSIX: when old and new are hard links to the same inode, rename
	// does nothing and both names remain. Same for renaming onto itself.
	f := newFSForTest(t, 4096, Options{})
	f.Create("/a")
	f.WriteAt("/a", 0, []byte("alias"))
	if err := f.Link("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/a", "/b"); err != nil {
		t.Fatalf("same-inode rename: %v", err)
	}
	for _, p := range []string{"/a", "/b"} {
		got, err := f.ReadFile(p)
		if err != nil || string(got) != "alias" {
			t.Fatalf("%s after same-inode rename: %q %v", p, got, err)
		}
	}
	if err := f.Rename("/a", "/a"); err != nil {
		t.Fatalf("self rename: %v", err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRenameDirectoryConflicts(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	f.Mkdir("/d")
	f.Create("/f")
	if err := f.Rename("/f", "/d"); err != ErrIsDir {
		t.Fatalf("file over directory: %v, want ErrIsDir", err)
	}
	if err := f.Rename("/d", "/f"); err != ErrNotDir {
		t.Fatalf("directory over file: %v, want ErrNotDir", err)
	}
	if err := f.Rename("/missing", "/x"); err != ErrNotExist {
		t.Fatalf("missing source: %v, want ErrNotExist", err)
	}
}

func TestTruncateFreesBlocks(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	f.Create("/t")
	free0 := f.FreeBlockCount()
	f.WriteAt("/t", 0, make([]byte, 20*BlockSize))
	if f.FreeBlockCount() >= free0 {
		t.Fatal("write did not consume blocks")
	}
	if err := f.Truncate("/t", 0); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlockCount() != free0 {
		t.Fatalf("truncate leaked: %d != %d", f.FreeBlockCount(), free0)
	}
}

func TestRemoveFreesEverything(t *testing.T) {
	f := newFSForTest(t, 1<<15, Options{})
	// Warm up the root directory so its dirent block (which legitimately
	// stays allocated after Remove) is not counted as a leak.
	f.Create("/warm")
	f.Remove("/warm")
	free0 := f.FreeBlockCount()
	f.Create("/f")
	// Large enough to need indirect blocks.
	f.WriteAt("/f", 0, make([]byte, 600*BlockSize))
	if err := f.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlockCount() != free0 {
		t.Fatalf("remove leaked blocks: %d != %d", f.FreeBlockCount(), free0)
	}
}

func TestFailedOpLeavesNoTrace(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	free0 := f.FreeBlockCount()
	staged0 := f.StagedBlocks()
	// Create in a missing directory fails after path resolution.
	if err := f.Create("/nodir/f"); err != ErrNotExist {
		t.Fatal(err)
	}
	// Write to a missing file fails.
	if err := f.WriteAt("/missing", 0, []byte("x")); !errors.Is(err, ErrNotExist) {
		t.Fatal(err)
	}
	if f.FreeBlockCount() != free0 {
		t.Fatal("failed op consumed blocks")
	}
	if f.StagedBlocks() != staged0 {
		t.Fatal("failed op staged blocks")
	}
}

func TestOutOfSpace(t *testing.T) {
	f := newFSForTest(t, 128, Options{})
	f.Create("/fill")
	err := f.WriteAt("/fill", 0, make([]byte, 1<<20))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	// After failure the file system still works and the op rolled back.
	if err := f.WriteFile("/small", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	got, _ := f.ReadFile("/small")
	if string(got) != "ok" {
		t.Fatal("fs broken after ENOSPC")
	}
}

func TestGroupCommitBatches(t *testing.T) {
	b := newMemBackend()
	f, err := Format(b, 4096, 0, Options{GroupCommitBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	f.Create("/g")
	f.WriteAt("/g", 0, []byte("batched"))
	if f.StagedBlocks() == 0 {
		t.Fatal("expected staged blocks before threshold")
	}
	// Read-your-writes before commit.
	got, err := f.ReadFile("/g")
	if err != nil || string(got) != "batched" {
		t.Fatalf("RYW: %q %v", got, err)
	}
	if err := f.Fsync("/g"); err != nil {
		t.Fatal(err)
	}
	if f.StagedBlocks() != 0 {
		t.Fatal("fsync did not commit")
	}
}

func TestMountPreservesState(t *testing.T) {
	b := newMemBackend()
	f, err := Format(b, 4096, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Mkdir("/dir")
	f.Create("/dir/file")
	f.WriteAt("/dir/file", 0, []byte("persist"))
	f.Sync()

	f2, err := Mount(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f2.ReadFile("/dir/file")
	if err != nil || string(got) != "persist" {
		t.Fatalf("after mount: %q %v", got, err)
	}
	// Allocation state must be consistent: new writes don't clobber.
	f2.Create("/dir/file2")
	f2.WriteAt("/dir/file2", 0, bytes.Repeat([]byte{9}, 2*BlockSize))
	got, _ = f2.ReadFile("/dir/file")
	if string(got) != "persist" {
		t.Fatal("new allocation clobbered old file")
	}
}

func TestPathValidation(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	if err := f.Create("/" + string(bytes.Repeat([]byte{'n'}, 100))); err != ErrNameLen {
		t.Fatalf("long name: %v", err)
	}
	if err := f.Create("/../etc"); err != ErrBadPath {
		t.Fatalf("dotdot: %v", err)
	}
	if err := f.Create("/"); err != ErrBadPath {
		t.Fatalf("root create: %v", err)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	f.Create("/s")
	f.WriteAt("/s", 0, []byte("abc"))
	if _, err := f.ReadAt("/s", 3, make([]byte, 1)); err != ErrReadRange {
		t.Fatalf("read at EOF: %v", err)
	}
	p := make([]byte, 10)
	n, err := f.ReadAt("/s", 1, p)
	if err != nil || n != 2 {
		t.Fatalf("crossing read: n=%d err=%v", n, err)
	}
}

func TestSplitPathProperties(t *testing.T) {
	fn := func(a, b string) bool {
		// splitPath never returns empty components and is slash-insensitive.
		p1, err1 := splitPath(a + "/" + b)
		p2, err2 := splitPath("/" + a + "//" + b + "/")
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if len(p1) != len(p2) {
			return false
		}
		for i := range p1 {
			if p1[i] != p2[i] || p1[i] == "" {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(fn, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInodeEncodeDecodeRoundTrip(t *testing.T) {
	fn := func(mode uint16, nlink uint16, size, mtime, single, double uint64, d0, d5 uint64) bool {
		in := inode{mode: mode, nlink: nlink, size: size, mtime: mtime, single: single, double: double}
		in.direct[0], in.direct[5] = d0, d5
		buf := make([]byte, inodeSize)
		encodeInode(in, buf)
		return decodeInode(buf) == in
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// revokeTrackingBackend records revocations for inspection.
type revokeTrackingBackend struct {
	*memBackend
	revoked map[uint64]int
}

func (b *revokeTrackingBackend) Begin() BackendTxn {
	return &revokeTrackingTxn{memTxn: b.memBackend.Begin().(*memTxn), b: b}
}

type revokeTrackingTxn struct {
	*memTxn
	b *revokeTrackingBackend
}

func (t *revokeTrackingTxn) Revoke(no uint64) { t.b.revoked[no]++ }

func TestFreedBlocksRevoked(t *testing.T) {
	b := &revokeTrackingBackend{memBackend: newMemBackend(), revoked: map[uint64]int{}}
	f, err := Format(b, 4096, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Create("/v")
	f.WriteAt("/v", 0, make([]byte, 8*BlockSize))
	if len(b.revoked) != 0 {
		t.Fatal("writes revoked blocks")
	}
	if err := f.Remove("/v"); err != nil {
		t.Fatal(err)
	}
	if len(b.revoked) != 8 {
		t.Fatalf("remove revoked %d blocks, want 8", len(b.revoked))
	}
}

func TestReallocatedBlockNotRevoked(t *testing.T) {
	// Free a block and re-allocate it within one group transaction: the
	// rewrite must win over the revocation.
	b := &revokeTrackingBackend{memBackend: newMemBackend(), revoked: map[uint64]int{}}
	f, err := Format(b, 4096, 0, Options{GroupCommitBlocks: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f.Create("/a")
	f.WriteAt("/a", 0, make([]byte, 4*BlockSize))
	f.Remove("/a") // frees 4 blocks (staged revokes)
	f.Create("/b")
	f.WriteAt("/b", 0, make([]byte, 4*BlockSize)) // re-allocates them
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	for no, n := range b.revoked {
		t.Fatalf("block %d revoked %d times despite re-allocation", no, n)
	}
}

func TestHardLinks(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	f.Create("/orig")
	f.WriteAt("/orig", 0, []byte("shared"))
	if err := f.Link("/orig", "/alias"); err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat("/alias")
	if info.Nlink != 2 {
		t.Fatalf("nlink = %d", info.Nlink)
	}
	// Both names see writes through either.
	f.WriteAt("/alias", 0, []byte("SHARED"))
	got, _ := f.ReadFile("/orig")
	if string(got) != "SHARED" {
		t.Fatalf("through link: %q", got)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	// Removing one name keeps the data; removing the last frees it.
	free0 := f.FreeBlockCount()
	if err := f.Remove("/orig"); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlockCount() != free0 {
		t.Fatal("first unlink freed blocks")
	}
	got, err := f.ReadFile("/alias")
	if err != nil || string(got) != "SHARED" {
		t.Fatalf("after first unlink: %q %v", got, err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("/alias"); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlockCount() <= free0 {
		t.Fatal("last unlink did not free blocks")
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkRejectsDirAndDuplicates(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	f.Mkdir("/d")
	f.Create("/f")
	if err := f.Link("/d", "/d2"); err != ErrIsDir {
		t.Fatalf("dir link: %v", err)
	}
	if err := f.Link("/f", "/f"); err != ErrExist {
		t.Fatalf("self link: %v", err)
	}
	if err := f.Link("/missing", "/x"); err != ErrNotExist {
		t.Fatalf("missing source: %v", err)
	}
}

func TestTruncateShrinkZeroesTail(t *testing.T) {
	// POSIX: shrinking then extending must expose zeroes, not stale bytes.
	f := newFSForTest(t, 8192, Options{})
	f.Create("/z")
	f.WriteAt("/z", 0, bytes.Repeat([]byte{0xAB}, 3*BlockSize))
	if err := f.Truncate("/z", 1000); err != nil { // mid-block shrink
		t.Fatal(err)
	}
	if err := f.Truncate("/z", 2*BlockSize); err != nil { // extend again
		t.Fatal(err)
	}
	got, err := f.ReadFile("/z")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if got[i] != 0xAB {
			t.Fatalf("kept byte %d = %#x", i, got[i])
		}
	}
	for i := 1000; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("stale byte at %d = %#x after shrink+extend", i, got[i])
		}
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateShrinkFreesIndirectChains(t *testing.T) {
	// A file spanning direct, single- and double-indirect ranges, shrunk
	// in stages: each stage must free exactly the punched blocks and keep
	// the file system fsck-clean.
	f := newFSForTest(t, 1<<15, Options{pageCacheBlocks: 16})
	f.Create("/big")
	// 600 blocks: 10 direct + 512 single + 78 double-indirect.
	if err := f.WriteAt("/big", 0, make([]byte, 600*BlockSize)); err != nil {
		t.Fatal(err)
	}
	freeAfterFull := f.FreeBlockCount()
	steps := []uint64{550 * BlockSize, 300 * BlockSize, 11 * BlockSize, 5 * BlockSize}
	prevFree := freeAfterFull
	for _, size := range steps {
		if err := f.Truncate("/big", size); err != nil {
			t.Fatalf("truncate to %d: %v", size, err)
		}
		if err := f.Check(); err != nil {
			t.Fatalf("after truncate to %d: %v", size, err)
		}
		free := f.FreeBlockCount()
		if free <= prevFree {
			t.Fatalf("truncate to %d freed nothing (%d -> %d)", size, prevFree, free)
		}
		prevFree = free
		// Kept prefix must still read (as data or holes, no error).
		if size > 0 {
			p := make([]byte, 100)
			if _, err := f.ReadAt("/big", size-100, p); err != nil {
				t.Fatalf("read tail after truncate to %d: %v", size, err)
			}
		}
	}
	// Grow within the double-indirect range again: must allocate cleanly.
	if err := f.WriteAt("/big", 580*BlockSize, []byte("regrown")); err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateBoundaryExact(t *testing.T) {
	// Shrinks landing exactly on block boundaries take the no-tail-zero
	// path; shrinking to the current size is a no-op.
	f := newFSForTest(t, 8192, Options{})
	f.Create("/b")
	f.WriteAt("/b", 0, bytes.Repeat([]byte{7}, 4*BlockSize))
	if err := f.Truncate("/b", 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat("/b")
	if info.Size != 2*BlockSize {
		t.Fatalf("size = %d", info.Size)
	}
	if err := f.Truncate("/b", 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	got, _ := f.ReadFile("/b")
	for i, b := range got {
		if b != 7 {
			t.Fatalf("byte %d = %d", i, b)
		}
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryAndAccessors(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	total, inodes, dataStart := f.Geometry()
	if total != 4096 || inodes == 0 || dataStart == 0 || dataStart >= total {
		t.Fatalf("geometry = %d %d %d", total, inodes, dataStart)
	}
	h, _ := f.OpenFile("/n", true)
	if h.Name() != "/n" {
		t.Fatalf("name = %q", h.Name())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileOverwriteTruncates(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	if err := f.WriteFile("/w", bytes.Repeat([]byte{1}, 9000)); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/w", []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, _ := f.ReadFile("/w")
	if string(got) != "short" {
		t.Fatalf("overwrite: %q (len %d)", got[:5], len(got))
	}
}

func TestSymlinks(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	f.Mkdir("/real")
	f.Create("/real/file")
	f.WriteAt("/real/file", 0, []byte("through the link"))
	if err := f.Symlink("/real/file", "/ln"); err != nil {
		t.Fatal(err)
	}
	// Operations through the link reach the target.
	got, err := f.ReadFile("/ln")
	if err != nil || string(got) != "through the link" {
		t.Fatalf("read via link: %q %v", got, err)
	}
	if err := f.WriteAt("/ln", 0, []byte("THROUGH")); err != nil {
		t.Fatal(err)
	}
	got, _ = f.ReadFile("/real/file")
	if string(got[:7]) != "THROUGH" {
		t.Fatalf("write via link: %q", got)
	}
	// Readlink inspects, not follows.
	target, err := f.Readlink("/ln")
	if err != nil || target != "/real/file" {
		t.Fatalf("readlink: %q %v", target, err)
	}
	if _, err := f.Readlink("/real/file"); err != ErrNotLink {
		t.Fatalf("readlink on file: %v", err)
	}
	// Directory symlinks work mid-path.
	if err := f.Symlink("/real", "/dirln"); err != nil {
		t.Fatal(err)
	}
	got, err = f.ReadFile("/dirln/file")
	if err != nil || string(got[:7]) != "THROUGH" {
		t.Fatalf("mid-path link: %q %v", got, err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	// Removing the link leaves the target; blocks are reclaimed.
	free0 := f.FreeBlockCount()
	if err := f.Remove("/ln"); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlockCount() != free0+1 {
		t.Fatalf("symlink block not reclaimed: %d -> %d", free0, f.FreeBlockCount())
	}
	if !f.Exists("/real/file") {
		t.Fatal("target removed with link")
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSymlinkDanglingAndLoops(t *testing.T) {
	f := newFSForTest(t, 4096, Options{})
	if err := f.Symlink("/nowhere", "/dangle"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile("/dangle"); err != ErrNotExist {
		t.Fatalf("dangling link read: %v", err)
	}
	// A cycle must be detected, not hang.
	f.Symlink("/b", "/a")
	f.Symlink("/a", "/b")
	if _, err := f.ReadFile("/a"); err != ErrLinkLoop {
		t.Fatalf("loop: %v", err)
	}
	// Bad targets rejected up front.
	if err := f.Symlink("", "/empty"); err != ErrBadPath {
		t.Fatalf("empty target: %v", err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}
