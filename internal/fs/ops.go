package fs

import "fmt"

// FileInfo describes a file or directory.
type FileInfo struct {
	Size  uint64
	IsDir bool
	Mtime uint64
	Nlink int
}

// Create makes an empty regular file at path. The parent directory must
// exist; the file must not.
func (f *FS) Create(path string) error {
	return f.runOp(false, func(ctx *opCtx) error {
		dir, name, err := ctx.resolveParent(path)
		if err != nil {
			return err
		}
		if existing, err := ctx.lookupDir(dir, name); err != nil {
			return err
		} else if existing != 0 {
			return ErrExist
		}
		ino, err := ctx.allocInode()
		if err != nil {
			return err
		}
		if err := ctx.writeInode(ino, inode{mode: ModeFile, nlink: 1, mtime: f.now()}); err != nil {
			return err
		}
		return ctx.addDirent(dir, ino, name)
	})
}

// Mkdir makes an empty directory at path.
func (f *FS) Mkdir(path string) error {
	return f.runOp(false, func(ctx *opCtx) error {
		dir, name, err := ctx.resolveParent(path)
		if err != nil {
			return err
		}
		if existing, err := ctx.lookupDir(dir, name); err != nil {
			return err
		} else if existing != 0 {
			return ErrExist
		}
		ino, err := ctx.allocInode()
		if err != nil {
			return err
		}
		if err := ctx.writeInode(ino, inode{mode: ModeDir, nlink: 2, mtime: f.now()}); err != nil {
			return err
		}
		return ctx.addDirent(dir, ino, name)
	})
}

// MkdirAll creates path and any missing parents.
func (f *FS) MkdirAll(path string) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, p := range parts {
		cur += "/" + p
		if err := f.Mkdir(cur); err != nil && err != ErrExist {
			return err
		}
	}
	return nil
}

// Remove unlinks a file or an empty directory.
func (f *FS) Remove(path string) error {
	return f.runOp(false, func(ctx *opCtx) error {
		dir, name, err := ctx.resolveParent(path)
		if err != nil {
			return err
		}
		ino, err := ctx.lookupDir(dir, name)
		if err != nil {
			return err
		}
		if ino == 0 {
			return ErrNotExist
		}
		in, err := ctx.readInode(ino)
		if err != nil {
			return err
		}
		if in.mode == ModeDir {
			names, err := ctx.listDir(ino)
			if err != nil {
				return err
			}
			if len(names) > 0 {
				return ErrNotEmpty
			}
		}
		if _, err := ctx.removeDirent(dir, name); err != nil {
			return err
		}
		// Hard links: only the last unlink releases the inode and blocks.
		if in.mode == ModeFile && in.nlink > 1 {
			in.nlink--
			return ctx.writeInode(ino, in)
		}
		if err := ctx.freeFileBlocks(in); err != nil {
			return err
		}
		if err := ctx.writeInode(ino, inode{}); err != nil {
			return err
		}
		return ctx.freeInode(ino)
	})
}

// Link creates a hard link: newPath names the same inode as oldPath.
// Directories cannot be hard-linked.
func (f *FS) Link(oldPath, newPath string) error {
	return f.runOp(false, func(ctx *opCtx) error {
		ino, err := ctx.resolve(oldPath)
		if err != nil {
			return err
		}
		in, err := ctx.readInode(ino)
		if err != nil {
			return err
		}
		if in.mode != ModeFile {
			return ErrIsDir
		}
		newDir, newName, err := ctx.resolveParent(newPath)
		if err != nil {
			return err
		}
		if existing, err := ctx.lookupDir(newDir, newName); err != nil {
			return err
		} else if existing != 0 {
			return ErrExist
		}
		in.nlink++
		if err := ctx.writeInode(ino, in); err != nil {
			return err
		}
		return ctx.addDirent(newDir, ino, newName)
	})
}

// Symlink creates a symbolic link at linkPath whose target is the
// absolute path target. The target need not exist (dangling links are
// legal); resolution follows up to 8 levels.
func (f *FS) Symlink(target, linkPath string) error {
	if len(target) == 0 || len(target) >= BlockSize {
		return ErrBadPath
	}
	return f.runOp(false, func(ctx *opCtx) error {
		dir, name, err := ctx.resolveParent(linkPath)
		if err != nil {
			return err
		}
		if existing, err := ctx.lookupDir(dir, name); err != nil {
			return err
		} else if existing != 0 {
			return ErrExist
		}
		ino, err := ctx.allocInode()
		if err != nil {
			return err
		}
		blk, err := ctx.allocBlock()
		if err != nil {
			return err
		}
		buf := make([]byte, BlockSize)
		copy(buf, target)
		ctx.writeBlock(blk, buf)
		in := inode{mode: ModeSymlink, nlink: 1, size: uint64(len(target)), mtime: f.now()}
		in.direct[0] = blk
		if err := ctx.writeInode(ino, in); err != nil {
			return err
		}
		return ctx.addDirent(dir, ino, name)
	})
}

// Readlink returns the target of the symlink at path (without following
// it — the terminal component is inspected, not resolved).
func (f *FS) Readlink(path string) (string, error) {
	var target string
	err := f.runRead(func(ctx *opCtx) error {
		dir, name, err := ctx.resolveParent(path)
		if err != nil {
			return err
		}
		ino, err := ctx.lookupDir(dir, name)
		if err != nil {
			return err
		}
		if ino == 0 {
			return ErrNotExist
		}
		in, err := ctx.readInode(ino)
		if err != nil {
			return err
		}
		if in.mode != ModeSymlink {
			return ErrNotLink
		}
		target, err = ctx.readLinkTarget(in)
		return err
	})
	return target, err
}

// Rename moves oldPath to newPath with POSIX rename(2) semantics: an
// existing newPath file is replaced atomically (its last link released);
// if both paths are hard links to the same inode (or the same path), the
// rename succeeds without doing anything. Renaming onto an existing
// directory is not supported (ErrIsDir), nor is renaming a directory onto
// a file (ErrNotDir).
func (f *FS) Rename(oldPath, newPath string) error {
	return f.runOp(false, func(ctx *opCtx) error {
		oldDir, oldName, err := ctx.resolveParent(oldPath)
		if err != nil {
			return err
		}
		srcIno, err := ctx.lookupDir(oldDir, oldName)
		if err != nil {
			return err
		}
		if srcIno == 0 {
			return ErrNotExist
		}
		newDir, newName, err := ctx.resolveParent(newPath)
		if err != nil {
			return err
		}
		existing, err := ctx.lookupDir(newDir, newName)
		if err != nil {
			return err
		}
		if existing == srcIno {
			// POSIX: oldpath and newpath name the same inode — do nothing
			// and report success; both names remain.
			return nil
		}
		if existing != 0 {
			src, err := ctx.readInode(srcIno)
			if err != nil {
				return err
			}
			tgt, err := ctx.readInode(existing)
			if err != nil {
				return err
			}
			if tgt.mode == ModeDir {
				return ErrIsDir
			}
			if src.mode == ModeDir {
				return ErrNotDir
			}
			// Replace the target: unlink it under the new name, releasing
			// the inode and blocks when this was its last link (the same
			// sequence Remove uses).
			if _, err := ctx.removeDirent(newDir, newName); err != nil {
				return err
			}
			if tgt.mode == ModeFile && tgt.nlink > 1 {
				tgt.nlink--
				if err := ctx.writeInode(existing, tgt); err != nil {
					return err
				}
			} else {
				if err := ctx.freeFileBlocks(tgt); err != nil {
					return err
				}
				if err := ctx.writeInode(existing, inode{}); err != nil {
					return err
				}
				if err := ctx.freeInode(existing); err != nil {
					return err
				}
			}
		}
		ino, err := ctx.removeDirent(oldDir, oldName)
		if err != nil {
			return err
		}
		return ctx.addDirent(newDir, ino, newName)
	})
}

// WriteAt writes data into the file at byte offset off, extending the
// file as needed.
func (f *FS) WriteAt(path string, off uint64, data []byte) error {
	return f.runOp(false, func(ctx *opCtx) error {
		ino, err := ctx.resolve(path)
		if err != nil {
			return err
		}
		in, err := ctx.readInode(ino)
		if err != nil {
			return err
		}
		if in.mode != ModeFile {
			return ErrIsDir
		}
		if err := ctx.writeRange(&in, off, data); err != nil {
			return err
		}
		in.mtime = f.now()
		return ctx.writeInode(ino, in)
	})
}

// writeRange performs the block-level read-modify-write of a byte range.
func (c *opCtx) writeRange(in *inode, off uint64, data []byte) error {
	pos := off
	remaining := data
	buf := make([]byte, BlockSize)
	for len(remaining) > 0 {
		l := pos / BlockSize
		bo := int(pos % BlockSize)
		n := BlockSize - bo
		if n > len(remaining) {
			n = len(remaining)
		}
		in2, phys, err := c.bmap(*in, l, true)
		if err != nil {
			return err
		}
		*in = in2
		if bo == 0 && n == BlockSize {
			c.writeBlock(phys, remaining[:BlockSize])
		} else {
			if err := c.readBlock(phys, buf); err != nil {
				return err
			}
			copy(buf[bo:], remaining[:n])
			c.writeBlock(phys, buf)
		}
		pos += uint64(n)
		remaining = remaining[n:]
	}
	if pos > in.size {
		in.size = pos
	}
	return nil
}

// Append writes data at the current end of file.
func (f *FS) Append(path string, data []byte) error {
	return f.runOp(false, func(ctx *opCtx) error {
		ino, err := ctx.resolve(path)
		if err != nil {
			return err
		}
		in, err := ctx.readInode(ino)
		if err != nil {
			return err
		}
		if in.mode != ModeFile {
			return ErrIsDir
		}
		if err := ctx.writeRange(&in, in.size, data); err != nil {
			return err
		}
		in.mtime = f.now()
		return ctx.writeInode(ino, in)
	})
}

// ReadAt reads up to len(p) bytes from byte offset off, returning the
// number of bytes read. Reading at or past EOF returns (0, ErrReadRange);
// a read crossing EOF is truncated.
func (f *FS) ReadAt(path string, off uint64, p []byte) (int, error) {
	var read uint64
	err := f.runRead(func(ctx *opCtx) error {
		in, want, err := ctx.readRange(path, off, uint64(len(p)))
		if err != nil {
			return err
		}
		buf := make([]byte, BlockSize)
		for read < want {
			pos := off + read
			l := pos / BlockSize
			bo := int(pos % BlockSize)
			n := uint64(BlockSize - bo)
			if n > want-read {
				n = want - read
			}
			_, phys, err := ctx.bmap(in, l, false)
			if err != nil {
				return err
			}
			if phys == 0 {
				for i := uint64(0); i < n; i++ {
					p[read+i] = 0
				}
			} else {
				if err := ctx.readBlock(phys, buf); err != nil {
					return err
				}
				copy(p[read:read+n], buf[bo:])
			}
			read += n
		}
		return nil
	})
	return int(read), err
}

// readRange is the prefix ReadAt and ReadAtView share: resolve path to a
// regular file and clamp an n-byte read at off to EOF, returning the
// inode and the byte count to read. A read at or past EOF is
// ErrReadRange.
func (c *opCtx) readRange(path string, off, n uint64) (inode, uint64, error) {
	ino, err := c.resolve(path)
	if err != nil {
		return inode{}, 0, err
	}
	in, err := c.readInode(ino)
	if err != nil {
		return inode{}, 0, err
	}
	if in.mode != ModeFile {
		return inode{}, 0, ErrIsDir
	}
	if off >= in.size {
		return inode{}, 0, ErrReadRange
	}
	return in, min(n, in.size-off), nil
}

// Truncate sets the file size. Shrinking to zero frees all blocks;
// shrinking partially or growing only adjusts the size (grown regions
// read as holes).
func (f *FS) Truncate(path string, size uint64) error {
	return f.runOp(false, func(ctx *opCtx) error {
		ino, err := ctx.resolve(path)
		if err != nil {
			return err
		}
		in, err := ctx.readInode(ino)
		if err != nil {
			return err
		}
		if in.mode != ModeFile {
			return ErrIsDir
		}
		switch {
		case size == 0 && in.size > 0:
			if err := ctx.freeFileBlocks(in); err != nil {
				return err
			}
			in.direct = [numDirect]uint64{}
			in.single, in.double = 0, 0
		case size < in.size:
			// Shrink: free whole blocks beyond the new EOF and zero the
			// partial tail so a later extension reads zeroes (POSIX).
			keep := (size + BlockSize - 1) / BlockSize
			if err := ctx.punchFrom(&in, keep); err != nil {
				return err
			}
			if err := ctx.zeroTail(in, size); err != nil {
				return err
			}
		}
		in.size = size
		in.mtime = f.now()
		return ctx.writeInode(ino, in)
	})
}

// Stat returns metadata for path.
func (f *FS) Stat(path string) (FileInfo, error) {
	var info FileInfo
	err := f.runRead(func(ctx *opCtx) error {
		ino, err := ctx.resolve(path)
		if err != nil {
			return err
		}
		in, err := ctx.readInode(ino)
		if err != nil {
			return err
		}
		info = FileInfo{Size: in.size, IsDir: in.mode == ModeDir, Mtime: in.mtime, Nlink: int(in.nlink)}
		return nil
	})
	return info, err
}

// ReadDir lists the names in the directory at path.
func (f *FS) ReadDir(path string) ([]string, error) {
	var names []string
	err := f.runRead(func(ctx *opCtx) error {
		ino, err := ctx.resolve(path)
		if err != nil {
			return err
		}
		names, err = ctx.listDir(ino)
		return err
	})
	return names, err
}

// Exists reports whether path resolves.
func (f *FS) Exists(path string) bool {
	err := f.runRead(func(ctx *opCtx) error {
		_, err := ctx.resolve(path)
		return err
	})
	return err == nil
}

// Fsync forces the group transaction containing this file's updates (and
// anything batched with it) to commit durably.
func (f *FS) Fsync(path string) error {
	return f.runOp(true, func(ctx *opCtx) error {
		_, err := ctx.resolve(path)
		return err
	})
}

// Sync commits any open group transaction and asks the backend to make
// everything durable.
func (f *FS) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.checkCrashed()
	defer f.poisonOnCrash()
	if err := f.commitGroup(); err != nil {
		return err
	}
	return f.b.Sync()
}

// Close syncs and closes the backend.
func (f *FS) Close() error {
	if err := f.Sync(); err != nil {
		return err
	}
	return f.b.Close()
}

// WriteFile creates (if needed), truncates and writes data from offset
// zero, like os.WriteFile.
func (f *FS) WriteFile(path string, data []byte) error {
	if !f.Exists(path) {
		if err := f.Create(path); err != nil {
			return err
		}
	} else if err := f.Truncate(path, 0); err != nil {
		return err
	}
	return f.WriteAt(path, 0, data)
}

// ReadFile reads the whole file at path.
func (f *FS) ReadFile(path string) ([]byte, error) {
	info, err := f.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir {
		return nil, ErrIsDir
	}
	if info.Size == 0 {
		return nil, nil
	}
	p := make([]byte, info.Size)
	n, err := f.ReadAt(path, 0, p)
	if err != nil {
		return nil, err
	}
	if uint64(n) != info.Size {
		return nil, fmt.Errorf("fs: short read %d of %d", n, info.Size)
	}
	return p, nil
}
