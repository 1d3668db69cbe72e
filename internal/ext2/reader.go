package ext2

import (
	"fmt"

	"lupine/internal/faults"
)

// Read parses the image back into a file tree rooted at a nameless
// directory, with the ext2/block-read fault site armed: every block
// fetch consults inj (nil reads fault-free). It reads any rev-0 image
// with 1 KiB blocks and one or more block groups. Corruption anywhere
// in the image surfaces as an error wrapping ErrIO (see errors.go),
// never as a panic.
//
// Data in the returned tree may alias the bytes the image points at: a
// file's whenever its blocks lie in one run and none was read flipped,
// and every fast symlink's. So callers must not write into it; its
// capacity is capped at its length, so an append copies.
func (img *Image) Read(inj *faults.Injector) (*File, error) {
	r, err := newReader(img, inj)
	if err != nil {
		return nil, err
	}
	root, err := r.readDir(rootInode, make(map[uint32]bool))
	if err != nil {
		return nil, err
	}
	root.Name = ""
	return root, nil
}

type reader struct {
	img            *Image
	inj            *faults.Injector
	inodesPerGroup uint32
	inodesTotal    uint32
	totalBlocks    uint32
	groups         uint32
}

func newReader(img *Image, inj *faults.Injector) (*reader, error) {
	if img.size < 3*BlockSize {
		return nil, fmt.Errorf("%w: image too small (%d bytes)", ErrTruncated, img.size)
	}
	sb := img.at(BlockSize, 2*BlockSize)
	if le.Uint16(sb[56:]) != superMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadSuperblock, le.Uint16(sb[56:]))
	}
	if logBlock := le.Uint32(sb[24:]); logBlock != 0 {
		return nil, fmt.Errorf("%w: unsupported block size %d", ErrBadSuperblock, BlockSize<<logBlock)
	}
	r := &reader{
		img:            img,
		inj:            inj,
		inodesPerGroup: le.Uint32(sb[40:]),
		inodesTotal:    le.Uint32(sb[0:]),
		totalBlocks:    le.Uint32(sb[4:]),
	}
	if int(r.totalBlocks)*BlockSize > img.size {
		return nil, fmt.Errorf("%w: claims %d blocks, image has %d", ErrBadSuperblock, r.totalBlocks, img.size/BlockSize)
	}
	if r.totalBlocks < firstDataBlock+1 {
		return nil, fmt.Errorf("%w: only %d blocks", ErrBadSuperblock, r.totalBlocks)
	}
	bpg := le.Uint32(sb[32:])
	if bpg == 0 || r.inodesPerGroup == 0 {
		return nil, fmt.Errorf("%w: zero blocks or inodes per group", ErrBadSuperblock)
	}
	r.groups = (r.totalBlocks - firstDataBlock + bpg - 1) / bpg
	// Sanity-check every group descriptor's inode table pointer.
	for g := uint32(0); g < r.groups; g++ {
		it := r.inodeTableOf(g)
		if it == 0 || it >= r.totalBlocks {
			return nil, fmt.Errorf("%w: group %d: bad inode table start %d", ErrBadSuperblock, g, it)
		}
	}
	return r, nil
}

// inodeTableOf reads group g's bg_inode_table from the descriptor table.
func (r *reader) inodeTableOf(g uint32) uint32 {
	off := 2*BlockSize + int(g)*32 + 8
	if off+4 > r.img.size {
		return 0
	}
	return le.Uint32(r.img.at(off, off+4))
}

// block runs block n past the ext2/block-read fault site. An injected
// short read fails the fetch. An injected bit flip returns a copy of
// the block, zero-padded to BlockSize, with one bit flipped: the image
// and the bytes it points at stay intact, like a transient controller
// error. Otherwise flipped is nil and the block reads as the image
// holds it.
func (r *reader) block(n uint32) (flipped []byte, err error) {
	if n == 0 || n >= r.totalBlocks {
		return nil, fmt.Errorf("%w: block %d out of range", ErrIO, n)
	}
	d := r.inj.Hit(SiteBlockRead, 0)
	if !d.Fire {
		return nil, nil
	}
	if d.Param < 0 {
		return nil, fmt.Errorf("%w: short read of block %d", ErrTruncated, n)
	}
	b := r.img.appendBytes(make([]byte, 0, BlockSize), int(n)*BlockSize, int(n+1)*BlockSize)
	off := int(d.Param) % len(b)
	b[off] ^= 1 << (uint(d.Param) % 8)
	return b, nil
}

type rawInode struct {
	mode  uint16
	size  uint32
	block [15]uint32
	raw   []byte
}

func (r *reader) inode(ino uint32) (*rawInode, error) {
	if ino == 0 || ino > r.inodesTotal {
		return nil, fmt.Errorf("%w: inode %d out of range", ErrCorruptInode, ino)
	}
	g := (ino - 1) / r.inodesPerGroup
	if g >= r.groups {
		return nil, fmt.Errorf("%w: inode %d in group %d of %d", ErrCorruptInode, ino, g, r.groups)
	}
	idx := (ino - 1) % r.inodesPerGroup
	off := int(r.inodeTableOf(g))*BlockSize + int(idx)*InodeSize
	if off+InodeSize > r.img.size {
		return nil, fmt.Errorf("%w: inode %d beyond image", ErrCorruptInode, ino)
	}
	b := r.img.at(off, off+InodeSize)
	in := &rawInode{
		mode: le.Uint16(b[0:]),
		size: le.Uint32(b[4:]),
		raw:  b,
	}
	for i := range in.block {
		in.block[i] = le.Uint32(b[40+4*i:])
	}
	return in, nil
}

// readData collects a file's contents through direct and indirect blocks.
// Every block passes the fault site once, in file order. While the blocks
// form one contiguous run of unflipped image blocks the contents are a
// view of the bytes the image points at; the first gap or flipped block
// turns them into a copy.
func (r *reader) readData(in *rawInode) ([]byte, error) {
	if int64(in.size) > int64(maxFileBlocks)*BlockSize {
		return nil, fmt.Errorf("%w: size %d exceeds maximum file size", ErrCorruptInode, in.size)
	}
	remaining := int(in.size)
	lo, hi := 0, 0 // the view: image bytes [lo, hi), empty while hi == 0
	var out []byte // the copy, once the blocks stop forming one view
	appendBlock := func(bn uint32) error {
		if remaining <= 0 {
			return nil
		}
		flipped, err := r.block(bn)
		if err != nil {
			return err
		}
		n := min(remaining, BlockSize)
		remaining -= n
		off := int(bn) * BlockSize
		if out == nil && flipped == nil && (hi == 0 || off == hi) {
			if hi == 0 {
				lo = off
			}
			hi = off + n
			return nil
		}
		if out == nil {
			out = r.img.appendBytes(make([]byte, 0, in.size), lo, hi)
		}
		if flipped != nil {
			out = append(out, flipped[:n]...)
		} else {
			out = r.img.appendBytes(out, off, off+n)
		}
		return nil
	}
	for i := 0; i < directBlocks && remaining > 0; i++ {
		if in.block[i] == 0 {
			return nil, fmt.Errorf("%w: sparse files unsupported", ErrCorruptInode)
		}
		if err := appendBlock(in.block[i]); err != nil {
			return nil, err
		}
	}
	if remaining > 0 && in.block[12] != 0 {
		if err := r.walkIndirect(in.block[12], 1, func(bn uint32) error { return appendBlock(bn) }); err != nil {
			return nil, err
		}
	}
	if remaining > 0 && in.block[13] != 0 {
		if err := r.walkIndirect(in.block[13], 2, func(bn uint32) error { return appendBlock(bn) }); err != nil {
			return nil, err
		}
	}
	if remaining > 0 {
		return nil, fmt.Errorf("%w: claims %d bytes but blocks are exhausted", ErrCorruptInode, in.size)
	}
	if out == nil {
		out = r.img.at(lo, hi)
	}
	return out, nil
}

func (r *reader) walkIndirect(bn uint32, depth int, f func(uint32) error) error {
	b, err := r.block(bn)
	if err != nil {
		return err
	}
	if b == nil {
		b = r.img.at(int(bn)*BlockSize, int(bn+1)*BlockSize)
	}
	for i := 0; i < pointersPerBlock; i++ {
		p := le.Uint32(b[i*4:])
		if p == 0 {
			continue
		}
		if depth > 1 {
			if err := r.walkIndirect(p, depth-1, f); err != nil {
				return err
			}
		} else if err := f(p); err != nil {
			return err
		}
	}
	return nil
}

func (r *reader) readDir(ino uint32, visiting map[uint32]bool) (*File, error) {
	if visiting[ino] {
		return nil, fmt.Errorf("%w: directory cycle at inode %d", ErrCorruptDirent, ino)
	}
	visiting[ino] = true
	defer delete(visiting, ino)

	in, err := r.inode(ino)
	if err != nil {
		return nil, err
	}
	if in.mode&modeDir == 0 {
		return nil, fmt.Errorf("%w: inode %d is not a directory", ErrCorruptInode, ino)
	}
	data, err := r.readData(in)
	if err != nil {
		return nil, err
	}
	dir := &File{Mode: in.mode & 0o7777, Dir: true}
	off := 0
	for off+8 <= len(data) {
		entIno := le.Uint32(data[off:])
		recLen := int(le.Uint16(data[off+4:]))
		nameLen := int(data[off+6])
		if recLen < 8 || off+recLen > len(data) || 8+nameLen > recLen {
			return nil, fmt.Errorf("%w: at offset %d", ErrCorruptDirent, off)
		}
		name := string(data[off+8 : off+8+nameLen])
		off += recLen
		if entIno == 0 || name == "." || name == ".." {
			continue
		}
		child, err := r.readNode(entIno, visiting)
		if err != nil {
			return nil, err
		}
		child.Name = name
		dir.Children = append(dir.Children, child)
	}
	return dir, nil
}

func (r *reader) readNode(ino uint32, visiting map[uint32]bool) (*File, error) {
	in, err := r.inode(ino)
	if err != nil {
		return nil, err
	}
	switch {
	case in.mode&modeDir == modeDir:
		return r.readDir(ino, visiting)
	case in.mode&modeSymlink == modeSymlink:
		f := &File{Mode: in.mode & 0o7777, Symlink: true}
		if in.size < 60 {
			// Fast symlink: target stored inline in the i_block area.
			f.Data = in.raw[40 : 40+in.size : 40+in.size]
		} else {
			data, err := r.readData(in)
			if err != nil {
				return nil, err
			}
			f.Data = data
		}
		return f, nil
	default:
		data, err := r.readData(in)
		if err != nil {
			return nil, err
		}
		return &File{Mode: in.mode & 0o7777, Data: data}, nil
	}
}
