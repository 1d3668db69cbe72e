package ext2

import (
	"cmp"
	"fmt"
	"slices"
)

// WriteImage lays out the file tree rooted at root (which must be a
// directory; its Name is ignored) as an ext2 image. A first pass numbers
// the inodes, encodes every directory and counts every block, which
// fixes the group geometry and the size of the image's slab; a second
// pass fills in the slab and records where each file's bytes sit. No
// file's bytes are copied: the image points at each file's Data, which
// the caller must not write afterwards.
func WriteImage(root *File) (*Image, error) {
	if root == nil || !root.Dir {
		return nil, fmt.Errorf("ext2: root must be a directory")
	}
	if err := root.validate(); err != nil {
		return nil, err
	}
	w := &writer{nodes: make(map[*File]node), nextIno: firstFreeInode}
	if err := w.number(root, rootInode, rootInode); err != nil {
		return nil, err
	}
	if err := w.layout(); err != nil {
		return nil, err
	}
	w.writeNode(root)
	// The group headers went in first; every other run went in in
	// block order.
	slices.SortFunc(w.img.runs, func(a, b run) int { return cmp.Compare(a.start, b.start) })
	return w.img, nil
}

// node is what the numbering pass records for one file: its inode and
// the bytes its data blocks hold (a directory's encoded entries, else
// its Data; nil for a fast symlink, whose target lives in the inode).
type node struct {
	ino     uint32
	content []byte
}

type writer struct {
	nodes    map[*File]node
	nextIno  uint32
	inodes   int // numbered nodes, the root included
	dirs     int
	blocks   int // data and pointer blocks the tree needs
	computed int // of those, the directory and pointer blocks

	img      *Image
	geo      []groupGeometry
	slab     []byte // every block the writer computes
	used     int    // slab bytes handed out
	slabTail bool   // the image's last run is the slab's latest blocks
	g        int    // group holding the next data block
	next     int    // next data block to hand out
	spans    []span // reused buffer: the data blocks of the file being written
}

// span is a run of consecutive blocks [first, first+n): one take.
type span struct{ first, n int }

// blockIDs walks a file's data blocks in order across its spans.
type blockIDs struct {
	spans []span
	used  int // blocks of spans[0] already walked
}

// put writes the next k block numbers into dst as little-endian
// pointers.
func (ids *blockIDs) put(dst []byte, k int) {
	for i := 0; i < k; i++ {
		if ids.used == ids.spans[0].n {
			ids.spans, ids.used = ids.spans[1:], 0
		}
		le.PutUint32(dst[4*i:], uint32(ids.spans[0].first+ids.used))
		ids.used++
	}
}

// number records n as inode ino under directory parent. Each child takes
// the next number before its own subtree does, which is Walk's order
// (the root is inode 2, the rest count up from 11). Once its children
// are numbered a directory's entries are encoded, so every node's block
// count is known before the image is laid out.
func (w *writer) number(n *File, ino, parent uint32) error {
	for _, c := range n.Children {
		cIno := w.nextIno
		w.nextIno++
		if err := w.number(c, cIno, ino); err != nil {
			return err
		}
	}
	content := n.Data
	switch {
	case n.Dir:
		w.dirs++
		entries := make([]dirEntry, 2, 2+len(n.Children))
		entries[0] = dirEntry{ino: ino, name: ".", ftype: fileTypeDir}
		entries[1] = dirEntry{ino: parent, name: "..", ftype: fileTypeDir}
		for _, c := range n.sortedChildren() {
			ft := byte(fileTypeRegular)
			switch {
			case c.Dir:
				ft = fileTypeDir
			case c.Symlink:
				ft = fileTypeSymlink
			}
			entries = append(entries, dirEntry{ino: w.nodes[c].ino, name: c.Name, ftype: ft})
		}
		content = encodeDirEntries(entries)
	case n.fastSymlink():
		content = nil
	}
	nblocks := (len(content) + BlockSize - 1) / BlockSize
	if nblocks > maxFileBlocks {
		return fmt.Errorf("ext2: file of %d bytes exceeds maximum size", len(content))
	}
	w.blocks += nblocks + pointerBlocks(nblocks)
	w.computed += pointerBlocks(nblocks)
	if n.Dir {
		w.computed += nblocks
	}
	w.inodes++
	w.nodes[n] = node{ino: ino, content: content}
	return nil
}

// fastSymlink reports a symlink short enough to live in its inode's
// i_block area.
func (f *File) fastSymlink() bool { return f.Symlink && len(f.Data) < 60 }

// pointerBlocks counts the single- and double-indirect pointer blocks
// that a file of nblocks data blocks needs.
func pointerBlocks(nblocks int) int {
	rest := nblocks - directBlocks
	switch {
	case rest <= 0:
		return 0
	case rest <= pointersPerBlock:
		return 1
	}
	rest -= pointersPerBlock
	return 1 + (rest+pointersPerBlock-1)/pointersPerBlock + 1
}

// writeNode writes n's descendants, then n's data and pointer blocks
// and its inode: a post-order walk over sorted names, which fixes every
// image's block order.
func (w *writer) writeNode(n *File) {
	nd := w.nodes[n]
	inode := w.inodeSlot(nd.ino)
	mode, links := uint16(modeFile), uint16(1)
	switch {
	case n.Dir:
		mode, links = modeDir, 2 // "." and the parent's entry
		for _, c := range n.sortedChildren() {
			if c.Dir {
				links++ // child's ".." references us
			}
			w.writeNode(c)
		}
	case n.Symlink:
		mode = modeSymlink
	}
	le.PutUint16(inode[0:], mode|(n.Mode&0o7777))
	le.PutUint16(inode[26:], links)
	if n.fastSymlink() {
		le.PutUint32(inode[4:], uint32(len(n.Data)))
		copy(inode[40:100], n.Data)
		return
	}
	w.storeData(inode, nd.content, n.Dir)
}

// storeData places content in the next data blocks, then writes its
// single- and double-indirect pointer blocks and fills in the inode's
// size, sector count and block pointers. A directory's entries are
// copied into the slab; a file's bytes stay where the caller has them,
// as one run per group its blocks span.
func (w *writer) storeData(inode, content []byte, dir bool) {
	nblocks := (len(content) + BlockSize - 1) / BlockSize
	w.spans = w.spans[:0]
	for off := 0; off < len(content); {
		first, got := w.take((len(content) - off + BlockSize - 1) / BlockSize)
		end := min(off+got*BlockSize, len(content))
		if dir {
			copy(w.slabRun(first, got), content[off:end])
		} else {
			w.img.runs = append(w.img.runs, run{start: first, data: content[off:end]})
			w.slabTail = false
		}
		w.spans = append(w.spans, span{first, got})
		off = end
	}
	setPtr := func(i int, b uint32) { le.PutUint32(inode[40+4*i:], b) }
	ids := blockIDs{spans: w.spans}
	direct := min(nblocks, directBlocks)
	ids.put(inode[40:], direct)
	rest := nblocks - direct
	if rest > 0 {
		n := min(rest, pointersPerBlock)
		b, blk := w.pointerBlock()
		ids.put(blk, n)
		setPtr(12, b)
		rest -= n
	}
	if rest > 0 {
		var l1 [pointersPerBlock]uint32
		k := 0
		for ; rest > 0; k++ {
			n := min(rest, pointersPerBlock)
			b, blk := w.pointerBlock()
			ids.put(blk, n)
			l1[k] = b
			rest -= n
		}
		b, blk := w.pointerBlock()
		for i, p := range l1[:k] {
			le.PutUint32(blk[4*i:], p)
		}
		setPtr(13, b)
	}
	le.PutUint32(inode[4:], uint32(len(content)))
	le.PutUint32(inode[28:], uint32(nblocks+pointerBlocks(nblocks))*(BlockSize/512))
}

// pointerBlock takes the next data block for pointers and returns it
// with its bytes in the slab.
func (w *writer) pointerBlock() (uint32, []byte) {
	b, _ := w.take(1)
	return uint32(b), w.slabRun(b, 1)
}

// take hands out up to n consecutive data blocks, filling group data
// areas in order, and returns the first and how many it gave: fewer
// than n where the current group's data area ends.
func (w *writer) take(n int) (first, got int) {
	if w.next == w.geo[w.g].dataEnd {
		w.g++
		w.next = w.geo[w.g].dataStart
	}
	first, got = w.next, min(n, w.geo[w.g].dataEnd-w.next)
	w.next += got
	return first, got
}

// slabRun hands out the slab's next k blocks as image blocks b onwards
// and returns them. The slab fills in block order, so blocks that
// follow the image's last run both in the image and in the slab extend
// that run.
func (w *writer) slabRun(b, k int) []byte {
	s := w.slab[w.used : w.used+k*BlockSize]
	w.used += len(s)
	runs := w.img.runs
	if n := len(runs) - 1; w.slabTail && runs[n].start+len(runs[n].data)/BlockSize == b {
		runs[n].data = runs[n].data[:len(runs[n].data)+len(s)]
	} else {
		w.img.runs = append(runs, run{start: b, data: s})
	}
	w.slabTail = true
	return s
}

// inodeSlot is inode ino's record in its group's inode table.
func (w *writer) inodeSlot(ino uint32) []byte {
	idx := int(ino) - 1
	g := &w.geo[idx/inodesPerGroup]
	off := (g.inodeTable-g.start)*BlockSize + (idx%inodesPerGroup)*InodeSize
	return g.header[off : off+InodeSize]
}

type dirEntry struct {
	ino   uint32
	name  string
	ftype byte
}

// encodeDirEntries lays out ext2_dir_entry_2 records, padding the final
// entry of each block to the block boundary as ext2 requires.
func encodeDirEntries(entries []dirEntry) []byte {
	var out []byte
	blockUsed := 0
	for i, e := range entries {
		need := 8 + ((len(e.name) + 3) &^ 3)
		if blockUsed+need > BlockSize {
			// Extend the previous record to the end of the block.
			fixLastRecLen(out, blockUsed)
			out = append(out, make([]byte, BlockSize-blockUsed)...)
			blockUsed = 0
		}
		recLen := need
		if i == len(entries)-1 {
			recLen = BlockSize - blockUsed // last record fills the block
		}
		rec := make([]byte, recLen)
		le.PutUint32(rec[0:], e.ino)
		le.PutUint16(rec[4:], uint16(recLen))
		rec[6] = byte(len(e.name))
		rec[7] = e.ftype
		copy(rec[8:], e.name)
		out = append(out, rec...)
		blockUsed += recLen
		if blockUsed == BlockSize {
			blockUsed = 0
		}
	}
	return out
}

// fixLastRecLen widens the rec_len of the final record in the current
// block so it reaches the block boundary.
func fixLastRecLen(out []byte, blockUsed int) {
	if blockUsed == 0 {
		return
	}
	// Find the final record by walking from the start of the last block.
	start := len(out) - blockUsed
	off := start
	for {
		recLen := int(le.Uint16(out[off+4:]))
		if off+recLen >= len(out) {
			le.PutUint16(out[off+4:], uint16(BlockSize-(off-start)))
			return
		}
		off += recLen
	}
}

// Multi-group geometry. Each block group spans blocksPerGroup blocks and
// holds its own block bitmap, inode bitmap and inode-table slice; the
// superblock and the group descriptor table live in group 0 only (the
// sparse-superblock layout). inodesPerGroup is fixed so an inode's group
// is ino/inodesPerGroup.
const (
	blocksPerGroup = BlockSize * 8 // one bitmap block covers the group
	inodesPerGroup = 512
	inodeTableBlks = inodesPerGroup * InodeSize / BlockSize // 64
	maxGroups      = 1024                                   // 8 GiB images; far beyond any rootfs here
)

// groupGeometry describes the computed layout of one block group.
type groupGeometry struct {
	start      int // first block of the group
	blockBM    int
	inodeBM    int
	inodeTable int
	dataStart  int
	dataEnd    int    // exclusive; trimmed for the final group
	header     []byte // the slab's bytes for blocks [start, dataStart)
}

// layout fixes the group geometry for the counted blocks and inodes,
// allocates the slab and writes what depends only on that geometry:
// superblock, group descriptor table and per-group bitmaps.
func (w *writer) layout() error {
	usedInodes := firstFreeInode - 1 + w.inodes - 1 // root occupies reserved slot 2
	inodeGroups := (usedInodes + inodesPerGroup - 1) / inodesPerGroup

	// Determine the group count: group 0 additionally carries the
	// superblock and the GDT, so its data capacity depends on the group
	// count itself — iterate until stable.
	groups := inodeGroups
	if groups == 0 {
		groups = 1
	}
	for {
		gdtBlocks := (groups*32 + BlockSize - 1) / BlockSize
		capacity := 0
		for g := 0; g < groups; g++ {
			overhead := 2 + inodeTableBlks // bitmaps + inode table
			if g == 0 {
				overhead += 1 + gdtBlocks // superblock + GDT
			}
			capacity += blocksPerGroup - overhead
		}
		if capacity >= w.blocks {
			break
		}
		groups++
		if groups > maxGroups {
			return fmt.Errorf("ext2: image needs more than %d block groups", maxGroups)
		}
	}
	gdtBlocks := (groups*32 + BlockSize - 1) / BlockSize

	// Lay out each group and split the data blocks across the group
	// data areas in order.
	geo := make([]groupGeometry, groups)
	assigned := 0
	for g := 0; g < groups; g++ {
		start := firstDataBlock + g*blocksPerGroup
		meta := start
		if g == 0 {
			meta += 1 + gdtBlocks // skip superblock + GDT
		}
		geo[g] = groupGeometry{
			start:      start,
			blockBM:    meta,
			inodeBM:    meta + 1,
			inodeTable: meta + 2,
			dataStart:  meta + 2 + inodeTableBlks,
		}
		take := min(w.blocks-assigned, start+blocksPerGroup-geo[g].dataStart)
		geo[g].dataEnd = geo[g].dataStart + take
		assigned += take
	}
	totalBlocks := geo[groups-1].dataEnd

	// The slab holds every group's header, then the directory and
	// pointer blocks in the order they are handed out. The headers are
	// the image's first runs.
	headerBlocks := 0
	for _, g := range geo {
		headerBlocks += g.dataStart - g.start
	}
	slab := make([]byte, (headerBlocks+w.computed)*BlockSize)
	img := &Image{size: totalBlocks * BlockSize, runs: make([]run, 0, 2*groups+2*w.inodes)}
	at := 0
	for g := range geo {
		n := (geo[g].dataStart - geo[g].start) * BlockSize
		geo[g].header = slab[at : at+n]
		at += n
		img.runs = append(img.runs, run{start: geo[g].start, data: geo[g].header})
	}

	// Bitmaps: every metadata and assigned data block in a group is used.
	for n, g := range geo {
		bm := g.header[(g.blockBM-g.start)*BlockSize:]
		for b := g.start; b < g.dataEnd; b++ {
			i := b - g.start
			bm[i/8] |= 1 << (i % 8)
		}
		ibm := g.header[(g.inodeBM-g.start)*BlockSize:]
		lo := n * inodesPerGroup
		for i := lo; i < usedInodes && i < lo+inodesPerGroup; i++ {
			j := i - lo
			ibm[j/8] |= 1 << (j % 8)
		}
	}

	// Superblock in block 1, group 0's first.
	sb := geo[0].header[:BlockSize]
	le.PutUint32(sb[0:], uint32(groups*inodesPerGroup))             // s_inodes_count
	le.PutUint32(sb[4:], uint32(totalBlocks))                       // s_blocks_count
	le.PutUint32(sb[12:], 0)                                        // s_free_blocks_count
	le.PutUint32(sb[16:], uint32(groups*inodesPerGroup-usedInodes)) // s_free_inodes_count
	le.PutUint32(sb[20:], firstDataBlock)                           // s_first_data_block
	le.PutUint32(sb[24:], 0)                                        // s_log_block_size: 1 KiB
	le.PutUint32(sb[32:], uint32(blocksPerGroup))                   // s_blocks_per_group
	le.PutUint32(sb[40:], uint32(inodesPerGroup))                   // s_inodes_per_group
	le.PutUint16(sb[56:], superMagic)                               // s_magic
	le.PutUint16(sb[58:], 1)                                        // s_state: clean

	// Group descriptor table starting in block 2.
	for g := 0; g < groups; g++ {
		gd := geo[0].header[BlockSize+g*32 : BlockSize+g*32+32]
		le.PutUint32(gd[0:], uint32(geo[g].blockBM))
		le.PutUint32(gd[4:], uint32(geo[g].inodeBM))
		le.PutUint32(gd[8:], uint32(geo[g].inodeTable))
		if g == 0 {
			le.PutUint16(gd[16:], uint16(w.dirs)) // bg_used_dirs_count
		}
	}
	w.img, w.geo, w.slab, w.used, w.next = img, geo, slab, at, geo[0].dataStart
	return nil
}
