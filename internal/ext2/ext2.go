// Package ext2 implements a minimal ext2 (revision 0) filesystem image
// writer and reader: 1 KiB blocks in as many 8 MiB block groups as the
// tree needs, direct plus single- and double-indirect block pointers, and
// ext2_dir_entry_2 directory entries. The Lupine pipeline (Figure 2) converts a container
// root filesystem into such an image, and the guest kernel mounts it as
// its root filesystem, so these are real bytes, not a mock.
//
// An Image holds those bytes by reference: it owns the metadata blocks
// the writer computes and points at the file bytes of the tree it was
// written from, as an OCI image names its layers instead of copying
// them. Image.WriteTo lays the bytes out in full, and Image.Read parses
// them back.
package ext2

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Filesystem geometry. Revision 0 fixes the inode size at 128 bytes; we
// use 1 KiB blocks so the superblock lives in block 1.
const (
	BlockSize      = 1024
	InodeSize      = 128
	superMagic     = 0xEF53
	firstDataBlock = 1 // with 1 KiB blocks, block 0 is the boot block
	rootInode      = 2
	firstFreeInode = 11 // inodes 1-10 are reserved

	// Inode mode bits (subset).
	modeDir     = 0x4000
	modeFile    = 0x8000
	modeSymlink = 0xA000

	// Directory entry file types.
	fileTypeRegular = 1
	fileTypeDir     = 2
	fileTypeSymlink = 7

	pointersPerBlock = BlockSize / 4
	directBlocks     = 12
	maxFileBlocks    = directBlocks + pointersPerBlock + pointersPerBlock*pointersPerBlock
)

// File is a node in the tree to be written into (or read out of) an
// image. Data may alias the caller's bytes both ways: an image
// WriteImage returns points at the Data it was given, so those bytes
// must not be written afterwards; and in a tree Image.Read returns, Data
// may be a view of the bytes the image points at, so it must not be
// written either.
type File struct {
	Name     string // base name; "" only for the root directory
	Mode     uint16 // permission bits (type bits added automatically)
	Data     []byte // regular file contents or symlink target
	Dir      bool
	Symlink  bool
	Children []*File // for directories
}

// NewDir returns a directory node.
func NewDir(name string, children ...*File) *File {
	return &File{Name: name, Mode: 0o755, Dir: true, Children: children}
}

// NewFile returns a regular-file node.
func NewFile(name string, mode uint16, data []byte) *File {
	return &File{Name: name, Mode: mode, Data: data}
}

// NewSymlink returns a symbolic-link node.
func NewSymlink(name, target string) *File {
	return &File{Name: name, Mode: 0o777, Symlink: true, Data: []byte(target)}
}

// Child finds a direct child by name (directories only).
func (f *File) Child(name string) *File {
	for _, c := range f.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Lookup resolves a slash-separated path relative to f. It does not follow
// symlinks. An empty or "/" path returns f itself.
func (f *File) Lookup(path string) *File {
	cur := f
	for _, part := range strings.Split(strings.Trim(path, "/"), "/") {
		if part == "" {
			continue
		}
		if cur == nil || !cur.Dir {
			return nil
		}
		cur = cur.Child(part)
	}
	return cur
}

// Walk visits every node in the tree in depth-first order with its path.
func (f *File) Walk(visit func(path string, node *File)) {
	var rec func(prefix string, n *File)
	rec = func(prefix string, n *File) {
		path := prefix
		if n.Name != "" {
			path = prefix + "/" + n.Name
		}
		if path == "" {
			path = "/"
		}
		visit(path, n)
		for _, c := range n.Children {
			rec(strings.TrimSuffix(path, "/"), c)
		}
	}
	rec("", f)
}

func (f *File) validate() error {
	if f.Dir && f.Symlink {
		return fmt.Errorf("ext2: %q is both directory and symlink", f.Name)
	}
	if !f.Dir && len(f.Children) > 0 {
		return fmt.Errorf("ext2: non-directory %q has children", f.Name)
	}
	seen := make(map[string]bool)
	for _, c := range f.Children {
		if c.Name == "" || strings.ContainsAny(c.Name, "/\x00") {
			return fmt.Errorf("ext2: invalid child name %q", c.Name)
		}
		if len(c.Name) > 255 {
			return fmt.Errorf("ext2: name %q too long", c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("ext2: duplicate entry %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.validate(); err != nil {
			return err
		}
	}
	return nil
}

// sortedChildren returns children in name order for deterministic images.
func (f *File) sortedChildren() []*File {
	out := append([]*File(nil), f.Children...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

var le = binary.LittleEndian
