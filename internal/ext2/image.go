package ext2

import (
	"io"
	"sort"
)

// Image is an ext2 image held by reference. One that WriteImage
// returns owns only the blocks the writer computes: each group's header
// (superblock and group descriptors in group 0, bitmaps, inode table),
// the directory blocks and the pointer blocks, all in one slab. Every
// other byte is a run that points at the Data of the tree the image was
// written from, one run per file per block group the file spans. Bytes
// no run covers (the boot block, a group's unused data blocks, the tail
// of a file's last block) read as zeros.
//
// WriteTo is the only place the full byte layout is produced, and Read
// is the one reader.
type Image struct {
	size int
	runs []run // in image order, not overlapping
}

// run is the image's bytes from block start on: data, then zeros up to
// the next run.
type run struct {
	start int
	data  []byte
}

func (r run) lo() int { return r.start * BlockSize }
func (r run) hi() int { return r.lo() + len(r.data) }

// FromBytes returns the image whose bytes are b, as one run: a flat
// image read back from disk, or one a test has corrupted. The image
// aliases b.
func FromBytes(b []byte) *Image {
	return &Image{size: len(b), runs: []run{{data: b}}}
}

// Size is the image's length in bytes.
func (img *Image) Size() int64 { return int64(img.size) }

var zeroBlock [BlockSize]byte

// WriteTo streams the image's bytes to w, exactly as a flat image lays
// them out.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(b []byte) error {
		k, err := w.Write(b)
		n += int64(k)
		return err
	}
	zeros := func(k int) error {
		for ; k > 0; k -= BlockSize {
			if err := write(zeroBlock[:min(k, BlockSize)]); err != nil {
				return err
			}
		}
		return nil
	}
	at := 0
	for _, r := range img.runs {
		if err := zeros(r.lo() - at); err != nil {
			return n, err
		}
		if err := write(r.data); err != nil {
			return n, err
		}
		at = r.hi()
	}
	return n, zeros(img.size - at)
}

// find is the index of the last run that starts at or before byte off,
// or -1.
func (img *Image) find(off int) int {
	return sort.Search(len(img.runs), func(i int) bool { return img.runs[i].lo() > off }) - 1
}

// at returns image bytes [lo, hi): a slice of the bytes one run points
// at, capped at its length, where that run holds them all; else a copy
// with the bytes no run covers zeroed.
func (img *Image) at(lo, hi int) []byte {
	if i := img.find(lo); i >= 0 && hi <= img.runs[i].hi() {
		base := img.runs[i].lo()
		return img.runs[i].data[lo-base : hi-base : hi-base]
	}
	return img.appendBytes(make([]byte, 0, hi-lo), lo, hi)
}

// appendBytes appends image bytes [lo, hi) to dst.
func (img *Image) appendBytes(dst []byte, lo, hi int) []byte {
	for i := img.find(lo); lo < hi; i++ {
		if i >= 0 && lo < img.runs[i].hi() {
			r := img.runs[i]
			end := min(hi, r.hi())
			dst = append(dst, r.data[lo-r.lo():end-r.lo()]...)
			lo = end
		}
		next := hi
		if i+1 < len(img.runs) {
			next = min(hi, img.runs[i+1].lo())
		}
		dst = append(dst, make([]byte, max(next-lo, 0))...)
		lo = max(lo, next)
	}
	return dst
}
