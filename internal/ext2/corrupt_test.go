package ext2

import (
	"bytes"
	"errors"
	"testing"

	"lupine/internal/faults"
)

// corruptTree builds the bytes of an image big enough to exercise direct blocks,
// indirect blocks, symlinks and nested directories.
func corruptTree(t *testing.T) []byte {
	t.Helper()
	big := make([]byte, 40*BlockSize)
	for i := range big {
		big[i] = byte(i * 7)
	}
	root := NewDir("",
		NewDir("etc",
			NewFile("passwd", 0o644, []byte("root:x:0:0:root:/root:/bin/sh\n")),
			NewSymlink("mtab", "/proc/mounts"),
		),
		NewDir("bin",
			NewFile("init", 0o755, []byte("#!/bin/sh\necho ok\n")),
		),
		NewFile("big.dat", 0o644, big),
	)
	img, err := WriteImage(root)
	if err != nil {
		t.Fatalf("WriteImage: %v", err)
	}
	return flat(t, img)
}

// TestBitFlipNeverPanics is the fuzz-style robustness check: flipping any
// single bit of the image must either still parse or fail with an error
// in the ErrIO taxonomy — never a panic, never a non-classified error.
func TestBitFlipNeverPanics(t *testing.T) {
	base := corruptTree(t)
	// A deterministic stride keeps the test fast while still visiting
	// every image region (superblock, descriptors, bitmaps, inode table,
	// directory data, indirect blocks).
	for off := 0; off < len(base); off += 37 {
		for bit := uint(0); bit < 8; bit += 3 {
			img := append([]byte(nil), base...)
			img[off] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic at offset %d bit %d: %v", off, bit, r)
					}
				}()
				if _, err := FromBytes(img).Read(nil); err != nil && !errors.Is(err, ErrIO) {
					t.Fatalf("offset %d bit %d: error outside ErrIO taxonomy: %v", off, bit, err)
				}
			}()
		}
	}
}

// TestTruncationNeverPanics cuts the image at awkward boundaries.
func TestTruncationNeverPanics(t *testing.T) {
	base := corruptTree(t)
	for _, n := range []int{0, 1, BlockSize, 2*BlockSize + 13, 3 * BlockSize, len(base) / 2, len(base) - 1} {
		img := append([]byte(nil), base[:n]...)
		if _, err := FromBytes(img).Read(nil); err != nil && !errors.Is(err, ErrIO) {
			t.Fatalf("truncated to %d: error outside ErrIO taxonomy: %v", n, err)
		}
	}
}

// TestSentinelClassification checks the specific sentinels callers are
// documented to match with errors.Is.
func TestSentinelClassification(t *testing.T) {
	base := corruptTree(t)

	short := append([]byte(nil), base[:2*BlockSize]...)
	if _, err := FromBytes(short).Read(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("short image: got %v, want ErrTruncated", err)
	}

	badMagic := append([]byte(nil), base...)
	badMagic[BlockSize+56] ^= 0xFF
	if _, err := FromBytes(badMagic).Read(nil); !errors.Is(err, ErrBadSuperblock) {
		t.Errorf("bad magic: got %v, want ErrBadSuperblock", err)
	}

	// Inflate the block count past the image size.
	claims := append([]byte(nil), base...)
	claims[BlockSize+4] = 0xFF
	claims[BlockSize+5] = 0xFF
	if _, err := FromBytes(claims).Read(nil); !errors.Is(err, ErrBadSuperblock) {
		t.Errorf("inflated block count: got %v, want ErrBadSuperblock", err)
	}
}

// TestInjectedBlockFaults drives the ext2/block-read site directly: a
// short read is an ErrTruncated failure, a bit flip yields either a parse
// error in the taxonomy or silently corrupted file data — never a panic.
func TestInjectedBlockFaults(t *testing.T) {
	base := corruptTree(t)

	shortRead := faults.MustNew(faults.Plan{
		Seed:  1,
		Rules: []faults.Rule{{Site: SiteBlockRead, NthHit: 1, Param: -1}},
	})
	if _, err := FromBytes(base).Read(shortRead); !errors.Is(err, ErrTruncated) {
		t.Errorf("injected short read: got %v, want ErrTruncated", err)
	}

	for n := 1; n < 40; n += 2 {
		flip := faults.MustNew(faults.Plan{
			Seed:  1,
			Rules: []faults.Rule{{Site: SiteBlockRead, NthHit: n, Param: int64(n * 131)}},
		})
		if _, err := FromBytes(base).Read(flip); err != nil && !errors.Is(err, ErrIO) {
			t.Fatalf("bit flip on hit %d: error outside ErrIO taxonomy: %v", n, err)
		}
	}

	// A nil injector reads fault-free.
	if _, err := FromBytes(base).Read(nil); err != nil {
		t.Fatalf("nil injector: %v", err)
	}
}

// A bit flip injected on a block read corrupts what is read, never the
// image or the bytes it points at: the file whose block flipped comes
// back as a copy carrying that one flipped bit, though its blocks are
// one run, while the image streams every byte it was written with and
// the tree's Data is unchanged.
func TestFlippedBlockIsACopy(t *testing.T) {
	data := bytes.Repeat([]byte("lupine"), 1000) // six contiguous blocks
	orig := bytes.Clone(data)
	img, err := WriteImage(NewDir("", NewFile("f", 0o644, data)))
	if err != nil {
		t.Fatal(err)
	}
	streamed := flat(t, img)
	// Hit 1 reads the root directory; hit 3 is the file's second block.
	flip := faults.MustNew(faults.Plan{
		Seed:  1,
		Rules: []faults.Rule{{Site: SiteBlockRead, NthHit: 3, Param: 9}},
	})
	back, err := img.Read(flip)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(data)
	want[BlockSize+9] ^= 1 << (9 % 8)
	if !bytes.Equal(back.Child("f").Data, want) {
		t.Error("file read through a flipped block does not carry exactly the flipped bit")
	}
	if !bytes.Equal(data, orig) {
		t.Error("the injected bit flip reached the tree's Data")
	}
	if !bytes.Equal(flat(t, img), streamed) {
		t.Error("the injected bit flip reached the image")
	}
}

// An inode number inside s_inodes_count but in a group the descriptor
// table does not cover is corrupt: the reader must not take the
// table's zeroed tail for that group's inode table.
func TestInodeBeyondGroupsIsCorrupt(t *testing.T) {
	img, err := WriteImage(NewDir("", NewFile("f", 0o644, []byte("x"))))
	if err != nil {
		t.Fatal(err)
	}
	b := flat(t, img)
	le.PutUint32(b[BlockSize:], 4096) // s_inodes_count: eight groups' worth, of one
	// Point the root directory's entry for f at inode 2563, in group 5.
	table := int(le.Uint32(b[2*BlockSize+8:]))
	root := b[table*BlockSize+InodeSize:] // inode 2
	dir := b[int(le.Uint32(root[40:]))*BlockSize:][:BlockSize]
	for off := 0; off < BlockSize; off += int(le.Uint16(dir[off+4:])) {
		if string(dir[off+8:off+8+int(dir[off+6])]) == "f" {
			le.PutUint32(dir[off:], 2563)
		}
	}
	if _, err := FromBytes(b).Read(nil); !errors.Is(err, ErrCorruptInode) {
		t.Errorf("entry for an inode in an uncovered group: got %v, want ErrCorruptInode", err)
	}
}
