package ext2

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lupine/internal/faults"
)

// fuzzSizes are the file sizes fuzzTree picks from: the edges of the
// 12 direct blocks and of the 256 more that single indirection reaches,
// a few sizes between them, and one file over 8 MiB, which cannot fit
// in group 0's data area and so crosses into the next block group.
var fuzzSizes = []int{
	0, 1, 300, BlockSize - 1, BlockSize, BlockSize + 1, 5000,
	directBlocks*BlockSize - 1, directBlocks * BlockSize, directBlocks*BlockSize + 1,
	100_000,
	(directBlocks+pointersPerBlock)*BlockSize - 1,
	(directBlocks + pointersPerBlock) * BlockSize,
	(directBlocks+pointersPerBlock)*BlockSize + 1,
	9 << 20,
}

// fuzzTree decodes a file tree from in, three bytes per step: an op, a
// name and an argument. The ops add a regular file (the argument picks
// its size from fuzzSizes), add a symlink (the argument is its target's
// length, so targets fall both under and over the 60 bytes an inode
// holds inline), open a subdirectory or close the current one. A name
// already taken is skipped, and so is a file that would take the tree's
// file bytes past 12 MiB, which keeps each run fast.
func fuzzTree(in []byte) *File {
	root := NewDir("")
	stack := []*File{root}
	total := 0
	for ; len(in) >= 3; in = in[3:] {
		op, name, arg := in[0], fmt.Sprintf("n%02x", in[1]), int(in[2])
		dir := stack[len(stack)-1]
		if op%4 != 3 && dir.Child(name) != nil {
			continue
		}
		switch op % 4 {
		case 0:
			size := fuzzSizes[arg%len(fuzzSizes)]
			if total+size > 12<<20 {
				continue
			}
			total += size
			// A 251-byte period makes every block's bytes differ.
			pattern := make([]byte, 251)
			for i := range pattern {
				pattern[i] = byte(i*7) + in[1]
			}
			data := bytes.Repeat(pattern, size/len(pattern)+1)[:size]
			dir.Children = append(dir.Children, NewFile(name, uint16(op)*0o11&0o7777, data))
		case 1:
			target := make([]byte, arg%120)
			for i := range target {
				target[i] = 'a' + byte(i%26)
			}
			dir.Children = append(dir.Children, NewSymlink(name, string(target)))
		case 2:
			if len(stack) < 8 {
				sub := NewDir(name)
				dir.Children = append(dir.Children, sub)
				stack = append(stack, sub)
			}
		case 3:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	return root
}

// FuzzImageRoundTrip writes a tree decoded from its input and reads it
// back twice: from the image, and from the bytes the image streams. Both
// reads must give the tree back; under the same plan of bit flips
// injected at ext2/block-read, both must give equal trees or equal
// errors. Neither read may change the streamed bytes or any Data the
// tree handed in, since file data may be a view of either.
func FuzzImageRoundTrip(f *testing.F) {
	f.Add([]byte{})
	var edges []byte
	for i := range fuzzSizes {
		edges = append(edges, 0, byte(i), byte(i))
	}
	f.Add(edges)
	f.Add([]byte{
		2, 1, 0, // mkdir n01
		0, 2, 14, // a file over 8 MiB
		1, 3, 7, // short symlink
		1, 4, 90, // long symlink
		3, 0, 0, // back to /
		0, 5, 12, // 268 blocks
		0, 6, 8, // 12 blocks
	})
	var wide []byte
	for i := 0; i < 120; i++ {
		wide = append(wide, byte(i%2), byte(i), byte(i))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, in []byte) {
		root := fuzzTree(in)
		img, err := WriteImage(root)
		if err != nil {
			t.Fatal(err)
		}
		streamed := flat(t, img)
		orig := bytes.Clone(streamed)
		for _, src := range []*Image{img, FromBytes(streamed)} {
			back, err := src.Read(nil)
			if err != nil {
				t.Fatal(err)
			}
			assertTreesEqual(t, "/", root, back)
		}
		flips := func() *faults.Injector {
			return faults.MustNew(faults.Plan{
				Seed:  uint64(len(in)),
				Rules: []faults.Rule{{Site: SiteBlockRead, Prob: 0.3, Param: int64(len(in)) * 131}},
			})
		}
		byRef, refErr := img.Read(flips())
		byBytes, bytesErr := FromBytes(streamed).Read(flips())
		if refErr != nil && !errors.Is(refErr, ErrIO) {
			t.Fatalf("with bit flips: error outside the ErrIO taxonomy: %v", refErr)
		}
		if fmt.Sprint(refErr) != fmt.Sprint(bytesErr) {
			t.Fatalf("with bit flips: the image reads as %v, its bytes as %v", refErr, bytesErr)
		}
		if refErr == nil {
			if d := treeDiff("/", byBytes, byRef, true); d != "" {
				t.Error(d)
			}
		}
		// The image points at the tree's Data, so streaming it again
		// also shows whether a read wrote into that.
		if !bytes.Equal(streamed, orig) || !bytes.Equal(flat(t, img), orig) {
			t.Fatal("reading changed the image's bytes")
		}
	})
}

// A bit flip can rename a directory entry onto a sibling's name. The
// reader accepts the duplicate, and two reads of the image agree, but a
// lookup by name finds the first of the two in both trees, so only a
// comparison by position accepts them, and it still sees other damage.
func TestReadsWithADuplicateNameCompareByPosition(t *testing.T) {
	img, err := WriteImage(NewDir("",
		NewFile("dupe-a", 0o644, []byte("the file")),
		NewDir("dupe-b"),
	))
	if err != nil {
		t.Fatal(err)
	}
	b := flat(t, img)
	at := bytes.Index(b, []byte("dupe-b"))
	if at < 0 || bytes.Index(b[at+1:], []byte("dupe-b")) >= 0 {
		t.Fatal("want exactly one copy of dupe-b's name in the image")
	}
	copy(b[at:], "dupe-a")
	read := func() *File {
		root, err := FromBytes(b).Read(nil)
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	first, second := read(), read()
	if c := first.Children; len(c) != 2 || c[0].Name != "dupe-a" || c[1].Name != "dupe-a" || c[0].Dir == c[1].Dir {
		t.Fatalf("root reads back as %+v, want a file and a directory both named dupe-a", c)
	}
	if d := treeDiff("/", first, second, true); d != "" {
		t.Fatalf("two reads of one image differ by position: %s", d)
	}
	changed := read()
	for _, c := range changed.Children {
		if !c.Dir {
			c.Data = append(bytes.Clone(c.Data), '!') // a fresh slice: Data views b
		}
	}
	if treeDiff("/", first, changed, true) == "" {
		t.Fatal("a read whose file data changed compares equal by position")
	}
}
