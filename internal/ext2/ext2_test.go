package ext2

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func sampleTree() *File {
	return NewDir("",
		NewDir("bin",
			NewFile("redis-server", 0o755, bytes.Repeat([]byte("ELF"), 500)),
			NewSymlink("sh", "/bin/busybox"),
			NewFile("busybox", 0o755, []byte("#!busybox")),
		),
		NewDir("lib",
			NewFile("libc.so", 0o644, bytes.Repeat([]byte{0xCA, 0xFE}, 40000)), // 80 KB: needs indirect blocks
			NewFile("libm.so", 0o644, []byte("math")),
		),
		NewDir("etc",
			NewFile("init", 0o755, []byte("#!/bin/sh\nexec /bin/redis-server\n")),
		),
		NewDir("tmp"),
		NewFile("manifest.json", 0o644, []byte(`{"app":"redis"}`)),
	)
}

func TestWriteReadRoundTrip(t *testing.T) {
	root := sampleTree()
	img, err := WriteImage(root)
	if err != nil {
		t.Fatal(err)
	}
	if img.Size()%BlockSize != 0 {
		t.Fatalf("image size %d not block aligned", img.Size())
	}
	back, err := img.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	assertTreesEqual(t, "/", root, back)
}

// imageDigest is the hex sha256 of the bytes an image streams, for
// layout pins.
func imageDigest(img *Image) string {
	h := sha256.New()
	if _, err := img.WriteTo(h); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// flat lays an image out in full, for tests that corrupt its bytes or
// look at them directly.
func flat(t testing.TB, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Grow(int(img.Size()))
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertTreesEqual fails t at the first difference treeDiff finds
// between a source tree and a read of its image, pairing children by
// name: the writer emits a directory's children sorted, so the read's
// order need not be the source's.
func assertTreesEqual(t *testing.T, path string, want, got *File) {
	t.Helper()
	if d := treeDiff(path, want, got, false); d != "" {
		t.Error(d)
	}
}

// treeDiff describes the first difference between want and got under
// path, or returns "". It pairs a directory's children by name, or,
// byPosition, in directory order. Two reads of one corrupt image must
// compare by position: a bit flip can rename an entry onto a sibling's
// name, and a lookup by name then finds the sibling in both.
func treeDiff(path string, want, got *File, byPosition bool) string {
	if want.Dir != got.Dir || want.Symlink != got.Symlink {
		return fmt.Sprintf("%s: kind mismatch: want dir=%v sym=%v, got dir=%v sym=%v",
			path, want.Dir, want.Symlink, got.Dir, got.Symlink)
	}
	if !want.Dir && !bytes.Equal(want.Data, got.Data) {
		return fmt.Sprintf("%s: data mismatch: %d vs %d bytes", path, len(want.Data), len(got.Data))
	}
	if want.Mode&0o7777 != got.Mode&0o7777 {
		return fmt.Sprintf("%s: mode %o vs %o", path, want.Mode, got.Mode)
	}
	if !want.Dir {
		return ""
	}
	if len(want.Children) != len(got.Children) {
		return fmt.Sprintf("%s: %d children vs %d", path, len(want.Children), len(got.Children))
	}
	for i, wc := range want.Children {
		gc := got.Child(wc.Name)
		if byPosition {
			gc = got.Children[i]
		}
		if gc == nil || gc.Name != wc.Name {
			return fmt.Sprintf("%s: missing child %q", path, wc.Name)
		}
		if d := treeDiff(path+wc.Name+"/", wc, gc, byPosition); d != "" {
			return d
		}
	}
	return ""
}

func TestSuperblockFields(t *testing.T) {
	img, err := WriteImage(sampleTree())
	if err != nil {
		t.Fatal(err)
	}
	b := flat(t, img)
	sb := b[BlockSize : 2*BlockSize]
	if magic := le.Uint16(sb[56:]); magic != 0xEF53 {
		t.Errorf("magic = %#x", magic)
	}
	if first := le.Uint32(sb[20:]); first != 1 {
		t.Errorf("first data block = %d, want 1", first)
	}
	if logBS := le.Uint32(sb[24:]); logBS != 0 {
		t.Errorf("log block size = %d, want 0 (1 KiB)", logBS)
	}
	blocks := le.Uint32(sb[4:])
	if int(blocks)*BlockSize != len(b) {
		t.Errorf("superblock blocks %d vs image %d", blocks, len(b)/BlockSize)
	}
}

func TestLargeFileIndirection(t *testing.T) {
	// > 12 KiB forces single indirection; > 12 KiB + 256 KiB forces double.
	// Each image's sha256 is pinned: the layout is part of the contract.
	cases := []struct {
		size   int
		sha256 string
	}{
		{0, "62e337f61f582694e71f877e036229541b90d527603df4cfc4ad6b32b9d53304"},
		{1, "7e8b1bbb61564c6d5663edaa8c398824e4ba561979c61462260e36b41791dac7"},
		{BlockSize, "19be1a1bea1042107459dbb306536ec4d287368a6f8c3e6fec33e73b75ec8167"},
		{directBlocks * BlockSize, "7ba6132fd299c263b8b251cd53f7f15241e822cfcac0053b8798179119ae20b1"},                        // direct only
		{directBlocks*BlockSize + 1, "60d1014eee7c80d8786bf6951c305ff2c09146dd9cea7a5c934b8166bc588825"},                      // single indirect begins
		{(directBlocks + pointersPerBlock) * BlockSize, "02b366590fbcc2170dbdbfdc0de25275a4f67fe6545676c9e7a6fe59f6077d01"},   // single indirect full
		{(directBlocks+pointersPerBlock)*BlockSize + 777, "7f5bf7f59375282d2212f41d495826ae110905ab4235702d24256501f902f2a1"}, // double indirect begins
		{2 << 20, "b0de21380abc508de7e7b47e6546875d641eabb1112a5800eb7013d518c04d27"},                                         // 2 MiB, deep into double indirect (musl libc scale)
	}
	for _, c := range cases {
		size := c.size
		data := make([]byte, size)
		rnd := rand.New(rand.NewSource(int64(size)))
		rnd.Read(data)
		root := NewDir("", NewFile("blob", 0o644, data))
		img, err := WriteImage(root)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if got := imageDigest(img); got != c.sha256 {
			t.Errorf("size %d: image sha256 %s, pinned %s", size, got, c.sha256)
		}
		back, err := img.Read(nil)
		if err != nil {
			t.Fatalf("size %d: read: %v", size, err)
		}
		got := back.Child("blob")
		if got == nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("size %d: data corrupted", size)
		}
	}
}

func TestManyEntriesDirectory(t *testing.T) {
	// Enough entries to span multiple directory blocks.
	var children []*File
	for i := 0; i < 200; i++ {
		children = append(children, NewFile(fmt.Sprintf("file-%03d-with-a-longish-name", i), 0o644, []byte{byte(i)}))
	}
	root := NewDir("", children...)
	img, err := WriteImage(root)
	if err != nil {
		t.Fatal(err)
	}
	back, err := img.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Children) != 200 {
		t.Fatalf("%d children survived, want 200", len(back.Children))
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("file-%03d-with-a-longish-name", i)
		c := back.Child(name)
		if c == nil || len(c.Data) != 1 || c.Data[0] != byte(i) {
			t.Fatalf("entry %q corrupted", name)
		}
	}
}

func TestSymlinks(t *testing.T) {
	longTarget := "/very/long/path/" + string(bytes.Repeat([]byte("x"), 80))
	root := NewDir("",
		NewSymlink("fast", "/bin/sh"),
		NewSymlink("slow", longTarget),
	)
	img, err := WriteImage(root)
	if err != nil {
		t.Fatal(err)
	}
	back, err := img.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(back.Child("fast").Data); got != "/bin/sh" {
		t.Errorf("fast symlink = %q", got)
	}
	if got := string(back.Child("slow").Data); got != longTarget {
		t.Errorf("slow symlink corrupted (%d bytes)", len(got))
	}
}

func TestWriteErrors(t *testing.T) {
	if _, err := WriteImage(nil); err == nil {
		t.Error("nil root accepted")
	}
	if _, err := WriteImage(NewFile("f", 0o644, nil)); err == nil {
		t.Error("non-directory root accepted")
	}
	dup := NewDir("", NewFile("a", 0o644, nil), NewFile("a", 0o644, nil))
	if _, err := WriteImage(dup); err == nil {
		t.Error("duplicate names accepted")
	}
	bad := NewDir("", &File{Name: "x/y", Mode: 0o644})
	if _, err := WriteImage(bad); err == nil {
		t.Error("slash in name accepted")
	}
	huge := NewDir("", NewFile("huge", 0o644, make([]byte, maxFileBlocks*BlockSize+1)))
	if _, err := WriteImage(huge); err == nil {
		t.Error("file over the size limit accepted")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := FromBytes(nil).Read(nil); err == nil {
		t.Error("empty image accepted")
	}
	img, err := WriteImage(sampleTree())
	if err != nil {
		t.Fatal(err)
	}
	bad := flat(t, img)
	le.PutUint16(bad[BlockSize+56:], 0xDEAD)
	if _, err := FromBytes(bad).Read(nil); err == nil {
		t.Error("bad magic accepted")
	}
	truncated := flat(t, img)[:2*BlockSize]
	if _, err := FromBytes(truncated).Read(nil); err == nil {
		t.Error("truncated image accepted")
	}
}

func TestLookupAndWalk(t *testing.T) {
	root := sampleTree()
	if f := root.Lookup("/bin/redis-server"); f == nil || f.Dir {
		t.Error("Lookup /bin/redis-server failed")
	}
	if f := root.Lookup("lib/libm.so"); f == nil || string(f.Data) != "math" {
		t.Error("Lookup without leading slash failed")
	}
	if f := root.Lookup("/"); f != root {
		t.Error("Lookup / is not root")
	}
	if f := root.Lookup("/no/such"); f != nil {
		t.Error("Lookup of missing path returned node")
	}
	if f := root.Lookup("/manifest.json/x"); f != nil {
		t.Error("Lookup through file returned node")
	}
	var paths []string
	root.Walk(func(p string, _ *File) { paths = append(paths, p) })
	if paths[0] != "/" {
		t.Errorf("walk starts at %q", paths[0])
	}
	found := false
	for _, p := range paths {
		if p == "/lib/libc.so" {
			found = true
		}
	}
	if !found {
		t.Errorf("walk missed /lib/libc.so: %v", paths)
	}
}

// Property: write/read round-trips arbitrary small file trees.
func TestRoundTripProperty(t *testing.T) {
	f := func(names []string, blobs [][]byte, seed int64) bool {
		root := NewDir("")
		sub := NewDir("sub")
		root.Children = append(root.Children, sub)
		used := map[string]bool{"sub": true}
		for i, raw := range blobs {
			if i >= len(names) || i > 20 {
				break
			}
			name := sanitizeName(names[i], i)
			if used[name] {
				continue
			}
			used[name] = true
			if len(raw) > 64*1024 {
				raw = raw[:64*1024]
			}
			node := NewFile(name, 0o644, raw)
			if i%3 == 0 {
				sub.Children = append(sub.Children, node)
			} else {
				root.Children = append(root.Children, node)
			}
		}
		img, err := WriteImage(root)
		if err != nil {
			return false
		}
		back, err := img.Read(nil)
		if err != nil {
			return false
		}
		ok := true
		root.Walk(func(p string, n *File) {
			if n.Dir {
				return
			}
			g := back.Lookup(p)
			if g == nil || !bytes.Equal(g.Data, n.Data) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeName(s string, i int) string {
	out := []byte(fmt.Sprintf("f%d-", i))
	for _, c := range []byte(s) {
		if c > 0x20 && c != '/' && c < 0x7f && len(out) < 40 {
			out = append(out, c)
		}
	}
	return string(out)
}

func TestMultiGroupImage(t *testing.T) {
	// ~20 MB of payload spans three block groups (8 MiB each).
	var children []*File
	total := 0
	for i := 0; i < 10; i++ {
		data := make([]byte, 2<<20)
		for j := range data {
			data[j] = byte(i + j*7)
		}
		children = append(children, NewFile(fmt.Sprintf("blob-%02d", i), 0o644, data))
		total += len(data)
	}
	root := NewDir("", NewDir("payload", children...))
	img, err := WriteImage(root)
	if err != nil {
		t.Fatal(err)
	}
	if img.Size() <= 2*blocksPerGroup*BlockSize {
		t.Fatalf("image only %d bytes; expected to span >2 groups", img.Size())
	}
	if got, want := imageDigest(img), "812e6a14b7433334a1d7add78e40002810fc17b14480f720a34a0aaf71e01446"; got != want {
		t.Errorf("image sha256 %s, pinned %s", got, want)
	}
	back, err := img.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("/payload/blob-%02d", i)
		f := back.Lookup(name)
		if f == nil {
			t.Fatalf("%s missing", name)
		}
		if len(f.Data) != 2<<20 {
			t.Fatalf("%s is %d bytes", name, len(f.Data))
		}
		for j := 0; j < len(f.Data); j += 4099 {
			if f.Data[j] != byte(i+j*7) {
				t.Fatalf("%s corrupted at %d", name, j)
			}
		}
	}
}

func TestManyInodesSpanGroups(t *testing.T) {
	// More inodes than one group's table holds (512/group).
	var children []*File
	for i := 0; i < 1200; i++ {
		children = append(children, NewFile(fmt.Sprintf("f%04d", i), 0o644, []byte{byte(i), byte(i >> 8)}))
	}
	root := NewDir("", children...)
	img, err := WriteImage(root)
	if err != nil {
		t.Fatal(err)
	}
	back, err := img.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Children) != 1200 {
		t.Fatalf("%d children, want 1200", len(back.Children))
	}
	for _, i := range []int{0, 511, 512, 1024, 1199} {
		f := back.Child(fmt.Sprintf("f%04d", i))
		if f == nil || len(f.Data) != 2 || f.Data[0] != byte(i) {
			t.Fatalf("entry %d corrupted", i)
		}
	}
}

// Property: arbitrary single-byte corruption of a valid image must never
// panic the reader — it either parses (benign corruption) or errors.
func TestReaderCorruptionRobustness(t *testing.T) {
	img, err := WriteImage(sampleTree())
	if err != nil {
		t.Fatal(err)
	}
	b := flat(t, img)
	f := func(offset uint32, val byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		mut := bytes.Clone(b)
		mut[int(offset)%len(mut)] = val
		FromBytes(mut).Read(nil) // outcome irrelevant; absence of panic is the property
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary truncation never panics either.
func TestReaderTruncationRobustness(t *testing.T) {
	img, err := WriteImage(sampleTree())
	if err != nil {
		t.Fatal(err)
	}
	b := flat(t, img)
	f := func(n uint32) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		FromBytes(b[:int(n)%(len(b)+1)]).Read(nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// No file's bytes are copied on the way into an image or out of it:
// writing a tree that holds one 1 MiB file makes a fixed, small number
// of allocations that hold only the image's metadata, and reading it
// back allocates a few kilobytes, because the file's Data is a view of
// the tree's own slice.
func TestImageAllocations(t *testing.T) {
	data := bytes.Repeat([]byte{0x5A}, 1<<20)
	root := NewDir("", NewFile("blob", 0o644, data))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := WriteImage(root); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function once more to warm up.
	if allocs > 100 {
		t.Errorf("WriteImage: %.0f allocations, want at most 100", allocs)
	}
	if b := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); b >= 128<<10 {
		t.Errorf("WriteImage: %d bytes in %.0f allocations, want under 128 KiB", b, allocs)
	}

	img, err := WriteImage(root)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, func() {
		if _, err := img.Read(nil); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); b >= 16<<10 {
		t.Errorf("Read: %d bytes in %.0f allocations, want under 16 KiB", b, allocs)
	}
	back, err := img.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Child("blob").Data; len(got) != len(data) || &got[0] != &data[0] || cap(got) != len(got) {
		t.Error("Read copied the file instead of returning a capped view of the tree's slice")
	}
}
