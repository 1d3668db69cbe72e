package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"

	"lupine/internal/ext2"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
	"lupine/internal/rootfs"
)

// cowSteps are the three kinds of write a guest makes to its rootfs:
// it overwrites bytes inside a file (two of them), truncates one with
// O_TRUNC and rewrites it, and appends to one. /lib/libm.so and
// /bin/busybox are synthesized binaries, whose bytes every image in the
// process shares.
var cowSteps = []struct {
	path  string
	flags int
	skip  int // bytes read before writing, to reach an offset inside the file
	data  string
}{
	{"/etc/hostname", guest.ORdwr, 1, "XY"},
	{"/manifest.json", guest.OWronly | guest.OTrunc, 0, "{}"},
	{"/lib/libm.so", guest.ORdwr, 10, "patched"},
	{"/bin/busybox", guest.OWronly | guest.OAppend, 0, "tail"},
}

// cowWant returns what a guest booted from tree reads back from each
// file cowSteps writes, and what the files held before.
func cowWant(tree *ext2.File) (want, orig map[string]string) {
	want, orig = make(map[string]string), make(map[string]string)
	for _, s := range cowSteps {
		b := bytes.Clone(tree.Lookup(s.path).Data)
		orig[s.path] = string(b)
		switch {
		case s.flags&guest.OTrunc != 0:
			b = []byte(s.data)
		case s.flags&guest.OAppend != 0:
			b = append(b, s.data...)
		default:
			copy(b[s.skip:], s.data)
		}
		want[s.path] = string(b)
	}
	return want, orig
}

// cowWrite makes cowSteps' writes through p's file syscalls, then reads
// every file it wrote back into got.
func cowWrite(p *guest.Proc, got map[string]string) error {
	for _, s := range cowSteps {
		fd, e := p.Open(s.path, s.flags)
		if e == guest.OK && s.skip > 0 {
			_, e = p.Read(fd, make([]byte, s.skip))
		}
		if e == guest.OK {
			_, e = p.Write(fd, []byte(s.data))
		}
		if e != guest.OK {
			return fmt.Errorf("%s: %v", s.path, e)
		}
		p.Close(fd)
		got[s.path] = ""
	}
	return readFiles(p, got)
}

// A booted guest's rootfs files are views of the bytes the Unikernel's
// image points at until written. A guest that makes cowSteps' writes
// reads its own writes; afterwards the image streams the same bytes,
// and a second VM booted from the same Unikernel reads the original
// contents.
func TestBootCopiesRootFSOnWrite(t *testing.T) {
	u, err := Build(kerneldb.MustLoad(), specFor(t, "hello-world"), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	image := imageBytes(t, u.RootFS)
	tree, err := u.RootFS.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, orig := cowWant(tree)

	got := make(map[string]string)
	var gotErr error
	u.Spec.Program = func(p *guest.Proc, _ bool) int {
		gotErr = cowWrite(p, got)
		return 0
	}
	runVM(t, u)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	for path, w := range want {
		if got[path] != w {
			t.Errorf("guest reads %s as %d bytes, want its own write (%d bytes)", path, len(got[path]), len(w))
		}
	}
	if !bytes.Equal(imageBytes(t, u.RootFS), image) {
		t.Fatal("guest writes reached the Unikernel's rootfs image")
	}

	u.Spec.Program = func(p *guest.Proc, _ bool) int {
		gotErr = readFiles(p, got)
		return 0
	}
	runVM(t, u)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	for path, w := range orig {
		if got[path] != w {
			t.Errorf("second VM reads %s as %d bytes, want the original %d", path, len(got[path]), len(w))
		}
	}
}

// An image holds no copy of the synthesized binaries: it points at the
// process-wide cache, as every other image does. Four guests booted at
// once from one Unikernel each make cowSteps' writes and read their own
// writes; afterwards the image still streams its pinned bytes, and the
// cache still returns the binaries it generated.
func TestConcurrentBootsLeaveSharedBytesAlone(t *testing.T) {
	const helloImage = "8a8aa272160aa398bea97d33d2f937a5e3395c4a9aac4730a585c6962217e337" // rootfs' imagePins
	synthesized := func() []string {
		var sums []string
		for _, b := range [][]byte{
			rootfs.SynthBinary("busybox", 160, 96),
			rootfs.SynthBinary("libm", 90, 0),
			rootfs.Musl(false),
			rootfs.Musl(true),
		} {
			sum := sha256.Sum256(b)
			sums = append(sums, hex.EncodeToString(sum[:]))
		}
		return sums
	}
	before := synthesized()
	u, err := Build(kerneldb.MustLoad(), specFor(t, "hello-world"), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := u.RootFS.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cowWant(tree)

	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			guestU := *u // shares Kernel and RootFS; only the program differs
			got := make(map[string]string)
			guestU.Spec.Program = func(p *guest.Proc, _ bool) int {
				errs[i] = cowWrite(p, got)
				return 0
			}
			vm, err := guestU.Boot(BootOpts{ProbeOnly: true})
			if err == nil {
				err = vm.Run()
			}
			if err != nil {
				errs[i] = err
				return
			}
			for path, w := range want {
				if got[path] != w && errs[i] == nil {
					errs[i] = fmt.Errorf("guest %d reads %s as %d bytes, want its own write (%d bytes)", i, path, len(got[path]), len(w))
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := imageDigest(t, u.RootFS); got != helloImage {
		t.Errorf("after the guests' writes the image streams sha256 %s, pinned %s", got, helloImage)
	}
	if after := synthesized(); strings.Join(after, " ") != strings.Join(before, " ") {
		t.Errorf("guest writes reached the synthesized binaries: sha256 %v, were %v", after, before)
	}
}

// imageBytes lays an image out in full.
func imageBytes(t *testing.T, img *ext2.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// imageDigest is the hex sha256 of the bytes an image streams.
func imageDigest(t *testing.T, img *ext2.Image) string {
	t.Helper()
	sum := sha256.Sum256(imageBytes(t, img))
	return hex.EncodeToString(sum[:])
}

// readFiles reads each path in got through the guest's file syscalls
// and stores its contents there.
func readFiles(p *guest.Proc, got map[string]string) error {
	for path := range got {
		fd, e := p.Open(path, guest.ORdonly)
		if e != guest.OK {
			return fmt.Errorf("open %s: %v", path, e)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, e := p.Read(fd, buf)
			if e != guest.OK {
				return fmt.Errorf("read %s: %v", path, e)
			}
			if n == 0 {
				break
			}
			sb.Write(buf[:n])
		}
		p.Close(fd)
		got[path] = sb.String()
	}
	return nil
}
