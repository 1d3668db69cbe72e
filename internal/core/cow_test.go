package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lupine/internal/ext2"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
)

// A booted guest's rootfs files are views of the Unikernel's image
// until written. A guest that overwrites bytes inside one file,
// truncates one with O_TRUNC and rewrites it, shortens one with
// ftruncate and writes inside it, and appends to one reads its own
// writes; afterwards the image is byte-identical, and a second VM booted
// from the same Unikernel reads the original contents.
func TestBootCopiesRootFSOnWrite(t *testing.T) {
	u, err := Build(kerneldb.MustLoad(), specFor(t, "hello-world"), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	image := bytes.Clone(u.RootFS)
	tree, err := ext2.ReadImage(image)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		path  string
		flags int
		trunc int64 // ftruncate to this size first; -1 = leave the size
		at    int64 // seek here before writing; -1 = keep the open offset
		data  string
	}{
		{"/etc/hostname", guest.ORdwr, -1, 1, "XY"},
		{"/manifest.json", guest.OWronly | guest.OTrunc, -1, -1, "{}"},
		{"/lib/libm.so", guest.ORdwr, 100, 10, "patched"},
		{"/bin/busybox", guest.OWronly | guest.OAppend, -1, -1, "tail"},
	}
	want := make(map[string]string)
	orig := make(map[string]string)
	got := make(map[string]string)
	for _, s := range steps {
		b := bytes.Clone(tree.Lookup(s.path).Data)
		orig[s.path], got[s.path] = string(b), ""
		if s.trunc >= 0 {
			b = b[:s.trunc]
		}
		switch {
		case s.flags&guest.OTrunc != 0:
			b = []byte(s.data)
		case s.flags&guest.OAppend != 0:
			b = append(b, s.data...)
		default:
			copy(b[s.at:], s.data)
		}
		want[s.path] = string(b)
	}

	var gotErr error
	u.Spec.Program = func(p *guest.Proc, _ bool) int {
		for _, s := range steps {
			fd, e := p.Open(s.path, s.flags)
			if e == guest.OK && s.trunc >= 0 {
				e = p.Ftruncate(fd, s.trunc)
			}
			if e == guest.OK && s.at >= 0 {
				_, e = p.Lseek(fd, s.at, guest.SeekSet)
			}
			if e == guest.OK {
				_, e = p.Write(fd, []byte(s.data))
			}
			if e != guest.OK {
				gotErr = fmt.Errorf("%s: %v", s.path, e)
				return 1
			}
			p.Close(fd)
		}
		gotErr = readFiles(p, got)
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
	if !bytes.Equal(u.RootFS, image) {
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
