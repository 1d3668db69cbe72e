package guest

import (
	"fmt"
	"testing"

	"lupine/internal/ext2"
)

// The kernel shares the mounted tree's file bytes and copies a file only
// on its first write. A guest that overwrites bytes inside a file,
// truncates one with O_TRUNC and rewrites it, and appends to one reads
// back its own writes, while the caller's tree keeps every byte it
// passed in.
func TestRootFSCopyOnWrite(t *testing.T) {
	const orig = "0123456789"
	data := ext2.NewDir("data")
	for _, name := range []string{"overwrite", "otrunc", "append"} {
		data.Children = append(data.Children, ext2.NewFile(name, 0o644, []byte(orig)))
	}
	k, err := NewKernel(Params{Image: buildImage(t, "lupine-base"), RootFS: ext2.NewDir("", data)})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	var gotErr error
	k.Spawn("cow", func(p *Proc) int {
		got, gotErr = writeRootFS(p)
		return 0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	want := map[string]string{"overwrite": "01ab456789", "otrunc": "new", "append": orig + "tail"}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("guest reads /data/%s = %q, want its own write %q", name, got[name], w)
		}
	}
	for _, c := range data.Children {
		if string(c.Data) != orig {
			t.Errorf("caller's /data/%s = %q after the guest wrote it, want %q", c.Name, c.Data, orig)
		}
	}
}

// writeRootFS makes the three kinds of write to the files under /data,
// then reads each back.
func writeRootFS(p *Proc) (map[string]string, error) {
	steps := []struct {
		name  string
		flags int
		skip  int // bytes read before writing, to reach an offset inside the file
		data  string
	}{
		{"overwrite", ORdwr, 2, "ab"},
		{"otrunc", OWronly | OTrunc, 0, "new"},
		{"append", OWronly | OAppend, 0, "tail"},
	}
	got := make(map[string]string)
	for _, s := range steps {
		path := "/data/" + s.name
		fd, e := p.Open(path, s.flags)
		if e != OK {
			return nil, fmt.Errorf("open %s: %v", path, e)
		}
		if s.skip > 0 {
			if n, e := p.Read(fd, make([]byte, s.skip)); e != OK || n != s.skip {
				return nil, fmt.Errorf("read %s up to %d: %d, %v", path, s.skip, n, e)
			}
		}
		if _, e := p.Write(fd, []byte(s.data)); e != OK {
			return nil, fmt.Errorf("write %s: %v", path, e)
		}
		p.Close(fd)

		fd, e = p.Open(path, ORdonly)
		if e != OK {
			return nil, fmt.Errorf("reopen %s: %v", path, e)
		}
		buf := make([]byte, 64)
		n, e := p.Read(fd, buf)
		if e != OK {
			return nil, fmt.Errorf("read %s: %v", path, e)
		}
		p.Close(fd)
		got[s.name] = string(buf[:n])
	}
	return got, nil
}
