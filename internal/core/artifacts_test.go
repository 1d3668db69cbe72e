package core

import (
	"os"
	"path/filepath"
	"testing"

	"lupine/internal/ext2"
	"lupine/internal/kerneldb"
)

func TestWriteArtifacts(t *testing.T) {
	db := kerneldb.MustLoad()
	u, err := Build(db, specFor(t, "redis"), BuildOpts{KML: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := u.WriteArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("wrote %d files, want 4", len(paths))
	}

	// The .config on disk is the kernel configuration's rendering.
	raw, err := os.ReadFile(filepath.Join(dir, "kernel.config"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != u.Kernel.Config.String() {
		t.Error("kernel.config differs from the kernel's configuration")
	}

	// The rootfs image on disk is valid ext2 with the init script inside,
	// matching init.sh byte for byte.
	img, err := os.ReadFile(filepath.Join(dir, "rootfs.ext2"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ext2.FromBytes(img).Read(nil)
	if err != nil {
		t.Fatalf("rootfs.ext2 invalid: %v", err)
	}
	script, err := os.ReadFile(filepath.Join(dir, "init.sh"))
	if err != nil {
		t.Fatal(err)
	}
	if string(tree.Lookup("/init").Data) != string(script) {
		t.Error("init.sh does not match the script inside the image")
	}

	// The manifest on disk is the spec manifest's JSON form.
	mraw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	mjson, err := u.Spec.Manifest.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(mraw) != string(mjson) {
		t.Errorf("manifest.json =\n%s\nwant\n%s", mraw, mjson)
	}
}

func TestWriteArtifactsBadDir(t *testing.T) {
	db := kerneldb.MustLoad()
	u, err := Build(db, specFor(t, "hello-world"), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// A file where the directory should be.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := u.WriteArtifacts(f); err == nil {
		t.Error("writing into a file path succeeded")
	}
}
