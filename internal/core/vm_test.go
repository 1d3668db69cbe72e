package core

import (
	"strings"
	"testing"

	"lupine/internal/ext2"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
	"lupine/internal/manifest"
	"lupine/internal/rootfs"
)

// buildWithInit builds a hello unikernel with a custom init script
// injected into the rootfs image.
func buildWithInit(t *testing.T, script string) *Unikernel {
	t.Helper()
	db := kerneldb.MustLoad()
	u, err := Build(db, specFor(t, "hello-world"), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := u.RootFS.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	init := tree.Lookup("/init")
	init.Data = []byte(script)
	if u.RootFS, err = ext2.WriteImage(tree); err != nil {
		t.Fatal(err)
	}
	u.InitScript = script
	return u
}

func runVM(t *testing.T, u *Unikernel) *VM {
	t.Helper()
	vm, err := u.Boot(BootOpts{ProbeOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestInitNoExecLine(t *testing.T) {
	u := buildWithInit(t, "#!/bin/sh\nexport A=b\n")
	vm := runVM(t, u)
	if !vm.Succeeded("init: no exec line") {
		t.Errorf("console = %q", vm.Console())
	}
	if vm.AppProc.ExitCode() != 1 {
		t.Errorf("init exit = %d, want 1", vm.AppProc.ExitCode())
	}
}

func TestInitExecMissingBinary(t *testing.T) {
	u := buildWithInit(t, "#!/bin/sh\nexec /bin/not-there\n")
	vm := runVM(t, u)
	if !vm.Succeeded("init: exec /bin/not-there: ENOENT") {
		t.Errorf("console = %q", vm.Console())
	}
}

func TestInitUnknownCommandIsNonFatal(t *testing.T) {
	u := buildWithInit(t, "#!/bin/sh\nfrobnicate now\nexec /bin/hello-world\n")
	vm := runVM(t, u)
	if !vm.Succeeded("init: unknown command") {
		t.Errorf("console = %q", vm.Console())
	}
	// The app still ran.
	if !vm.Succeeded("Hello from Docker!") {
		t.Errorf("app did not run: %q", vm.Console())
	}
}

func TestInitEnvReachesApp(t *testing.T) {
	db := kerneldb.MustLoad()
	spec := specFor(t, "hello-world")
	spec.Image = &rootfs.Image{
		Name:       "hello-world",
		Entrypoint: []string{"/bin/hello-world"},
		Env:        map[string]string{"GREETING": "bonjour", "MODE": "prod"},
		BinaryKB:   12,
	}
	spec.Manifest = manifest.New("hello-world", spec.Image.Entrypoint)
	spec.Program = func(p *guest.Proc, probeOnly bool) int {
		p.Printf("env GREETING=%s MODE=%s\n", p.Env("GREETING"), p.Env("MODE"))
		return 0
	}
	u, err := Build(db, spec, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	vm := runVM(t, u)
	if !vm.Succeeded("env GREETING=bonjour MODE=prod") {
		t.Errorf("console = %q", vm.Console())
	}
}

func TestBootRejectsCorruptRootFS(t *testing.T) {
	db := kerneldb.MustLoad()
	u, err := Build(db, specFor(t, "hello-world"), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	u.RootFS = ext2.FromBytes(imageBytes(t, u.RootFS)[:4096]) // truncated image
	if _, err := u.Boot(BootOpts{}); err == nil || !strings.Contains(err.Error(), "rootfs") {
		t.Errorf("boot with corrupt rootfs = %v, want mount error", err)
	}
}

func TestDmesgOnConsole(t *testing.T) {
	db := kerneldb.MustLoad()
	u, err := Build(db, specFor(t, "hello-world"), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	vm := runVM(t, u)
	for _, want := range []string{
		"Linux version 4.0.0-lupine",
		"subsystem init done",
		"VFS: Mounted root (ext2 filesystem)",
		"Run /init as init process",
	} {
		if !vm.Succeeded(want) {
			t.Errorf("dmesg missing %q", want)
		}
	}
}
