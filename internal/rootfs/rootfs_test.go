package rootfs

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"lupine/internal/kml"
	"lupine/internal/manifest"
)

func redisImage() *Image {
	return &Image{
		Name:       "redis",
		Entrypoint: []string{"/bin/redis-server", "--protected-mode", "no"},
		Env:        map[string]string{"REDIS_VERSION": "5.0"},
		BinaryKB:   900,
	}
}

func redisManifest() *manifest.Manifest {
	m := manifest.New("redis", []string{"/bin/redis-server", "--protected-mode", "no"},
		"EPOLL", "FUTEX", "PROC_FS", "TMPFS", "UNIX")
	m.NetworkPort = 6379
	return m
}

func TestInitScript(t *testing.T) {
	script := InitScript(redisImage(), redisManifest())
	for _, want := range []string{
		"#!/bin/sh",
		"export REDIS_VERSION=5.0",
		"mount -t proc proc /proc",
		"mount -t tmpfs tmpfs /tmp",
		"ip link set eth0 up",
		"exec /bin/redis-server --protected-mode no",
	} {
		if !strings.Contains(script, want) {
			t.Errorf("init script missing %q:\n%s", want, script)
		}
	}
	// Without PROC_FS/TMPFS/network, those lines disappear.
	m := manifest.New("hello", []string{"/bin/hello"})
	script = InitScript(&Image{Name: "hello", Entrypoint: []string{"/bin/hello"}}, m)
	for _, absent := range []string{"mount -t proc", "mount -t tmpfs", "ip link"} {
		if strings.Contains(script, absent) {
			t.Errorf("hello init script unexpectedly contains %q", absent)
		}
	}
}

func TestBuildTreeAndExt2RoundTrip(t *testing.T) {
	img := redisImage()
	m := redisManifest()
	data, err := BuildExt2(img, m, false)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := data.Read(nil)
	if err != nil {
		t.Fatalf("rootfs image is not valid ext2: %v", err)
	}
	for _, path := range []string{
		"/bin/redis-server", "/bin/busybox", "/lib/libc.so", "/lib/libm.so",
		"/etc/hostname", "/init", "/manifest.json", "/tmp", "/data",
	} {
		if tree.Lookup(path) == nil {
			t.Errorf("rootfs missing %s", path)
		}
	}
	// The embedded manifest is the manifest's JSON form.
	mjson, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Lookup("/manifest.json").Data; string(got) != string(mjson) {
		t.Errorf("embedded manifest =\n%s\nwant\n%s", got, mjson)
	}
	// The init script is executable and correct.
	init := tree.Lookup("/init")
	if init.Mode&0o111 == 0 {
		t.Error("/init not executable")
	}
	if !strings.Contains(string(init.Data), "exec /bin/redis-server") {
		t.Error("/init lacks exec line")
	}
}

func TestKMLPatchedLibcInstalled(t *testing.T) {
	img := redisImage()
	m := redisManifest()
	plain, err := BuildTree(img, m, false)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := BuildTree(img, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if kml.IsPatched(plain.Lookup("/lib/libc.so").Data) {
		t.Error("plain rootfs has patched libc")
	}
	if !kml.IsPatched(patched.Lookup("/lib/libc.so").Data) {
		t.Error("KML rootfs lacks patched libc")
	}
	// §3.2: the application binary itself is NOT recompiled or patched.
	a := plain.Lookup("/bin/redis-server").Data
	b := patched.Lookup("/bin/redis-server").Data
	if string(a) != string(b) {
		t.Error("application binary modified by KML patching")
	}
}

func TestSynthBinary(t *testing.T) {
	b := SynthBinary("x", 64, 10)
	if len(b) != 64*1024 {
		t.Fatalf("size = %d", len(b))
	}
	if string(b[:4]) != "\x7fELF" {
		t.Errorf("magic = %x", b[:4])
	}
	if got := kml.CallSites(b); got != 10 {
		t.Errorf("call sites = %d, want 10", got)
	}
	// Deterministic.
	if string(SynthBinary("x", 64, 10)) != string(b) {
		t.Error("SynthBinary not deterministic")
	}
	if string(SynthBinary("y", 64, 10)) == string(b) {
		t.Error("SynthBinary ignores name")
	}
	// More sites than bytes to space them: a gap of 0 packs them from
	// the header on until the kilobyte is full.
	packed := SynthBinary("x", 1, 2000)
	if got := kml.CallSites(packed); got != 510 {
		t.Errorf("packed call sites = %d, want 510", got)
	}
	sum := sha256.Sum256(packed)
	if got, want := hex.EncodeToString(sum[:]), "01fab6118cd30f7525232cd98af2550ae150a87c380618e86526bac09a4bd3a6"; got != want {
		t.Errorf("packed binary sha256 %s, pinned %s", got, want)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildTree(nil, nil, false); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := BuildTree(&Image{Name: "x"}, manifest.New("x", []string{"/bin/x"}), false); err == nil {
		t.Error("empty entrypoint accepted")
	}
}

func TestMuslPatchCoverage(t *testing.T) {
	if kml.CallSites(Musl(false)) != muslSyscallSites {
		t.Error("unpatched musl call-site count wrong")
	}
	if kml.CallSites(Musl(true)) != 0 {
		t.Error("patched musl still contains syscall instructions")
	}
}
