// Package rootfs builds Lupine application root filesystems the way
// Figure 2 describes: starting from a container image (binary, libraries,
// metadata), it generates an application-specific init script from the
// entrypoint and environment metadata, swaps in the KML-patched musl libc
// when requested, and serializes everything into a real ext2 image that
// the guest kernel mounts at boot.
package rootfs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"lupine/internal/ext2"
	"lupine/internal/kml"
	"lupine/internal/manifest"
)

// Image is a minimal container image: an Alpine-style root filesystem
// plus OCI metadata.
type Image struct {
	Name       string
	Entrypoint []string
	Env        map[string]string
	BinaryKB   int // size of the application binary
}

// muslSyscallSites is how many syscall instructions the simulated musl
// libc contains; the KML patcher must rewrite every one of them.
const muslSyscallSites = 512

// muslSizeKB approximates musl libc's on-disk size.
const muslSizeKB = 600

// synthCache memoizes generated binaries: they are deterministic in
// (name, kb, sites) and rebuilt for every unikernel, which matters when
// the configuration search boots an application a dozen times. Every
// image built from them points at the cached bytes, so the cache holds
// the process's only copy of each.
var synthCache sync.Map

// SynthBinary deterministically generates ELF-like bytes of roughly kb
// kilobytes containing `sites` embedded syscall instructions, so the KML
// patch pipeline transforms real opcode bytes. The returned slice is
// shared: callers must not modify it.
func SynthBinary(name string, kb, sites int) []byte {
	key := fmt.Sprintf("%s/%d/%d", name, kb, sites)
	if v, ok := synthCache.Load(key); ok {
		return v.([]byte)
	}
	out := synthBinary(name, kb, sites)
	synthCache.Store(key, out)
	return out
}

func synthBinary(name string, kb, sites int) []byte {
	if kb < 1 {
		kb = 1
	}
	out := make([]byte, kb*1024)
	i := copy(out, "\x7fELF")
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := h.Sum64()
	gap := 0
	if sites > 0 {
		gap = (len(out) - i) / (sites + 1)
	}
	nextSite := gap
	for i < len(out) {
		end := len(out)
		if sites > 0 {
			if i >= nextSite {
				i += copy(out[i:], "\x0f\x05") // syscall; cut short on the last byte
				sites--
				nextSite += gap
				continue
			}
			end = min(end, nextSite)
		}
		// The bytes up to the next site.
		seg := out[i:end]
		for j := range seg {
			seed = seed*6364136223846793005 + 1442695040888963407
			b := byte(seed >> 33)
			// Avoid accidentally emitting the syscall opcode pair.
			if b == 0x0f {
				b = 0x90
			}
			seg[j] = b
		}
		i = end
	}
	return out
}

var (
	muslOnce    sync.Once
	muslPlain   []byte
	muslPatched []byte
)

// Musl returns the simulated musl libc blob, optionally KML-patched. The
// returned slice is shared: callers must not modify it.
func Musl(patched bool) []byte {
	muslOnce.Do(func() {
		muslPlain = SynthBinary("musl-libc", muslSizeKB, muslSyscallSites)
		out, sites := kml.PatchLibc(muslPlain)
		if sites != muslSyscallSites {
			panic(fmt.Sprintf("rootfs: patched %d call sites, want %d", sites, muslSyscallSites))
		}
		muslPatched = out
	})
	if patched {
		return muslPatched
	}
	return muslPlain
}

// InitScript generates the application-specific startup script of §3:
// environment setup, configuration-dependent mounts, network bring-up,
// and the final exec of the entrypoint.
func InitScript(img *Image, m *manifest.Manifest) string {
	var sb strings.Builder
	sb.WriteString("#!/bin/sh\n")
	sb.WriteString("# generated by lupine-build from container metadata\n")
	keys := make([]string, 0, len(img.Env))
	for k := range img.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "export %s=%s\n", k, img.Env[k])
	}
	if m.HasOption("PROC_FS") {
		sb.WriteString("mount -t proc proc /proc\n")
	}
	if m.HasOption("TMPFS") {
		sb.WriteString("mount -t tmpfs tmpfs /tmp\n")
	}
	if m.NetworkPort > 0 {
		sb.WriteString("ip link set eth0 up\n")
	}
	sb.WriteString("ulimit -n 4096\n")
	fmt.Fprintf(&sb, "exec %s\n", strings.Join(img.Entrypoint, " "))
	return sb.String()
}

// BuildTree assembles the application root filesystem tree. When
// kmlPatched is true the KML-patched musl is installed (the application
// binary itself stays unmodified for dynamically linked apps — §3.2).
func BuildTree(img *Image, m *manifest.Manifest, kmlPatched bool) (*ext2.File, error) {
	if img == nil || len(img.Entrypoint) == 0 {
		return nil, fmt.Errorf("rootfs: image with empty entrypoint")
	}
	binPath := img.Entrypoint[0]
	binName := binPath[strings.LastIndex(binPath, "/")+1:]
	if binName == "" {
		return nil, fmt.Errorf("rootfs: bad entrypoint %q", binPath)
	}
	binKB := img.BinaryKB
	if binKB == 0 {
		binKB = 256
	}
	// Cap the synthesized stand-in binary: multi-hundred-MB runtimes
	// (openjdk, elasticsearch) are loaded lazily anyway (§4.4), so a
	// 16 MiB representative keeps image builds fast without changing any
	// measured behaviour.
	if binKB > 16*1024 {
		binKB = 16 * 1024
	}
	root := ext2.NewDir("",
		ext2.NewDir("bin",
			ext2.NewFile(binName, 0o755, SynthBinary(img.Name, binKB, 64)),
			ext2.NewSymlink("sh", "/bin/busybox"),
			ext2.NewFile("busybox", 0o755, SynthBinary("busybox", 160, 96)),
		),
		ext2.NewDir("lib",
			ext2.NewFile("libc.so", 0o755, Musl(kmlPatched)),
			ext2.NewFile("libm.so", 0o755, SynthBinary("libm", 90, 0)),
		),
		ext2.NewDir("etc",
			ext2.NewFile("hostname", 0o644, []byte(img.Name+"\n")),
		),
		ext2.NewDir("proc"),
		ext2.NewDir("tmp"),
		ext2.NewDir("data"),
		ext2.NewFile("init", 0o755, []byte(InitScript(img, m))),
	)
	manifestJSON, err := m.Marshal()
	if err != nil {
		return nil, err
	}
	root.Children = append(root.Children, ext2.NewFile("manifest.json", 0o644, manifestJSON))
	return root, nil
}

// BuildExt2 assembles the tree and lays it out as an ext2 image. The
// image points at the tree's file bytes, most of them the shared
// synthesized binaries, so nothing may write them.
func BuildExt2(img *Image, m *manifest.Manifest, kmlPatched bool) (*ext2.Image, error) {
	tree, err := BuildTree(img, m, kmlPatched)
	if err != nil {
		return nil, err
	}
	return ext2.WriteImage(tree)
}
