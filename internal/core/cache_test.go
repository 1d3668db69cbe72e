package core

import (
	"testing"

	"lupine/internal/apps"
	"lupine/internal/ext2"
	"lupine/internal/kerneldb"
)

// MultiK-style sharing: the top-20 applications need far fewer distinct
// kernels than applications, because option sets repeat.
func TestKernelCacheSharesImages(t *testing.T) {
	db := kerneldb.MustLoad()
	cache := NewKernelCache(db)

	// Count the truly distinct option sets first.
	distinct := make(map[string]bool)
	for _, name := range apps.Names() {
		a, _ := apps.Lookup(name)
		key := ""
		for _, o := range a.Manifest().Options {
			key += o + ","
		}
		distinct[key] = true
	}

	kernels := make(map[interface{}]bool)
	for _, name := range apps.Names() {
		u, hit, err := cache.Build(specFor(t, name), BuildOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hit != kernels[u.Kernel] {
			t.Errorf("%s: hit = %v, but the image was seen before: %v", name, hit, kernels[u.Kernel])
		}
		kernels[u.Kernel] = true
	}
	st := cache.CacheStats()
	builds, hits := st.Builds, st.Hits
	if builds != len(distinct) {
		t.Errorf("built %d kernels, want %d distinct option sets", builds, len(distinct))
	}
	if builds+hits != 20 {
		t.Errorf("builds %d + hits %d != 20", builds, hits)
	}
	if hits == 0 {
		t.Error("no sharing happened; the 5 zero-option apps must share lupine-base")
	}
	if len(kernels) != builds {
		t.Errorf("%d unique image pointers vs %d builds", len(kernels), builds)
	}

	// A shared kernel still runs both its tenants.
	for _, name := range []string{"hello-world", "golang"} {
		a, _ := apps.Lookup(name)
		u, hit, err := cache.Build(specFor(t, name), BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Errorf("%s: rebuilding a cached kernel missed", name)
		}
		ok, console, err := u.RunAndCheck(BootOpts{}, a.SuccessText)
		if err != nil || !ok {
			t.Errorf("%s on shared kernel failed: %v %q", name, err, console)
		}
	}
}

func TestKernelCacheVariantsAreDistinct(t *testing.T) {
	db := kerneldb.MustLoad()
	cache := NewKernelCache(db)
	spec := specFor(t, "redis")
	var images []interface{}
	for _, opts := range []BuildOpts{{}, {KML: true}, {Tiny: true}} {
		u, hit, err := cache.Build(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Errorf("%+v: a distinct variant hit the cache", opts)
		}
		images = append(images, u.Kernel)
	}
	if images[0] == images[1] || images[0] == images[2] || images[1] == images[2] {
		t.Error("distinct variants shared a kernel image")
	}
	if st := cache.CacheStats(); st.Builds != 3 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 3 builds, 0 hits", st)
	}
}

// Two specs that differ only in rootfs entries resolve to the same
// kernel identity: the kernel image is shared, the root filesystems are
// not. This is the contract internal/bunny's artifact cache builds on.
func TestKernelCacheSharesAcrossRootfsVariants(t *testing.T) {
	db := kerneldb.MustLoad()
	cache := NewKernelCache(db)

	plain := specFor(t, "redis")
	custom := specFor(t, "redis")
	custom.Image.Extra = []*ext2.File{
		ext2.NewFile("redis.conf", 0o644, []byte("maxmemory 128mb\n")),
	}

	a, hitA, err := cache.Build(plain, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, hitB, err := cache.Build(custom, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Kernel != b.Kernel || hitA || !hitB {
		t.Errorf("rootfs-only variants did not share the cached kernel image (hits %v, %v)", hitA, hitB)
	}
	if imageDigest(t, a.RootFS) == imageDigest(t, b.RootFS) {
		t.Error("rootfs images should differ (one carries redis.conf)")
	}
	st := cache.CacheStats()
	if st.Builds != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 build, 1 hit, 1 miss", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}
