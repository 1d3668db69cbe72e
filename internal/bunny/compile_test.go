package bunny

import (
	"strings"
	"testing"

	"lupine/internal/faults"
	"lupine/internal/kerneldb"
	"lupine/internal/simclock"
)

func testCache(t *testing.T, capacity int) *Cache {
	t.Helper()
	return NewCache(kerneldb.MustLoad(), capacity)
}

func TestCompileHitAndMiss(t *testing.T) {
	c := testCache(t, 0)
	s := New("redis", "MULTIPROCESS")

	a, err := c.Compile(s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit {
		t.Error("first compile reported a cache hit")
	}
	if a.Cost < kernelBuildBase {
		t.Errorf("first compile cost %v is below the kernel build base", a.Cost)
	}
	b, err := c.Compile(New("redis", "MULTIPROCESS"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Error("identical spec missed the artifact cache")
	}
	if b.Uni != a.Uni {
		t.Error("cache hit returned a different unikernel")
	}
	if b.Cost >= a.Cost {
		t.Errorf("hit cost %v not cheaper than build cost %v", b.Cost, a.Cost)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss", st)
	}
}

// Two registry apps whose manifests resolve to one kernel, hello-world
// and golang, are distinct artifacts with distinct root filesystems but
// share the kernel image — the kernel-level sharing the artifact cache
// layers on.
func TestCompileSharesKernelAcrossRootfsVariants(t *testing.T) {
	c := testCache(t, 0)
	a, err := c.Compile(New("hello-world"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Compile(New("golang"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Error("distinct specs share an image digest")
	}
	if b.CacheHit {
		t.Error("distinct spec hit the artifact cache")
	}
	if a.Uni.RootFS == b.Uni.RootFS {
		t.Error("distinct apps share a root filesystem image")
	}
	if !b.KernelShared {
		t.Error("an app resolving to a built kernel did not share the kernel image")
	}
	if a.KernelID != b.KernelID {
		t.Error("apps resolving to one kernel report different kernel identities")
	}
	if a.Uni.Kernel != b.Uni.Kernel {
		t.Error("kernel image pointer not shared")
	}
	if b.Cost >= a.Cost {
		t.Errorf("kernel-shared build cost %v not cheaper than full build %v", b.Cost, a.Cost)
	}
	kst := c.Kernels().CacheStats()
	if kst.Hits != 1 || kst.Builds != 1 {
		t.Errorf("kernel cache stats = %+v, want 1 build + 1 hit", kst)
	}
}

func TestCompileFaultFallbacks(t *testing.T) {
	inj := faults.MustNew(faults.Plan{
		Seed: 1,
		Rules: []faults.Rule{
			// Spec-invalid is consulted every compile (hits 1..4 below);
			// cache-corrupt only on resident fetches (first consult is
			// compile 2).
			{Site: SiteCacheCorrupt, NthHit: 1},
			{Site: SiteSpecInvalid, NthHit: 3},
		},
	})
	c := testCache(t, 0)
	s := New("nginx")

	if _, err := c.Compile(s, inj, 0); err != nil { // build (no corrupt consult on miss)
		t.Fatal(err)
	}
	// Hit path: the checksum consult fires, the entry is evicted and the
	// request pays an accounted rebuild.
	a, err := c.Compile(New("nginx"), inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit || a.Rebuilt != "cache-corrupt" {
		t.Errorf("corrupt fetch: hit=%v rebuilt=%q", a.CacheHit, a.Rebuilt)
	}
	// The spec-invalid consult (3rd hit of that site across compiles)
	// forces a rebuild even though the rebuilt artifact is resident again.
	b, err := c.Compile(New("nginx"), inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheHit || b.Rebuilt != "spec-invalid" {
		t.Errorf("invalid spec: hit=%v rebuilt=%q", b.CacheHit, b.Rebuilt)
	}
	st := c.Stats()
	if st.CorruptRebuilds != 1 || st.InvalidRetries != 1 {
		t.Errorf("stats = %+v, want 1 corrupt rebuild + 1 invalid retry", st)
	}
	// Clean run afterwards hits again.
	d, err := c.Compile(New("nginx"), inj, simclock.Time(simclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !d.CacheHit {
		t.Error("post-storm compile missed")
	}
}

func TestCompileCapacityEviction(t *testing.T) {
	c := testCache(t, 2)
	for _, app := range []string{"redis", "nginx", "memcached"} {
		if _, err := c.Compile(New(app), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("resident %d artifacts, want capacity 2", c.Len())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// The evicted (LRU) artifact was redis; recompiling is a miss.
	a, err := c.Compile(New("redis"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit {
		t.Error("evicted artifact served a hit")
	}
}

func TestCompileUnknownApp(t *testing.T) {
	c := testCache(t, 0)
	if _, err := c.Compile(New("doom"), nil, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown application") {
		t.Errorf("err = %v, want unknown application", err)
	}
}

// The profile flags select the variant.
func TestCompileOverlayAndProfiles(t *testing.T) {
	c := testCache(t, 0)
	a, err := c.Compile(New("redis"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tiny := New("redis")
	tiny.Profile = ProfileTiny
	b, err := c.Compile(tiny, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Uni.Kernel == a.Uni.Kernel {
		t.Error("tiny profile shared the nokml kernel")
	}
	if b.Uni.Kernel.Size >= a.Uni.Kernel.Size {
		t.Error("tiny kernel is not smaller")
	}
	kml := New("redis")
	kml.Profile = ProfileKML
	k, err := c.Compile(kml, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Uni.Kernel.KML() {
		t.Error("kml profile did not enable KERNEL_MODE_LINUX")
	}
}
