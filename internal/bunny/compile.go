package bunny

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"lupine/internal/apps"
	"lupine/internal/attack"
	"lupine/internal/core"
	"lupine/internal/faults"
	"lupine/internal/guest"
	"lupine/internal/kerneldb"
	"lupine/internal/simclock"
	"lupine/internal/snapshot"
)

// Build-pipeline fault-injection sites.
const (
	// SiteSpecInvalid fires when the pipeline's spec re-validation
	// spuriously rejects a normalized spec (flaky toolchain metadata);
	// the compiler re-normalizes and falls back to a full, accounted
	// rebuild instead of trusting any cached artifact.
	SiteSpecInvalid = "build/spec-invalid"
	// SiteCacheCorrupt fails a cached artifact's checksum at fetch time;
	// the entry is evicted and the request pays a full, accounted
	// rebuild.
	SiteCacheCorrupt = "build/cache-corrupt"
)

func init() {
	faults.RegisterSite(SiteSpecInvalid, "build",
		"spec re-validation spuriously rejects a normalized spec; the request falls back to a full rebuild")
	faults.RegisterSite(SiteCacheCorrupt, "build",
		"a cached image artifact fails its checksum at fetch; the entry is evicted and rebuilt")
}

// The build cost model, in virtual time. A kernel build dominates (the
// `make bzImage` of Figure 2, priced per megabyte of produced image); a
// rootfs serialization is cheap; an artifact cache hit costs only the
// content-addressed fetch plus its checksum.
const (
	kernelBuildBase  = 40 * simclock.Millisecond // configure + headers + irreducible core
	kernelBuildPerMB = 15 * simclock.Millisecond // compile + link, per MB of image
	rootfsBuildPerMB = 3 * simclock.Millisecond  // ext2 serialization, per MB of image
	artifactFetch    = 150 * simclock.Microsecond
	checksumCost     = 50 * simclock.Microsecond
	revalidateCost   = 1 * simclock.Millisecond // re-normalizing a rejected spec
)

// Artifact is one compiled image: the unikernel plus the build-cache
// verdict for the request that produced it.
type Artifact struct {
	Spec     *Spec
	Digest   string // content address: (spec digest, kerneldb version)
	KernelID string // kernel identity (snapshot.KernelKey) — the fleet's handle

	Uni *core.Unikernel

	CacheHit     bool              // served from the digest-addressed artifact cache
	KernelShared bool              // artifact built, but the kernel image came from the kernel cache
	Cost         simclock.Duration // priced virtual build work for this request
	Rebuilt      string            // "" or the fault site that forced a rebuild
}

// CacheStats is the artifact cache's ledger.
type CacheStats struct {
	Hits            int
	Misses          int // artifact builds (fault-forced rebuilds included)
	Evictions       int // capacity evictions (corrupt evictions count separately)
	CorruptRebuilds int // cache-corrupt fallbacks: evict + rebuild
	InvalidRetries  int // spec-invalid fallbacks: re-normalize + rebuild
}

// HitRate is the fraction of compile requests served from cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is the digest-addressed image cache over the kernel-sharing
// core.KernelCache: the full build cache of the declarative pipeline.
// Two layers, two sharing granularities — identical specs share the
// whole image artifact; different specs resolving to the same kernel
// identity still share the kernel build and pay only for their rootfs.
type Cache struct {
	db      *kerneldb.DB
	kernels *core.KernelCache

	mu       sync.Mutex
	arts     map[string]*artEntry
	tick     int
	capacity int // max resident artifacts; 0 = unbounded

	st CacheStats
}

type artEntry struct {
	uni      *core.Unikernel
	kernelID string
	lastUse  int
}

// NewCache returns an empty build cache over the option database.
// capacity bounds resident artifacts (0 = unbounded); overflow evicts
// LRU entries deterministically.
func NewCache(db *kerneldb.DB, capacity int) *Cache {
	return &Cache{
		db:       db,
		kernels:  core.NewKernelCache(db),
		arts:     make(map[string]*artEntry),
		capacity: capacity,
	}
}

// Kernels exposes the kernel-sharing layer (for its own hit/miss/evict
// ledger).
func (c *Cache) Kernels() *core.KernelCache { return c.kernels }

// Stats reports the artifact-cache ledger.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// Len reports resident artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.arts)
}

// ImageDigest is the content address of the image a spec compiles to:
// the spec digest crossed with the kernel tree version, so a kernel tree
// change invalidates every cached artifact.
func (c *Cache) ImageDigest(s *Spec) string {
	h := sha256.Sum256([]byte(s.Digest() + "|" + c.db.Version()))
	return hex.EncodeToString(h[:])[:16]
}

// Compile builds the spec's image through kconfig→kbuild→rootfs, served
// from the artifact cache when the digest is resident. Fault sites can
// reject the spec's re-validation or corrupt a cached artifact; both
// fall back to full rebuilds with the wasted work accounted in Cost.
// inj may be nil; now prices fault windows.
func (c *Cache) Compile(s *Spec, inj *faults.Injector, now simclock.Time) (*Artifact, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	digest := c.ImageDigest(s)
	art := &Artifact{Spec: s, Digest: digest}

	// The pipeline re-validates the normalized spec before trusting any
	// cached artifact; a seeded rejection forces the full rebuild path.
	forceRebuild := false
	if d := inj.Hit(SiteSpecInvalid, now); d.Fire {
		forceRebuild = true
		art.Rebuilt = "spec-invalid"
		art.Cost += revalidateCost
		c.mu.Lock()
		c.st.InvalidRetries++
		c.mu.Unlock()
	}

	c.mu.Lock()
	e, resident := c.arts[digest]
	if resident && !forceRebuild {
		// Fetch is checksummed; a corrupt artifact is evicted and rebuilt.
		if d := inj.Hit(SiteCacheCorrupt, now); d.Fire {
			delete(c.arts, digest)
			c.st.CorruptRebuilds++
			art.Rebuilt = "cache-corrupt"
			art.Cost += checksumCost
		} else {
			c.st.Hits++
			c.tick++
			e.lastUse = c.tick
			c.mu.Unlock()
			art.Uni = e.uni
			art.KernelID = e.kernelID
			art.CacheHit = true
			art.Cost += artifactFetch + checksumCost
			return art, nil
		}
	}
	c.st.Misses++
	c.mu.Unlock()

	coreSpec, opts, err := c.lower(s)
	if err != nil {
		return nil, err
	}
	u, shared, err := c.kernels.Build(coreSpec, opts)
	if err != nil {
		return nil, err
	}
	art.Uni = u
	art.KernelID = snapshot.KernelKey(u.Kernel)
	art.KernelShared = shared
	art.Cost += rootfsCost(u.RootFS.Size())
	if art.KernelShared {
		art.Cost += artifactFetch // the shared kernel image is fetched, not compiled
	} else {
		art.Cost += kernelBuildBase +
			simclock.Duration(float64(kernelBuildPerMB)*u.Kernel.MegabytesMB())
	}

	c.mu.Lock()
	c.tick++
	c.arts[digest] = &artEntry{uni: u, kernelID: art.KernelID, lastUse: c.tick}
	c.evictOverflow()
	c.mu.Unlock()
	return art, nil
}

// rootfsCost prices serializing an ext2 image of n bytes.
func rootfsCost(n int64) simclock.Duration {
	return simclock.Duration(float64(rootfsBuildPerMB) * float64(n) / (1 << 20))
}

// evictOverflow drops LRU artifacts beyond capacity. Caller holds mu.
func (c *Cache) evictOverflow() {
	if c.capacity <= 0 || len(c.arts) <= c.capacity {
		return
	}
	type cand struct {
		key string
		e   *artEntry
	}
	cands := make([]cand, 0, len(c.arts))
	for k, e := range c.arts {
		cands = append(cands, cand{k, e})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].e.lastUse != cands[j].e.lastUse {
			return cands[i].e.lastUse < cands[j].e.lastUse
		}
		return cands[i].key < cands[j].key
	})
	for _, cd := range cands {
		if len(c.arts) <= c.capacity {
			break
		}
		delete(c.arts, cd.key)
		c.st.Evictions++
	}
}

// lower resolves the spec against the application registry into the
// imperative core build inputs: manifest plus spec options, the app's
// container image, and the variant flags of the profile.
func (c *Cache) lower(s *Spec) (core.Spec, core.BuildOpts, error) {
	a, err := apps.Lookup(s.App)
	if err != nil {
		return core.Spec{}, core.BuildOpts{}, fmt.Errorf("bunny: %w", err)
	}
	m := a.Manifest()
	m.AddOptions(s.Options...)
	hardening, err := attack.HardeningOptions(s.Hardening)
	if err != nil {
		return core.Spec{}, core.BuildOpts{}, fmt.Errorf("bunny: %s: %w", s.App, err)
	}
	opts := core.BuildOpts{
		Name:         "bunny-" + s.App,
		KML:          s.Profile == ProfileKML,
		Tiny:         s.Profile == ProfileTiny,
		ExtraOptions: hardening,
	}
	return core.Spec{
		Manifest: m,
		Image:    a.ContainerImage(),
		Program:  func(p *guest.Proc, probeOnly bool) int { return a.Main(p, probeOnly) },
	}, opts, nil
}
