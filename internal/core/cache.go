package core

import (
	"strings"
	"sync"

	"lupine/internal/kbuild"
	"lupine/internal/kerneldb"
)

// KernelCache builds Lupine unikernels while sharing kernel images
// between applications whose specialized configurations coincide — the
// orchestration idea of MultiK (cited in §7): a host serving many
// unikernels needs far fewer distinct kernels than applications, because
// option sets repeat (every language runtime in the top-20 runs on plain
// lupine-base, for instance).
//
// The cache is a real build cache: lookups are counted as hits and
// misses, and every miss is an accounted kernel build. internal/bunny
// layers its digest-addressed artifact cache on top of this kernel-level
// sharing.
type KernelCache struct {
	db *kerneldb.DB

	mu     sync.Mutex
	images map[string]*kbuild.Image
	hits   int
	misses int
}

// CacheStats is the cache's full ledger: every Build is either a hit or
// a miss, and every miss is a kernel build.
type CacheStats struct {
	Builds int // kernel images compiled (== Misses)
	Hits   int // builds served from a cached image
	Misses int // builds that found no cached image
}

// HitRate is the fraction of lookups served from cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewKernelCache returns an empty cache over the option database.
func NewKernelCache(db *kerneldb.DB) *KernelCache {
	return &KernelCache{db: db, images: make(map[string]*kbuild.Image)}
}

// Build is core.Build with kernel-image sharing: two specs requesting the
// same option set and variant receive the same *kbuild.Image; the root
// filesystem remains per-application. hit reports whether the kernel
// image came from the cache rather than from this build.
func (c *KernelCache) Build(spec Spec, opts BuildOpts) (u *Unikernel, hit bool, err error) {
	u, err = Build(c.db, spec, opts)
	if err != nil {
		return nil, false, err
	}
	key := cacheKey(u.Kernel)
	c.mu.Lock()
	defer c.mu.Unlock()
	if img, ok := c.images[key]; ok {
		c.hits++
		u.Kernel = img
		return u, true, nil
	}
	c.misses++
	c.images[key] = u.Kernel
	return u, false, nil
}

// cacheKey identifies a kernel by its full resolved configuration and
// optimization level — the things that determine the binary.
func cacheKey(img *kbuild.Image) string {
	var sb strings.Builder
	sb.WriteString(img.Opt.String())
	sb.WriteByte('|')
	for _, n := range img.Config.Names() {
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(img.Config.Get(n).String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// CacheStats reports the full hit/miss ledger.
func (c *KernelCache) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Builds: c.misses, Hits: c.hits, Misses: c.misses}
}
