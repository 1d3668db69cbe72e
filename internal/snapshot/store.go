package snapshot

import (
	"sort"
	"sync"
)

// Store caches snapshots content-addressed by kernel identity and
// monitor, the way core.KernelCache shares kernel images: a fleet running
// many VMs of the same specialized kernel needs exactly one snapshot, and
// every scale-out restore after the first capture is a cache hit — the
// MultiK observation applied to warm state instead of build artifacts.
//
// Cached artifacts are host-resident memory files, so the store is also a
// reclaim target: under pressure, EvictCold drops the least-recently-used
// artifacts (a future restore of that kernel pays a fresh capture).
type Store struct {
	mu           sync.Mutex
	snaps        map[string]*storeEntry
	tick         int // monotonic use counter driving LRU order
	captures     int
	hits         int
	misses       int
	evictions    int
	evictedBytes int64
}

type storeEntry struct {
	snap    *Snapshot
	lastUse int
}

// NewStore returns an empty snapshot store.
func NewStore() *Store {
	return &Store{snaps: make(map[string]*storeEntry)}
}

func storeKey(kernel, monitor string) string { return kernel + "@" + monitor }

// Key renders the store key for a kernel identity under a monitor — the
// handle EvictCold pinning uses.
func Key(kernel, monitor string) string { return storeKey(kernel, monitor) }

// Put caches a captured snapshot, replacing any previous capture of the
// same kernel under the same monitor.
func (st *Store) Put(s *Snapshot) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.captures++
	st.tick++
	st.snaps[storeKey(s.Kernel, s.Monitor)] = &storeEntry{snap: s, lastUse: st.tick}
}

// Get looks up the snapshot for a kernel identity under a monitor.
func (st *Store) Get(kernel, monitor string) (*Snapshot, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.snaps[storeKey(kernel, monitor)]
	if ok {
		st.hits++
		st.tick++
		e.lastUse = st.tick
		return e.snap, true
	}
	st.misses++
	return nil, false
}

// Resident reports the host bytes the cached artifacts occupy: each
// snapshot's memory file is its base RSS.
func (st *Store) Resident() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var total int64
	for _, e := range st.snaps {
		total += e.snap.BaseRSS
	}
	return total
}

// EvictCold drops least-recently-used artifacts until at least need
// bytes are freed or no evictable artifact remains, and reports the
// bytes actually freed. Keys listed in pinned (see Key) are skipped —
// the artifact actively backing a clone set must survive, since its
// pages are mapped into running guests. Ties in last use break on key
// order, so eviction is deterministic.
func (st *Store) EvictCold(need int64, pinned ...string) int64 {
	if need <= 0 {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	keep := make(map[string]bool, len(pinned))
	for _, k := range pinned {
		keep[k] = true
	}
	type cand struct {
		key string
		e   *storeEntry
	}
	var cands []cand
	for k, e := range st.snaps {
		if !keep[k] {
			cands = append(cands, cand{k, e})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].e.lastUse != cands[j].e.lastUse {
			return cands[i].e.lastUse < cands[j].e.lastUse
		}
		return cands[i].key < cands[j].key
	})
	var freed int64
	for _, c := range cands {
		if freed >= need {
			break
		}
		delete(st.snaps, c.key)
		st.evictions++
		st.evictedBytes += c.e.snap.BaseRSS
		freed += c.e.snap.BaseRSS
	}
	return freed
}

// Evictions reports how many artifacts pressure evicted, and their bytes.
func (st *Store) Evictions() (count int, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evictions, st.evictedBytes
}

// Stats reports captures stored and lookup hits/misses.
func (st *Store) Stats() (captures, hits, misses int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.captures, st.hits, st.misses
}
