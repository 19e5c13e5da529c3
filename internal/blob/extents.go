package blob

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the client's per-version extent cache: resolved
// [lo,hi) → []LeafEntry interval maps keyed by (blob, version).
// Versions are immutable, so a resolved interval never invalidates —
// the only event that can make an entry wrong is version retirement
// (the snapshot stops being resolvable at all). Each entry remembers
// the retirement epoch it was last validated under; a lookup whose
// current epoch differs revalidates the one entry it touches against
// the version manager's ground truth (VersionManager.IsLive, a
// zero-cost in-process check) — so retirements cost one liveness
// check per surviving entry and unrelated entries stay hot. Repeated
// reads over a deployed snapshot — the mirroring module's
// demand-fetch path, exactly the flash-crowd hot loop — skip the
// whole tree descent: no version-manager root lookup, no metadata
// RPCs, no per-node cache traffic.
//
// The cache is bounded by an LRU over versions so churn workloads
// (many short-lived snapshots) stay flat instead of accumulating every
// version ever read.

// defaultExtentVersions bounds how many (blob, version) extent maps a
// client keeps. A mirroring module reads from a handful of snapshots
// at a time, so the bound is generous. It is fixed for every client;
// in-package tests shrink it with extentCache.setCap.
const defaultExtentVersions = 128

type extentKey struct {
	id ID
	v  Version
}

// extentIv is one resolved interval: leaves[i] is the entry for chunk
// index lo+i, exactly as CollectLeaves returns it.
type extentIv struct {
	lo, hi int64
	leaves []LeafEntry
}

type extentEntry struct {
	key   extentKey
	epoch uint64     // retirement epoch the entry was last validated under
	ivs   []extentIv // sorted by lo, pairwise disjoint and non-adjacent

	// LRU chain (most recent at head).
	prev, next *extentEntry
}

// extentCache is the container: a map over (blob, version) plus an
// intrusive LRU list, guarded by one short mutex (critical sections
// are slicing and pointer swaps only — never held across fabric
// operations).
type extentCache struct {
	mu         sync.Mutex
	entries    map[extentKey]*extentEntry
	head, tail *extentEntry
	cap        int

	// Hits and Misses count lookups served from / missing the cache.
	hits, misses atomic.Int64
}

func newExtentCache() *extentCache {
	return &extentCache{
		entries: make(map[extentKey]*extentEntry),
		cap:     defaultExtentVersions,
	}
}

// setCap rebounds the cache, evicting down if needed. cap < 1 disables
// the cache entirely.
func (ec *extentCache) setCap(n int) {
	ec.mu.Lock()
	ec.cap = n
	for len(ec.entries) > ec.cap && ec.tail != nil {
		ec.evictTailLocked()
	}
	ec.mu.Unlock()
}

func (ec *extentCache) unlinkLocked(e *extentEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		ec.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		ec.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (ec *extentCache) pushFrontLocked(e *extentEntry) {
	e.prev, e.next = nil, ec.head
	if ec.head != nil {
		ec.head.prev = e
	}
	ec.head = e
	if ec.tail == nil {
		ec.tail = e
	}
}

func (ec *extentCache) evictTailLocked() {
	e := ec.tail
	ec.unlinkLocked(e)
	delete(ec.entries, e.key)
}

// lookup returns the cached leaves for [lo,hi) of (id, v), or nil.
// epoch is the version manager's current retirement epoch and live
// the manager's liveness check: when a retirement has happened since
// the entry was last validated, the entry is revalidated (and dropped
// if the version is gone) before being served. The returned slice is
// shared and must be treated as read-only (LeafEntry values are
// immutable anyway).
func (ec *extentCache) lookup(id ID, v Version, lo, hi int64, epoch uint64, live func(ID, Version) bool) []LeafEntry {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	e := ec.entries[extentKey{id, v}]
	if e == nil {
		ec.misses.Add(1)
		return nil
	}
	if e.epoch != epoch {
		if !live(id, v) {
			ec.unlinkLocked(e)
			delete(ec.entries, e.key)
			ec.misses.Add(1)
			return nil
		}
		e.epoch = epoch
	}
	// First interval that could contain lo: the last one with iv.lo <= lo.
	i := sort.Search(len(e.ivs), func(i int) bool { return e.ivs[i].lo > lo }) - 1
	if i < 0 || e.ivs[i].hi < hi {
		ec.misses.Add(1)
		return nil
	}
	ec.hits.Add(1)
	if e != ec.head {
		ec.unlinkLocked(e)
		ec.pushFrontLocked(e)
	}
	iv := e.ivs[i]
	return iv.leaves[lo-iv.lo : hi-iv.lo]
}

// insert records the resolved leaves for [lo,hi) of (id, v), merging
// with any cached intervals it overlaps or adjoins (the version is
// immutable, so overlapping resolutions are identical). The cache
// takes ownership of the leaves slice — callers pass the freshly
// resolved result and must not mutate it afterwards. epoch is the
// retirement epoch sampled BEFORE the resolution started: if a
// retirement raced the descent, the entry lands with a stale epoch
// and the next lookup revalidates it against the version manager
// before serving it.
func (ec *extentCache) insert(id ID, v Version, lo, hi int64, leaves []LeafEntry, epoch uint64) {
	if lo >= hi || ec.cap < 1 {
		return
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	key := extentKey{id, v}
	e := ec.entries[key]
	if e == nil {
		for len(ec.entries) >= ec.cap && ec.tail != nil {
			ec.evictTailLocked()
		}
		e = &extentEntry{key: key, epoch: epoch}
		ec.entries[key] = e
		ec.pushFrontLocked(e)
	} else if e != ec.head {
		ec.unlinkLocked(e)
		ec.pushFrontLocked(e)
	}
	if epoch < e.epoch {
		// Keep the newest validation stamp; leaves of overlapping
		// resolutions are identical either way (immutability).
		epoch = e.epoch
	}
	e.epoch = epoch

	// Window of existing intervals that overlap or adjoin [lo,hi).
	i := sort.Search(len(e.ivs), func(i int) bool { return e.ivs[i].hi >= lo })
	j := sort.Search(len(e.ivs), func(j int) bool { return e.ivs[j].lo > hi })
	if j-i == 1 && lo >= e.ivs[i].lo {
		// The common sequential-read shape: the new range is contained
		// in, or extends, a single interval to the right. Append only
		// the new tail — amortized linear over a whole image, where
		// rebuilding the merged run each time would be quadratic.
		iv := &e.ivs[i]
		if hi > iv.hi {
			iv.leaves = append(iv.leaves, leaves[iv.hi-lo:]...)
			iv.hi = hi
		}
		return
	}
	if i == j {
		// Disjoint from everything: splice the new interval in.
		nv := extentIv{lo: lo, hi: hi, leaves: leaves}
		e.ivs = append(e.ivs, extentIv{})
		copy(e.ivs[i+1:], e.ivs[i:])
		e.ivs[i] = nv
		return
	}
	mlo := min(lo, e.ivs[i].lo)
	mhi := max(hi, e.ivs[j-1].hi)
	merged := make([]LeafEntry, mhi-mlo)
	for _, iv := range e.ivs[i:j] {
		copy(merged[iv.lo-mlo:], iv.leaves)
	}
	copy(merged[lo-mlo:], leaves)
	e.ivs[i] = extentIv{lo: mlo, hi: mhi, leaves: merged}
	e.ivs = append(e.ivs[:i+1], e.ivs[j:]...)
}

// Stats reporting for tests and benchmarks.

// ExtentCacheStats reports the client's extent-cache effectiveness.
type ExtentCacheStats struct {
	Hits, Misses int64
	Versions     int // cached (blob, version) entries
}

// ExtentStats returns a snapshot of the extent cache counters.
func (c *Client) ExtentStats() ExtentCacheStats {
	c.extents.mu.Lock()
	n := len(c.extents.entries)
	c.extents.mu.Unlock()
	return ExtentCacheStats{
		Hits:     c.extents.hits.Load(),
		Misses:   c.extents.misses.Load(),
		Versions: n,
	}
}
