package blob

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// ProviderSet is the data plane: chunk payloads stored on the local
// disks of provider nodes, placed round-robin by key with an optional
// replication degree (paper §3.1.3). Providers can be killed to test
// fault tolerance; reads fail over to surviving replicas.
//
// With deduplication enabled (§7 of the paper lists it as future
// work), payloads carrying a content fingerprint are stored once:
// a write whose content is already present stores a reference instead
// of a second copy, skipping the disk write (the transfer is still
// paid — the client cannot know the content is duplicate). Real
// payloads are fingerprinted by hashing; synthetic payloads use their
// Tag as the fingerprint.
type ProviderSet struct {
	// placement owns the ring walk, liveness flags, degraded-placement
	// bookkeeping (voids and repairs, guarded by mu), the failover pick
	// and the repair planner, shared with the metadata tier.
	placement[ChunkKey]
	dedup   bool
	nextKey atomic.Uint64

	// mu guards the chunk/dedup/refcount maps and the placement's
	// voids and repairs. It is a RWMutex so the hot fetch path
	// (Get/Peek: a few map lookups) runs under a shared lock and the
	// 16-way parallel fetchers of every client in a deployment stop
	// serializing here; writers (PutBatch, Release, ReReplicate) take
	// the exclusive side. Liveness flags and per-provider counters are
	// atomics preallocated per node, off the lock entirely.
	mu       sync.RWMutex
	chunks   map[ChunkKey]Payload
	byPrint  map[uint64]ChunkKey // content fingerprint → canonical key
	printOf  map[ChunkKey]uint64 // canonical key → its fingerprint
	refs     map[ChunkKey]int64  // content references: canonical self + aliases
	aliases  map[ChunkKey]ChunkKey
	retained map[ChunkKey]bool // keys written and not yet Released
	pending  map[ChunkKey]bool // keys of in-flight, unpublished commits

	readsBy  []atomic.Int64 // chunk reads served, by provider slot
	writesBy []atomic.Int64 // write RPCs received, by provider slot

	// Reads and Writes count chunk-level operations; DedupHits counts
	// writes absorbed by an existing identical chunk. Reclaimed and
	// ReclaimedBytes count chunk payloads physically freed by Release.
	Reads, Writes, DedupHits  atomic.Int64
	Reclaimed, ReclaimedBytes atomic.Int64
	// PutRPCs counts the provider-bound RPCs the write path issued
	// after batching: one per distinct provider per PutBatch round.
	// Writes/PutRPCs is therefore the write-side batching factor, the
	// twin of the metadata service's Gets/NodesServed.
	PutRPCs atomic.Int64
	// FailedReads counts reads that found no live copy at all
	// (ErrNoReplica). The embedded placement counts Failovers (reads a
	// dead primary pushed onto a surviving replica or a repair copy)
	// and Rereplicated (chunk copies re-created on substitute
	// providers after a node death).
	FailedReads atomic.Int64
}

// NewProviderSet creates a chunk store over the given nodes with the
// given replication degree (≥1).
func NewProviderSet(nodes []cluster.NodeID, replicas int) *ProviderSet {
	ps := &ProviderSet{
		chunks:   make(map[ChunkKey]Payload),
		byPrint:  make(map[uint64]ChunkKey),
		printOf:  make(map[ChunkKey]uint64),
		refs:     make(map[ChunkKey]int64),
		aliases:  make(map[ChunkKey]ChunkKey),
		retained: make(map[ChunkKey]bool),
		pending:  make(map[ChunkKey]bool),
		readsBy:  make([]atomic.Int64, len(nodes)),
		writesBy: make([]atomic.Int64, len(nodes)),
	}
	ps.init(nodes, replicas)
	return ps
}

// EnableDedup turns on content deduplication for subsequent writes.
func (ps *ProviderSet) EnableDedup() { ps.dedup = true }

// fingerprint derives a content identity for a payload: the
// ContentHash of real bytes, or the (size, tag) pair for synthetic
// payloads. Tag 0 synthetic payloads are never deduplicated (no
// identity).
func fingerprint(p Payload) (uint64, bool) {
	if p.Real() {
		return ContentHash(p.Data), true
	}
	if p.Tag == 0 {
		return 0, false
	}
	return p.Tag<<16 ^ uint64(p.Size), true
}

// AllocKey returns a fresh chunk key. Sequential keys give round-robin
// placement, matching the even striping of §3.1.3. The key is NOT
// registered as in-flight: when a garbage Collector runs concurrently,
// chunks of a not-yet-published version must be allocated with
// AllocPendingKey instead or a sweep may reclaim them before the
// version's tree references them.
func (ps *ProviderSet) AllocKey() ChunkKey {
	return ChunkKey(ps.nextKey.Add(1))
}

// AllocPendingKey is AllocKey for a commit in flight: the key is
// atomically registered as pending, so a garbage-collection sweep that
// starts before the commit publishes will not reclaim it even though
// no published tree references it yet. The writer must ClearPending
// once the version is published (or the write aborted). Allocation and
// registration happen under one lock so the collector's snapshot
// (PendingSnapshot) can never observe the key allocated but untracked.
func (ps *ProviderSet) AllocPendingKey() ChunkKey {
	ps.mu.Lock()
	key := ChunkKey(ps.nextKey.Add(1))
	ps.pending[key] = true
	ps.mu.Unlock()
	return key
}

// ClearPending removes the in-flight mark from keys (idempotent). The
// chunks become ordinary sweep candidates: reachable from the version
// just published, or garbage of an aborted write for the next cycle.
func (ps *ProviderSet) ClearPending(keys []ChunkKey) {
	ps.mu.Lock()
	for _, k := range keys {
		delete(ps.pending, k)
	}
	ps.mu.Unlock()
}

// PendingSnapshot atomically samples the key watermark and the set of
// in-flight keys. Taken at the start of a collection cycle, it makes
// the exemption airtight: a key at or below the watermark was either
// pending at the snapshot (exempt) or its commit had already
// published (so the mark phase reaches it through the version's root).
func (ps *ProviderSet) PendingSnapshot() (ChunkKey, map[ChunkKey]bool) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	wm := ChunkKey(ps.nextKey.Load())
	pending := make(map[ChunkKey]bool, len(ps.pending))
	for k := range ps.pending {
		pending[k] = true
	}
	return wm, pending
}

// NodePutRPCs returns a copy of the per-provider write-RPC counters —
// the distribution the batched commit path flattens to one RPC per
// provider per round.
func (ps *ProviderSet) NodePutRPCs() map[cluster.NodeID]int64 {
	out := make(map[cluster.NodeID]int64, len(ps.nodes))
	for i, n := range ps.nodes {
		if v := ps.writesBy[i].Load(); v > 0 {
			out[n] = v
		}
	}
	return out
}

// ChunkPut names one key/payload pair for PutBatch.
type ChunkPut struct {
	Key     ChunkKey
	Payload Payload
	// Print, when nonzero, is the payload's fingerprint — ContentHash
	// of real bytes — computed and verified by the caller: under
	// deduplication PutBatch takes it instead of hashing the bytes
	// again. Zero leaves fingerprinting to PutBatch.
	Print uint64
}

// PutBatch stores a whole commit round of chunks. Each key goes to
// every live replica of its ring, charging the transfer and an
// asynchronous local-disk write there (BlobSeer acknowledges once the
// data is in the provider's write-back buffer; see paper §5.3). A ring
// replica that is down takes no copy: the writer records it as a void
// and pushes the missing copy to a live substitute instead (writing
// around the failure), so the chunk is born at full replication degree
// whenever enough providers are up.
//
// Under deduplication, a payload whose content fingerprint is already
// stored — or appears earlier in the same batch — becomes an alias of
// the existing chunk: the transfer is still charged (the client pushed
// the bytes) but the disk write and the second copy are skipped, and an
// alias needs no substitutes. If an alias's whole ring is dead, its
// transfer goes to the canonical chunk's first live holder (the node
// that detects the duplicate) so the zero-copy alias still succeeds.
// Fingerprints are computed before the store lock is taken; the lookups
// and registrations then run under one lock acquisition in batch order.
//
// The network is charged per provider, not per chunk: every payload
// bound for one provider travels in a single RPC (the write-side twin
// of MetaService.PutBatch), and all providers receive their share
// concurrently, so the round takes as long as its slowest provider. A
// key that could not be placed anywhere fails with ErrNoReplica (the
// first such error is returned) and leaves no fingerprint behind; the
// rest of the round commits regardless.
func (ps *ProviderSet) PutBatch(ctx *cluster.Ctx, puts []ChunkPut) error {
	if len(puts) == 0 {
		return nil
	}
	n := len(puts)
	dup := make([]bool, n)
	canonical := make([]ChunkKey, n)
	registered := make([]bool, n)
	var fprints []uint64
	if ps.dedup {
		var ok []bool
		fprints, ok = fingerprintBatch(puts)
		ps.mu.Lock()
		for i, pt := range puts {
			if !ok[i] {
				continue
			}
			if existing, hit := ps.byPrint[fprints[i]]; hit {
				dup[i], canonical[i] = true, existing
			} else {
				ps.byPrint[fprints[i]] = pt.Key
				ps.printOf[pt.Key] = fprints[i]
				registered[i] = true
			}
		}
		ps.mu.Unlock()
	}

	// Placement pass: accumulate each provider's share of the round.
	bytesTo := make(map[cluster.NodeID]int64)
	diskTo := make(map[cluster.NodeID]int64)
	stored := make([]int, n)
	deadRings := make([][]cluster.NodeID, n)
	subsOf := make([][]cluster.NodeID, n)
	charge := func(prov cluster.NodeID, p Payload, disk bool) {
		bytesTo[prov] += int64(p.Size) + 32
		if disk {
			diskTo[prov] += int64(p.Size)
		}
	}
	for i, pt := range puts {
		var buf [ringBuf]cluster.NodeID
		live, dead, subs := ps.place(buf[:0], pt.Key, !dup[i])
		for _, prov := range live {
			charge(prov, pt.Payload, !dup[i])
		}
		for _, s := range subs {
			charge(s, pt.Payload, true)
		}
		stored[i], deadRings[i], subsOf[i] = len(live)+len(subs), dead, subs
		if stored[i] == 0 && dup[i] {
			ps.mu.RLock()
			for _, nd := range ps.appendLocationsLocked(buf[:0], canonical[i]) {
				if ps.isAlive(nd) {
					charge(nd, pt.Payload, false)
					stored[i]++
					break
				}
			}
			ps.mu.RUnlock()
		}
	}

	// One RPC per distinct provider carries its whole share, all
	// providers transferring concurrently, spawned in ring order for
	// determinism.
	tasks := make([]cluster.Task, 0, len(bytesTo))
	for slot, prov := range ps.nodes {
		b, ok := bytesTo[prov]
		if !ok {
			continue
		}
		d := diskTo[prov]
		ps.PutRPCs.Add(1)
		ps.writesBy[slot].Add(1)
		tasks = append(tasks, ctx.Go("put-batch", ctx.Node(), func(cc *cluster.Ctx) {
			cc.RPC(prov, b, 16)
			if d > 0 {
				cc.DiskWriteAsync(prov, d)
			}
		}))
	}
	ctx.WaitAll(tasks)

	var firstErr error
	ps.mu.Lock()
	for i, pt := range puts {
		if stored[i] == 0 {
			// Nothing could take a copy; unregister the fingerprint
			// claimed above so a later identical write does not alias to
			// this never-stored chunk.
			if registered[i] {
				if ps.byPrint[fprints[i]] == pt.Key {
					delete(ps.byPrint, fprints[i])
				}
				delete(ps.printOf, pt.Key)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("blob: chunk %d: %w", pt.Key, ErrNoReplica)
			}
			continue
		}
		if dup[i] {
			ps.aliases[pt.Key] = canonical[i]
			ps.refs[canonical[i]]++
			ps.DedupHits.Add(1)
		} else {
			ps.chunks[pt.Key] = pt.Payload
			ps.refs[pt.Key]++
			ps.recordLocked(pt.Key, deadRings[i], subsOf[i])
		}
		ps.retained[pt.Key] = true
		ps.Writes.Add(1)
	}
	ps.mu.Unlock()
	return firstErr
}

// fingerprintBatch computes the content fingerprint of every payload
// of a batch (ok[i] false for a payload with no identity), taking a
// payload's precomputed Print when it carries one. Hashing real
// bytes is the costly part of a deduplicated round, so a batch with
// real bytes left to hash fans out over GOMAXPROCS goroutines, each
// hashing one contiguous slice; synthetic payloads fingerprint from
// their tag and stay serial.
func fingerprintBatch(puts []ChunkPut) (fps []uint64, ok []bool) {
	fps, ok = make([]uint64, len(puts)), make([]bool, len(puts))
	unhashed := func(pt ChunkPut) bool { return pt.Payload.Real() && pt.Print == 0 }
	hash := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if pt := puts[i]; pt.Print != 0 {
				fps[i], ok[i] = pt.Print, true
			} else {
				fps[i], ok[i] = fingerprint(pt.Payload)
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(puts))
	if workers < 2 || !slices.ContainsFunc(puts, unhashed) {
		hash(0, len(puts))
		return fps, ok
	}
	var wg sync.WaitGroup
	per := (len(puts) + workers - 1) / workers
	for lo := 0; lo < len(puts); lo += per {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			hash(lo, min(lo+per, len(puts)))
		}(lo)
	}
	wg.Wait()
	return fps, ok
}

// Get fetches the payload for key, charging the provider's disk read
// and the transfer back. Location choice is the placement's pick: the
// reader's nearest live copy, primary-first within a tier, with dead
// holders skipped (each one probed costs the reader a timed-out
// request); only when every copy is gone does the read fail with
// ErrNoReplica. Aliased (deduplicated) keys resolve to their canonical
// chunk, whose holders serve the read.
func (ps *ProviderSet) Get(ctx *cluster.Ctx, key ChunkKey) (Payload, error) {
	ps.mu.RLock()
	if canon, ok := ps.aliases[key]; ok {
		key = canon
	}
	p, ok := ps.chunks[key]
	if !ok {
		ps.mu.RUnlock()
		return Payload{}, notFound("chunk", key)
	}
	slot, probes := ps.pickLocked(ctx.Node(), key)
	ps.mu.RUnlock()
	probeWait(ctx, probes)
	if slot < 0 {
		ps.FailedReads.Add(1)
		return Payload{}, fmt.Errorf("blob: chunk %d: %w", key, ErrNoReplica)
	}
	prov := ps.nodes[slot]
	ctx.DiskRead(prov, int64(p.Size))
	ctx.RPC(prov, 32, int64(p.Size))
	ps.Reads.Add(1)
	ps.readsBy[slot].Add(1)
	return p, nil
}

// Peek returns the stored payload for key (resolving dedup aliases)
// without charging any provider cost. This is the escape hatch the p2p
// sharing layer uses to serve a chunk from a peer's local mirror: the
// payload bytes are authoritative, only the costs move to the peer.
func (ps *ProviderSet) Peek(key ChunkKey) (Payload, bool) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	if canon, ok := ps.aliases[key]; ok {
		key = canon
	}
	p, ok := ps.chunks[key]
	return p, ok
}

// StoredPrint returns the dedup fingerprint stored for key's content
// (resolving dedup aliases) when that content is real — ContentHash of
// its bytes — without charging any provider cost: the fingerprint sits
// in the index next to the payload. It reports false for synthetic
// content and for content stored with deduplication off.
func (ps *ProviderSet) StoredPrint(key ChunkKey) (uint64, bool) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	if canon, ok := ps.aliases[key]; ok {
		key = canon
	}
	fp, ok := ps.printOf[key]
	return fp, ok && ps.chunks[key].Real()
}

// MaxNodeReads returns the chunk reads served by the busiest provider.
func (ps *ProviderSet) MaxNodeReads() int64 {
	var most int64
	for i := range ps.readsBy {
		if v := ps.readsBy[i].Load(); v > most {
			most = v
		}
	}
	return most
}

// ChunkCount returns the number of distinct chunks stored.
func (ps *ProviderSet) ChunkCount() int {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return len(ps.chunks)
}

// KeyWatermark returns the highest chunk key allocated so far. The
// garbage collector snapshots it before marking: keys allocated after
// the snapshot belong to versions still being written and are exempt
// from the sweep, which is what lets collection run while deployments
// and commits proceed.
func (ps *ProviderSet) KeyWatermark() ChunkKey {
	return ChunkKey(ps.nextKey.Load())
}

// RetainedKeys returns every key up to the watermark that still holds
// a reference — canonical chunks that own their self-reference and
// dedup aliases. This is the sweep candidate set; keys absent from it
// were already released (their content may live on through aliases).
func (ps *ProviderSet) RetainedKeys(upTo ChunkKey) []ChunkKey {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	out := make([]ChunkKey, 0, len(ps.retained))
	for k := range ps.retained {
		if k <= upTo {
			out = append(out, k)
		}
	}
	return out
}

// Release drops the reference held by each key: an alias decrements
// its canonical chunk's count; a canonical key gives up its
// self-reference. A chunk whose count reaches zero is physically
// freed (its payload, fingerprint entry and replicas' disk space).
// Keys already released or never stored are ignored, so Release is
// idempotent per key. It returns the keys actually released and the
// payload bytes freed, and charges one small batched RPC per live
// provider holding the released keys' content (ring members that
// stored it plus substitutes) — deletion is a metadata operation; the
// freed blocks are trimmed asynchronously.
func (ps *ProviderSet) Release(ctx *cluster.Ctx, keys []ChunkKey) (released []ChunkKey, freedBytes int64) {
	counts := make([]int64, len(ps.nodes))
	ps.mu.Lock()
	for _, key := range keys {
		if !ps.retained[key] {
			continue
		}
		delete(ps.retained, key)
		canon := key
		if c, ok := ps.aliases[key]; ok {
			canon = c
			delete(ps.aliases, key)
		}
		released = append(released, key)
		// The delete goes to the content's live holders, counted before
		// its degraded-placement records, which name some of them, are
		// forgotten.
		ps.countLiveLocationsLocked(counts, canon)
		if ps.refs[canon]--; ps.refs[canon] <= 0 {
			delete(ps.refs, canon)
			ps.forgetLocked(canon)
			if p, ok := ps.chunks[canon]; ok {
				delete(ps.chunks, canon)
				freedBytes += int64(p.Size)
				ps.Reclaimed.Add(1)
				ps.ReclaimedBytes.Add(int64(p.Size))
			}
			if fp, ok := ps.printOf[canon]; ok {
				delete(ps.printOf, canon)
				if ps.byPrint[fp] == canon {
					delete(ps.byPrint, fp)
				}
			}
		}
	}
	ps.mu.Unlock()
	// Charge per-provider deletion batches in deterministic ring order.
	for slot, prov := range ps.nodes {
		if c := counts[slot]; c > 0 {
			ctx.RPC(prov, c*24, 16)
		}
	}
	return released, freedBytes
}

// RefCount returns (without cost) the content reference count behind a
// key: the canonical chunk's count for aliases, the key's own count
// otherwise. Zero means the content is gone.
func (ps *ProviderSet) RefCount(key ChunkKey) int64 {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	if canon, ok := ps.aliases[key]; ok {
		key = canon
	}
	return ps.refs[key]
}

// StoredBytes returns the total payload bytes stored (one copy counted
// per chunk; multiply by the replication degree for raw usage).
func (ps *ProviderSet) StoredBytes() int64 {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	var total int64
	for _, p := range ps.chunks {
		total += int64(p.Size)
	}
	return total
}
