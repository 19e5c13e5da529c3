package blob

import (
	"slices"

	"blobvfs/internal/cluster"
)

// This file is the data plane's half of the fault-injection subsystem
// (cluster/faults.go): when the liveness registry reports a provider
// transition, the set updates its liveness flags and re-replicates
// every chunk left under-replicated onto surviving providers, so a
// second failure does not take the last copy. The policy — ring walk,
// voids and substitutes, the repair planner — is the shared placement
// (placement.go); this file supplies the chunk plane's key set and
// copy costs.

// NodeChanged is the cluster liveness hook: wire it with
// Liveness.OnChange. A death marks the provider failed, a revival
// brings its own chunks back into service; both are followed by a
// repair sweep (ReReplicate) — after a death the chunks the dead node
// held are under-replicated, and after a revival the freed capacity
// can host copies for chunks that could not be repaired while too few
// providers were up. The sweep registers the substitute locations
// under one lock acquisition immediately after the transition, so a
// read arriving after the listener ran already fails over to them; the
// copy transfers are then charged on the fabric. Non-provider nodes
// are ignored.
func (ps *ProviderSet) NodeChanged(ctx *cluster.Ctx, node cluster.NodeID, alive bool) {
	if ps.setAlive(node, alive) {
		ps.ReReplicate(ctx)
	}
}

// ReReplicate restores the replication degree of every under-
// replicated stored chunk (see placement.planRepairLocked), walking
// the chunks in key order. The substitutions are registered first (one
// lock acquisition, so reads fail over to them immediately), then the
// copies are charged: one puller activity per substitute provider,
// each pulling its chunks from the first surviving copy (disk read
// there, transfer over, local write-back here). Chunks whose last copy
// is already gone cannot be repaired and are skipped — the cohort
// sharing layer is then the only remaining source. Returns how many
// copies were created.
func (ps *ProviderSet) ReReplicate(ctx *cluster.Ctx) int {
	ps.mu.Lock()
	keys := make([]ChunkKey, 0, len(ps.chunks))
	for key := range ps.chunks {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	jobs := ps.planRepairLocked(keys)
	for i := range jobs {
		jobs[i].size = int64(ps.chunks[jobs[i].key].Size)
	}
	ps.mu.Unlock()
	return ps.rereplicate(ctx, "rereplicate", jobs, func(cc *cluster.Ctx, j repairJob[ChunkKey]) {
		cc.DiskRead(j.src, j.size)
		cc.RPC(j.src, 32, j.size)
		cc.DiskWriteAsync(j.dst, j.size)
	})
}

// LiveLocations returns the providers currently able to serve key —
// live ring replicas plus live repair copies — in failover order.
// Aliased keys resolve to their canonical chunk. It is a zero-cost
// inspection hook for invariant tests and diagnostics.
func (ps *ProviderSet) LiveLocations(key ChunkKey) []cluster.NodeID {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	if canon, ok := ps.aliases[key]; ok {
		key = canon
	}
	if _, ok := ps.chunks[key]; !ok {
		return nil
	}
	return ps.liveLocationsLocked(key)
}
