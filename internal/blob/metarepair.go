package blob

import (
	"slices"

	"blobvfs/internal/cluster"
)

// This file is the metadata tier's half of the failure-resilience
// subsystem — the twin of repair.go for segment-tree nodes, over the
// same placement policy (placement.go). A MetaService subscribed to
// the cluster liveness registry flips the provider's flag on every
// transition and runs a deterministic re-replication sweep that
// restores each stored ref to full degree (sorted refs, one puller
// activity per destination provider), so no tree node is lost while at
// least one copy lives. The path is the same at every degree;
// blobvfs.Open subscribes the tier only when its degree is above 1,
// which is what keeps the default control plane fault-free.

// NodeChanged is the cluster.Liveness listener: it records the
// transition and runs a re-replication sweep — after kills to restore
// the degree from the survivors, and after revives to use the
// returning provider as a fresh substitute target. Transitions for
// nodes outside the metadata provider set are ignored.
func (m *MetaService) NodeChanged(ctx *cluster.Ctx, node cluster.NodeID, alive bool) {
	if m.setAlive(node, alive) {
		m.ReReplicate(ctx)
	}
}

// ReReplicate scans every stored ref and restores its replication
// degree where copies were lost (see placement.planRepairLocked),
// walking the refs in sorted order. Registration is one critical
// section; the transfers then run as one puller activity per
// destination provider, in provider-list order, so the sweep is
// deterministic. Tree nodes live in provider memory, so each copy is
// one small RPC from the source (no disk legs, unlike chunk repair).
// Returns how many copies it created (also added to Rereplicated).
func (m *MetaService) ReReplicate(ctx *cluster.Ctx) int {
	refs := make([]NodeRef, 0, m.NodeCount())
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for ref := range sh.nodes {
			refs = append(refs, ref)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(refs)
	m.repMu.Lock()
	jobs := m.planRepairLocked(refs)
	m.repMu.Unlock()
	return m.rereplicate(ctx, "meta-rereplicate", jobs, func(cc *cluster.Ctx, j repairJob[NodeRef]) {
		cc.RPC(j.src, 16, treeNodeWire)
	})
}

// LiveLocations returns the live providers currently holding a copy of
// ref, in failover order, without charging any cost — the inspection
// hook the chaos tests assert replication invariants with. A ref with
// no stored node returns nil.
func (m *MetaService) LiveLocations(ref NodeRef) []cluster.NodeID {
	if _, ok := m.peek(ref); !ok {
		return nil
	}
	m.repMu.RLock()
	defer m.repMu.RUnlock()
	return m.liveLocationsLocked(ref)
}
