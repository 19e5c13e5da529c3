package blob

import (
	"testing"

	"blobvfs/internal/cluster"
)

// topo3z is 3 zones × 1 rack × 3 nodes: nodes 0-2 in zone 0, 3-5 in
// zone 1, 6-8 in zone 2 (bandwidths are irrelevant to placement).
func topo3z() cluster.Topology {
	return cluster.Topology{Zones: 3, RacksPerZone: 1, NodesPerRack: 3,
		RackBandwidth: 1, ZoneBandwidth: 1}
}

func allNodes(n int) []cluster.NodeID {
	out := make([]cluster.NodeID, n)
	for i := range out {
		out[i] = cluster.NodeID(i)
	}
	return out
}

// TestReplicasSpreadAcrossZones: with a topology, a key's replica set
// takes one node per zone (the failure-domain spread), primary first,
// for every key of the ring.
func TestReplicasSpreadAcrossZones(t *testing.T) {
	ps := NewProviderSet(allNodes(9), 3)
	ps.SetTopology(topo3z())
	for key := ChunkKey(0); key < 32; key++ {
		locs := ps.Replicas(key)
		if len(locs) != 3 {
			t.Fatalf("key %d: %d replicas, want 3", key, len(locs))
		}
		if locs[0] != ps.nodes[ps.primarySlot(key)] {
			t.Errorf("key %d: primary %d moved (want slot %d)", key, locs[0], ps.primarySlot(key))
		}
		zones := map[int]bool{}
		for _, n := range locs {
			zones[topo3z().Zone(n)] = true
		}
		if len(zones) != 3 {
			t.Errorf("key %d: replicas %v cover %d zones, want 3", key, locs, len(zones))
		}
	}
}

// TestReplicasSpreadAcrossRacks: when the replication degree exceeds
// the zone count, the surplus copies still land in fresh racks before
// doubling up.
func TestReplicasSpreadAcrossRacks(t *testing.T) {
	// 1 zone × 4 racks × 2 nodes.
	topo := cluster.Topology{Zones: 1, RacksPerZone: 4, NodesPerRack: 2,
		RackBandwidth: 1, ZoneBandwidth: 1}
	ps := NewProviderSet(allNodes(8), 3)
	ps.SetTopology(topo)
	for key := ChunkKey(0); key < 16; key++ {
		locs := ps.Replicas(key)
		racks := map[int]bool{}
		for _, n := range locs {
			racks[topo.Rack(n)] = true
		}
		if len(racks) != 3 {
			t.Errorf("key %d: replicas %v cover %d racks, want 3", key, locs, len(racks))
		}
	}
}

// TestReplicasSingleDomainMatchesFlat pins the degenerate case: a
// topology whose nodes all share one zone and rack must reproduce the
// flat consecutive ring walk exactly, key by key.
func TestReplicasSingleDomainMatchesFlat(t *testing.T) {
	flat := NewProviderSet(allNodes(7), 3)
	single := NewProviderSet(allNodes(7), 3)
	single.SetTopology(cluster.Topology{Zones: 1, RacksPerZone: 1, NodesPerRack: 7,
		RackBandwidth: 1, ZoneBandwidth: 1})
	for key := ChunkKey(0); key < 64; key++ {
		a, b := flat.Replicas(key), single.Replicas(key)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("key %d: single-domain ring %v != flat ring %v", key, b, a)
			}
		}
	}
}

// TestOrderByLocality: the reader's nearest copies come first and ties
// keep their failover order (the sort is stable).
func TestOrderByLocality(t *testing.T) {
	ps := NewProviderSet(allNodes(9), 3)
	ps.SetTopology(topo3z())
	// Reader in zone 1; list arrives remote-first.
	locs := []cluster.NodeID{0, 6, 4, 3, 8}
	ps.orderByLocality(4, locs)
	want := []cluster.NodeID{4, 3, 0, 6, 8}
	for i := range want {
		if locs[i] != want[i] {
			t.Fatalf("orderByLocality = %v, want %v", locs, want)
		}
	}
	// Disabled topology: untouched.
	flat := NewProviderSet(allNodes(9), 3)
	locs = []cluster.NodeID{7, 2, 5}
	flat.orderByLocality(4, locs)
	if locs[0] != 7 || locs[1] != 2 || locs[2] != 5 {
		t.Fatalf("flat orderByLocality reordered: %v", locs)
	}
}

// TestGetPrefersNearestReplicaAndCountsTiers: a topology-aware Get
// serves from the reader's own zone and books the read under the
// right tier counter; killing the near copy fails over outward.
func TestGetPrefersNearestReplicaAndCountsTiers(t *testing.T) {
	fab := cluster.NewLive(9)
	ps := NewProviderSet(allNodes(9), 3)
	ps.SetTopology(topo3z())
	fab.Run(func(ctx *cluster.Ctx) {
		key := ps.AllocKey()
		if err := ps.PutBatch(ctx, []ChunkPut{{Key: key, Payload: SyntheticPayload(4096, 1)}}); err != nil {
			t.Fatal(err)
		}
		locs := ps.Replicas(key)
		// Read from a node in the same zone as the second replica: the
		// copy in the reader's zone must serve, not the primary.
		reader := locs[1]
		done := ctx.Go("read", reader, func(rctx *cluster.Ctx) {
			if _, err := ps.Get(rctx, key); err != nil {
				t.Error(err)
			}
		})
		ctx.Wait(done)
		if n := ps.readsBy[locs[1]].Load(); n != 1 {
			t.Errorf("same-zone replica served %d reads, want 1", n)
		}
		tiers := ps.TierReads()
		if tiers[cluster.TierLocal] != 1 {
			t.Errorf("tier reads = %v, want 1 under local (reader == replica)", tiers)
		}
		// Kill the whole near zone: the read fails over to another
		// zone and books under the remote tier.
		z := topo3z().Zone(reader)
		for n := 3 * z; n < 3*z+3; n++ {
			ps.Kill(cluster.NodeID(n))
		}
		done = ctx.Go("failover", reader, func(rctx *cluster.Ctx) {
			if _, err := ps.Get(rctx, key); err != nil {
				t.Error(err)
			}
		})
		ctx.Wait(done)
		tiers = ps.TierReads()
		if tiers[cluster.TierRemote] != 1 {
			t.Errorf("tier reads = %v, want 1 under remote after zone kill", tiers)
		}
	})
}
