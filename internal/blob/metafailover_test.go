package blob

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// Chaos/property and deterministic tests for the replicated metadata
// tier and the version-manager journal: the control-plane twins of
// failover_prop_test.go. The invariants: no stored tree node loses its
// last live copy while enough providers survive, gets fail over to a
// live replica rather than fail, degraded puts write around dead ring
// members, and the version manager keeps serving from a journal
// standby when its host dies.

func metaTestRing(t *testing.T, m *MetaService, ref NodeRef) []cluster.NodeID {
	t.Helper()
	ring := m.Replicas(ref)
	if len(ring) != m.ReplicationDegree() {
		t.Fatalf("ref %d: ring %v, want %d members", ref, ring, m.ReplicationDegree())
	}
	return ring
}

// TestMetaFailoverNoLostNodesProperty: random kill/revive sequences
// against a replicated metadata service. After every transition (each
// one runs a synchronous re-replication sweep), every stored ref must
// keep at least one live location and stay readable; puts issued while
// providers are down must still store at full achievable degree.
func TestMetaFailoverNoLostNodesProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := sim.NewRNG(int64(4000 + trial))
			nProv := 4 + rng.Intn(5)    // 4..8 providers
			replicas := 2 + rng.Intn(2) // 2..3 copies
			if replicas > nProv {
				replicas = nProv
			}
			nRefs := 32 + rng.Intn(64)
			fab := cluster.NewSim(cluster.DefaultConfig(nProv + 1))
			nodes := make([]cluster.NodeID, nProv)
			for i := range nodes {
				nodes[i] = cluster.NodeID(i + 1)
			}
			m := NewMetaService(nodes)
			m.SetReplication(replicas)
			lv := cluster.NewLiveness(nProv + 1)
			lv.OnChange(m.NodeChanged)

			fab.Run(func(ctx *cluster.Ctx) {
				var refs []NodeRef
				put := func(ref NodeRef) {
					m.PutBatch(ctx, []NewNode{{Ref: ref, Node: TreeNode{Lo: int64(ref), Hi: int64(ref) + 1, Chunk: ChunkKey(ref)}}})
					refs = append(refs, ref)
				}
				for i := 0; i < nRefs; i++ {
					put(NodeRef(i))
				}
				// Random walk over kill/revive, never below one live
				// provider. Every step also stores a fresh ref — often
				// while providers are down, exercising the
				// write-around path of PutBatch.
				for step := 0; step < 24; step++ {
					victim := nodes[rng.Intn(nProv)]
					if lv.Alive(victim) && lv.AliveCount() > 2 {
						lv.Kill(ctx, victim)
					} else {
						lv.Revive(ctx, victim)
					}
					put(NodeRef(10000 + step))
					for _, ref := range refs {
						locs := m.LiveLocations(ref)
						if len(locs) == 0 {
							t.Fatalf("step %d: ref %d lost every live location", step, ref)
						}
						if n, err := m.Get(ctx, ref); err != nil || n.Chunk != ChunkKey(ref) {
							t.Fatalf("step %d: ref %d unreadable with %d live copies: (%+v, %v)",
								step, ref, len(locs), n, err)
						}
					}
				}
			})
		})
	}
}

// TestMetaReplicaFailover: deterministic failover and counter
// behavior — a get served by a survivor counts one failover, and a ref
// whose every copy is down fails with ErrNoReplica and counts a failed
// get. The liveness flags are flipped directly (no registry, hence no
// repair sweep), so the ring alone decides.
func TestMetaReplicaFailover(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	nodes := []cluster.NodeID{1, 2, 3, 4}
	m := NewMetaService(nodes)
	m.SetReplication(2)

	fab.Run(func(ctx *cluster.Ctx) {
		const ref = NodeRef(7)
		m.PutBatch(ctx, []NewNode{{Ref: ref, Node: TreeNode{Lo: 7, Hi: 8, Chunk: 77}}})
		ring := metaTestRing(t, m, ref)

		if _, err := m.Get(ctx, ref); err != nil {
			t.Fatalf("healthy get: %v", err)
		}
		if f := m.Failovers.Load(); f != 0 {
			t.Fatalf("healthy get counted %d failovers", f)
		}

		m.Kill(ring[0])
		if n, err := m.Get(ctx, ref); err != nil || n.Chunk != 77 {
			t.Fatalf("get with dead primary: (%+v, %v)", n, err)
		}
		if f := m.Failovers.Load(); f != 1 {
			t.Fatalf("Failovers = %d after one failed-over get, want 1", f)
		}

		m.Kill(ring[1])
		if _, err := m.Get(ctx, ref); !errors.Is(err, ErrNoReplica) {
			t.Fatalf("get with every copy down: %v, want ErrNoReplica", err)
		}
		if fg := m.FailedGets.Load(); fg != 1 {
			t.Fatalf("FailedGets = %d, want 1", fg)
		}

		m.Revive(ring[1])
		if _, err := m.Get(ctx, ref); err != nil {
			t.Fatalf("get after revive: %v", err)
		}

		var served int64
		for _, n := range m.TierReads() {
			served += n
		}
		if served != 3 {
			t.Fatalf("TierReads sums to %d, want the 3 served gets", served)
		}
	})
}

// TestMetaReReplicateRestoresDegree: a kill through the liveness
// registry triggers a sweep that restores every affected ref to full
// degree on a substitute, and the repaired copy serves reads even
// after the surviving ring member also dies.
func TestMetaReReplicateRestoresDegree(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	nodes := []cluster.NodeID{1, 2, 3, 4}
	m := NewMetaService(nodes)
	m.SetReplication(2)
	lv := cluster.NewLiveness(5)
	lv.OnChange(m.NodeChanged)

	fab.Run(func(ctx *cluster.Ctx) {
		var batch []NewNode
		for i := 0; i < 16; i++ {
			batch = append(batch, NewNode{Ref: NodeRef(i), Node: TreeNode{Lo: int64(i), Hi: int64(i) + 1, Chunk: ChunkKey(i)}})
		}
		m.PutBatch(ctx, batch)

		lv.Kill(ctx, nodes[0])
		if r := m.Rereplicated.Load(); r == 0 {
			t.Fatal("kill through the registry re-replicated nothing")
		}
		for i := 0; i < 16; i++ {
			if locs := m.LiveLocations(NodeRef(i)); len(locs) != 2 {
				t.Fatalf("ref %d: %d live copies after the sweep, want 2", i, len(locs))
			}
		}

		// The second ring member dies too: only repaired copies remain,
		// and they serve.
		lv.Kill(ctx, nodes[1])
		for i := 0; i < 16; i++ {
			if n, err := m.Get(ctx, NodeRef(i)); err != nil || n.Chunk != ChunkKey(i) {
				t.Fatalf("ref %d after double kill: (%+v, %v)", i, n, err)
			}
		}
		if fg := m.FailedGets.Load(); fg != 0 {
			t.Fatalf("FailedGets = %d, want 0 (repairs must serve)", fg)
		}
	})
}

// TestMetaPutBatchWriteAround: a put whose ring contains a dead member
// writes around it — the copy lands on a live substitute, the dead
// member is recorded as a void (it holds nothing, so it never serves
// that ref, even after reviving).
func TestMetaPutBatchWriteAround(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	nodes := []cluster.NodeID{1, 2, 3, 4}
	m := NewMetaService(nodes)
	m.SetReplication(2)

	fab.Run(func(ctx *cluster.Ctx) {
		const probe = NodeRef(3)
		ring := metaTestRing(t, m, probe)
		m.Kill(ring[0])

		m.PutBatch(ctx, []NewNode{{Ref: probe, Node: TreeNode{Lo: 3, Hi: 4, Chunk: 33}}})
		locs := m.LiveLocations(probe)
		if len(locs) != 2 {
			t.Fatalf("degraded put stored %d live copies, want 2 (write-around)", len(locs))
		}
		for _, l := range locs {
			if l == ring[0] {
				t.Fatalf("dead ring member %d listed as a location", ring[0])
			}
		}

		// Reviving the void member must not resurrect a copy it never
		// received.
		m.Revive(ring[0])
		for _, l := range m.LiveLocations(probe) {
			if l == ring[0] {
				t.Fatalf("void member %d serves a copy it never stored", ring[0])
			}
		}
		if n, err := m.Get(ctx, probe); err != nil || n.Chunk != 33 {
			t.Fatalf("get after revive: (%+v, %v)", n, err)
		}
	})
}

// TestMetaGetBatchIntoMissingCount: the batched get's partial-fill
// contract — the error carries how many refs failed and the first
// failing ref, found entries are still filled, and the error keeps
// matching both errors.Is(ErrNotFound) and errors.As(*NotFoundError).
func TestMetaGetBatchIntoMissingCount(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	nodes := []cluster.NodeID{1, 2, 3, 4}

	check := func(t *testing.T, m *MetaService, ctx *cluster.Ctx) {
		m.PutBatch(ctx, []NewNode{
			{Ref: 1, Node: TreeNode{Lo: 1, Hi: 2, Chunk: 11}},
			{Ref: 2, Node: TreeNode{Lo: 2, Hi: 3, Chunk: 22}},
		})
		refs := []NodeRef{1, 404, 2, 505}
		out := make([]TreeNode, len(refs))
		err := m.GetBatchInto(ctx, refs, out)
		var missing *MissingNodesError
		if !errors.As(err, &missing) {
			t.Fatalf("err = %v, want *MissingNodesError", err)
		}
		if missing.Missing != 2 || missing.First != 404 {
			t.Fatalf("missing = %d first = %d, want 2 and 404", missing.Missing, missing.First)
		}
		if msg := missing.Error(); !strings.Contains(msg, "2 node(s)") || !strings.Contains(msg, "404") {
			t.Fatalf("error text %q does not name the count and the first ref", msg)
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v does not match ErrNotFound", err)
		}
		var nf *NotFoundError
		if !errors.As(err, &nf) {
			t.Fatalf("err = %v does not match *NotFoundError", err)
		}
		if out[0].Chunk != 11 || out[2].Chunk != 22 {
			t.Fatalf("found refs not filled on error: %+v", out)
		}
		if out[1] != (TreeNode{}) || out[3] != (TreeNode{}) {
			t.Fatalf("missing refs not left zero: %+v", out)
		}
	}

	t.Run("degree1", func(t *testing.T) {
		fab.Run(func(ctx *cluster.Ctx) {
			check(t, NewMetaService(nodes), ctx)
		})
	})
	t.Run("replicated", func(t *testing.T) {
		fab.Run(func(ctx *cluster.Ctx) {
			m := NewMetaService(nodes)
			m.SetReplication(2)
			check(t, m, ctx)

			// A stored ref with every copy down also counts as missing —
			// and as a failed get — while the rest of the batch fills.
			for _, prov := range m.Replicas(1) {
				m.Kill(prov)
			}
			out := make([]TreeNode, 2)
			err := m.GetBatchInto(ctx, []NodeRef{1, 2}, out)
			var missing *MissingNodesError
			if !errors.As(err, &missing) || missing.Missing != 1 || missing.First != 1 {
				t.Fatalf("all-copies-down batch: err = %v, want 1 missing, first ref 1", err)
			}
			if m.FailedGets.Load() == 0 {
				t.Fatal("all-copies-down ref did not count as a failed get")
			}
			if out[1].Chunk != 22 {
				t.Fatalf("live ref not filled: %+v", out)
			}
		})
	})
}

// TestVersionManagerJournalFailover: with standbys configured, killing
// the manager's host moves reads and mutations to the first live
// journal member; reviving the host moves them back. State written
// while the primary was down must be visible throughout — the journal
// is the mechanism that makes VM state survive host death.
func TestVersionManagerJournalFailover(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(4))
	vm := NewVersionManager(1)
	vm.SetStandbys([]cluster.NodeID{2, 3})
	if vm.Node() != 1 {
		t.Fatalf("Node() = %d, want 1", vm.Node())
	}
	if sb := vm.Standbys(); len(sb) != 2 || sb[0] != 2 || sb[1] != 3 {
		t.Fatalf("Standbys() = %v, want [2 3]", sb)
	}
	lv := cluster.NewLiveness(4)
	lv.OnChange(vm.NodeChanged)

	fab.Run(func(ctx *cluster.Ctx) {
		id, err := vm.CreateBlob(ctx, 1<<20, 1<<16)
		if err != nil {
			t.Fatalf("CreateBlob: %v", err)
		}
		v1, err := vm.Ticket(ctx, id)
		if err != nil {
			t.Fatalf("Ticket: %v", err)
		}
		if err := vm.Publish(ctx, id, v1, 42); err != nil {
			t.Fatalf("Publish: %v", err)
		}

		lv.Kill(ctx, 1)
		if got, err := vm.Latest(ctx, id); err != nil || got != v1 {
			t.Fatalf("Latest with dead host: (%v, %v), want %v", got, err, v1)
		}
		if vm.Failovers.Load() == 0 {
			t.Fatal("read with dead host counted no failover")
		}
		// Mutations keep working against the standby, and their state
		// survives.
		v2, err := vm.Ticket(ctx, id)
		if err != nil {
			t.Fatalf("Ticket with dead host: %v", err)
		}
		if err := vm.Publish(ctx, id, v2, 43); err != nil {
			t.Fatalf("Publish with dead host: %v", err)
		}

		lv.Revive(ctx, 1)
		if got, err := vm.Latest(ctx, id); err != nil || got != v2 {
			t.Fatalf("Latest after revive: (%v, %v), want %v", got, err, v2)
		}
		if root, err := vm.Root(ctx, id, v2); err != nil || root != 43 {
			t.Fatalf("Root of the version published during the outage: (%v, %v)", root, err)
		}
	})
}

// TestMetaDegree1HonoursKill: the metadata tier runs one placement
// path at every degree, so a single-copy ref whose home provider is
// down is unreadable — Get and GetBatchInto fail it with ErrNoReplica
// and count a failed get — and readable again once the home revives.
func TestMetaDegree1HonoursKill(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	m := NewMetaService([]cluster.NodeID{1, 2, 3, 4})

	fab.Run(func(ctx *cluster.Ctx) {
		const ref = NodeRef(5)
		m.PutBatch(ctx, []NewNode{{Ref: ref, Node: TreeNode{Lo: 5, Hi: 6, Chunk: 55}}})
		home := metaTestRing(t, m, ref)[0]

		m.Kill(home)
		if _, err := m.Get(ctx, ref); !errors.Is(err, ErrNoReplica) {
			t.Fatalf("get with the home down: %v, want ErrNoReplica", err)
		}
		if fg := m.FailedGets.Load(); fg != 1 {
			t.Fatalf("FailedGets = %d after one failed get, want 1", fg)
		}
		var missing *MissingNodesError
		if err := m.GetBatchInto(ctx, []NodeRef{ref}, make([]TreeNode, 1)); !errors.As(err, &missing) || missing.Missing != 1 {
			t.Fatalf("batched get with the home down: %v, want 1 missing", err)
		}
		if fg := m.FailedGets.Load(); fg != 2 {
			t.Fatalf("FailedGets = %d after two failed gets, want 2", fg)
		}

		m.Revive(home)
		if n, err := m.Get(ctx, ref); err != nil || n.Chunk != 55 {
			t.Fatalf("get after revive: (%+v, %v)", n, err)
		}
	})
}

// TestMetaSweepChargesEveryLiveHolder: a garbage-collection sweep sends
// its delete RPC to every live provider holding a swept ref — each ring
// member that stored its copy plus the substitutes of a degraded put —
// and to no dead one, the home included.
func TestMetaSweepChargesEveryLiveHolder(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	m := NewMetaService([]cluster.NodeID{1, 2, 3, 4})
	m.SetReplication(2)
	const del = 16 + 16 // one holder's delete RPC for one ref: request + response

	fab.Run(func(ctx *cluster.Ctx) {
		sweep := func(ref NodeRef) int64 {
			t.Helper()
			before := fab.NetTraffic()
			if n := m.Sweep(ctx, ref, nil, nil); n != 1 {
				t.Fatalf("sweep up to ref %d freed %d nodes, want 1", ref, n)
			}
			return fab.NetTraffic() - before
		}
		put := func(ref NodeRef) {
			m.PutBatch(ctx, []NewNode{{Ref: ref, Node: TreeNode{Lo: int64(ref), Hi: int64(ref) + 1}}})
		}

		put(1)
		if got := sweep(1); got != 2*del {
			t.Fatalf("healthy sweep moved %d bytes, want %d (both ring members)", got, 2*del)
		}

		put(2)
		home := metaTestRing(t, m, 2)[0]
		m.Kill(home)
		if got := sweep(2); got != del {
			t.Fatalf("sweep with the home down moved %d bytes, want %d (the surviving member only)", got, del)
		}

		// Ref 6 shares ref 2's dead home: its put writes around it onto
		// a substitute, which holds a copy the sweep must delete too.
		if metaTestRing(t, m, 6)[0] != home {
			t.Fatal("ref 6 does not share ref 2's home")
		}
		put(6)
		if got := sweep(6); got != 2*del {
			t.Fatalf("sweep of a degraded put moved %d bytes, want %d (live member + substitute)", got, 2*del)
		}
		if f := m.Freed.Load(); f != 3 {
			t.Fatalf("Freed = %d, want 3", f)
		}
	})
}

// TestMetaPickAllocs pins the metadata read primitive — locate a ref's
// copies and pick the serving one — at zero allocations: the ring is
// walked into a stack buffer, so batched descents allocate nothing per
// ref, at degree 1 and replicated alike.
func TestMetaPickAllocs(t *testing.T) {
	for _, degree := range []int{1, 2} {
		m := NewMetaService([]cluster.NodeID{1, 2, 3, 4})
		m.SetReplication(degree)
		allocs := testing.AllocsPerRun(100, func() {
			m.repMu.RLock()
			slot, _ := m.pickLocked(0, 7)
			m.repMu.RUnlock()
			if slot < 0 {
				t.Fatal("pick found no live copy on a healthy ring")
			}
		})
		if allocs != 0 {
			t.Errorf("degree %d: locate+pick allocated %.1f objects per ref, want 0", degree, allocs)
		}
	}
}
