package experiments

import (
	"testing"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
)

// herd is one concurrent commit round's outcome: the pool for counter
// inspection, the provider and metadata counters as they stood after
// the base upload, and the chunks the instances dirtied (as counted by
// their mirrors at commit).
type herd struct {
	*crowdPool
	writes0, puts0, metaPuts0 int64
	dirtied                   int64
}

// herdCommit provisions n instances over a dedicated provider pool,
// dirties each with one round of §5.3 writes, and commits them all
// concurrently (first snapshot, so CLONE+COMMIT).
func herdCommit(t *testing.T, p Params, instances, providers int) herd {
	t.Helper()
	sp := newPool(p, flatLayout(instances, providers))
	sp.Orch.Pipeline = true
	h := herd{
		crowdPool: sp,
		writes0:   sp.Sys.Providers.Writes.Load(),
		puts0:     sp.Sys.Providers.PutRPCs.Load(),
		metaPuts0: sp.Sys.Meta.Puts.Load(),
	}
	sp.Fab.Run(func(ctx *cluster.Ctx) {
		insts := make([]*middleware.Instance, instances)
		errs := make([]error, instances)
		var tasks []cluster.Task
		wrRNG := sim.NewRNG(p.Seed + 7)
		for i := 0; i < instances; i++ {
			i := i
			rng := wrRNG.Fork()
			node := sp.InstNodes[i]
			tasks = append(tasks, ctx.Go("prep", node, func(cc *cluster.Ctx) {
				disk, err := sp.Backend.Provision(cc, i, node)
				if err != nil {
					errs[i] = err
					return
				}
				errs[i] = SnapshotWrites(cc, disk, p.SnapshotDiff, int64(p.ChunkSize), rng)
				insts[i] = &middleware.Instance{Index: i, Node: node, Disk: disk}
			}))
		}
		ctx.WaitAll(tasks)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sp.Orch.SnapshotAll(ctx, insts); err != nil {
			t.Fatal(err)
		}
		for _, inst := range insts {
			h.dirtied += inst.Disk.(*blobvfs.Disk).Stats().CommittedChunks
		}
	})
	return h
}

// TestHerdCommitPerProviderRPCs pins the write-side RPC accounting of a
// 64-instance concurrent commit round against a 4-node provider pool:
// every instance pays exactly one chunk-put RPC per provider it stores
// on — with a diff spanning the whole ring, that is one RPC per
// provider per instance, evenly spread — and one metadata-put RPC per
// provider it places tree nodes on, while the logical chunk writes
// equal the chunks the instances dirtied.
func TestHerdCommitPerProviderRPCs(t *testing.T) {
	p := Quick()
	const instances, providers = 64, 4
	h := herdCommit(t, p, instances, providers)

	// One chunk-put RPC per provider per commit (the base upload,
	// before any instance, is also one batch → one RPC per provider).
	// Each instance's diff spans every ring member, so the per-provider
	// counts are exactly commits+1 each.
	per := h.Sys.Providers.NodePutRPCs()
	if len(per) != providers {
		t.Fatalf("puts landed on %d providers, want %d", len(per), providers)
	}
	var total int64
	for node, n := range per {
		if n != instances+1 {
			t.Fatalf("provider %d served %d put RPCs, want %d (one per commit plus the base upload)", node, n, instances+1)
		}
		total += n
	}
	if got := h.Sys.Providers.PutRPCs.Load(); got != total {
		t.Fatalf("PutRPCs total %d != per-provider sum %d", got, total)
	}

	// Every commit writes exactly the chunks its instance dirtied.
	if writes := h.Sys.Providers.Writes.Load() - h.writes0; writes != h.dirtied || writes == 0 {
		t.Fatalf("round published %d chunk writes, instances dirtied %d", writes, h.dirtied)
	}

	// Metadata puts are batched per provider: each CLONE stores its one
	// new root on a single provider, and each COMMIT's new subtree
	// spans every provider, so the round costs providers+1 metadata-put
	// RPCs per instance.
	if metaPuts := h.Sys.Meta.Puts.Load() - h.metaPuts0; metaPuts != instances*(providers+1) {
		t.Fatalf("round issued %d meta-put RPCs, want %d (providers+1 per instance)", metaPuts, instances*(providers+1))
	}
}

// TestMultisnapshotReduction runs the scenario end to end at the size
// `vmdeploy -quick multisnap` uses and checks its accounting: write RPCs are the chunk-put plus
// metadata-put RPCs, chunk-put RPCs stay at one per provider per commit,
// and batching cuts the per-chunk protocol's write RPCs at least 2×.
func TestMultisnapshotReduction(t *testing.T) {
	p := Quick()
	pt := RunMultisnapshot(p, MultisnapshotConfig{Instances: 64})
	if pt.WriteRPCs != pt.ChunkPutRPCs+pt.MetaPutRPCs {
		t.Fatalf("write RPCs %.0f != chunk-put %.0f + meta-put %.0f", pt.WriteRPCs, pt.ChunkPutRPCs, pt.MetaPutRPCs)
	}
	if want := float64(pt.Instances * pt.Providers); pt.ChunkPutRPCs != want {
		t.Fatalf("chunk-put RPCs per round %.0f, want %.0f (one per provider per commit)", pt.ChunkPutRPCs, want)
	}
	if pt.ChunkWrites <= pt.ChunkPutRPCs {
		t.Fatalf("chunk writes %.0f not above chunk-put RPCs %.0f: nothing batched", pt.ChunkWrites, pt.ChunkPutRPCs)
	}
	if r := pt.Reduction(); r < 2 {
		t.Fatalf("write-RPC reduction %.2fx, want >= 2x", r)
	}
}
