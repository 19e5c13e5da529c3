package experiments

import (
	"testing"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
)

// herdCommit provisions n instances over a dedicated provider pool,
// dirties each with one round of §5.3 writes, and commits them all
// concurrently (first snapshot, so CLONE+COMMIT). It returns the pool
// for counter inspection.
func herdCommit(t *testing.T, p Params, instances, providers int, batched bool) *crowdPool {
	t.Helper()
	var extra []blobvfs.Option
	if batched {
		extra = append(extra, blobvfs.WithBatchedCommit())
	}
	sp := newPool(p, flatLayout(instances, providers), extra...)
	sp.Orch.Pipeline = batched
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
	})
	return sp
}

// TestHerdCommitPerProviderRPCs pins the write-side RPC accounting of a
// 64-instance concurrent commit round against a 4-node provider pool.
// Batched: every instance pays exactly one chunk-put RPC per provider
// it stores on — with a diff spanning the whole ring, that is one RPC
// per provider per instance, evenly spread. Unbatched: one RPC per
// chunk write. Metadata puts are already batched (one per provider per
// PutBatch) and must be identical in both arms.
func TestHerdCommitPerProviderRPCs(t *testing.T) {
	p := Quick()
	const instances, providers = 64, 4

	plain := herdCommit(t, p, instances, providers, false)
	batched := herdCommit(t, p, instances, providers, true)

	// Unbatched: exactly one provider RPC per logical chunk write.
	plainWrites := plain.Sys.Providers.Writes.Load()
	plainPuts := plain.Sys.Providers.PutRPCs.Load()
	if plainPuts != plainWrites {
		t.Fatalf("unbatched: %d put RPCs for %d chunk writes, want equal", plainPuts, plainWrites)
	}

	// Both arms commit the identical content: same chunk writes, same
	// metadata put RPCs (the metadata path was already batched).
	if bw := batched.Sys.Providers.Writes.Load(); bw != plainWrites {
		t.Fatalf("batched committed %d chunk writes, unbatched %d", bw, plainWrites)
	}
	if bm, pm := batched.Sys.Meta.Puts.Load(), plain.Sys.Meta.Puts.Load(); bm != pm {
		t.Fatalf("meta-put RPCs diverged: batched %d, unbatched %d", bm, pm)
	}

	// Batched: one chunk-put RPC per provider per commit (the base
	// upload, before any instance, is also one batch → one RPC per
	// provider). Each instance's diff spans every ring member, so the
	// per-provider counts are exactly commits+1 each.
	per := batched.Sys.Providers.NodePutRPCs()
	if len(per) != providers {
		t.Fatalf("batched puts landed on %d providers, want %d", len(per), providers)
	}
	var total int64
	for node, n := range per {
		if n != instances+1 {
			t.Fatalf("provider %d served %d put RPCs, want %d (one per commit plus the base upload)", node, n, instances+1)
		}
		total += n
	}
	if got := batched.Sys.Providers.PutRPCs.Load(); got != total {
		t.Fatalf("PutRPCs total %d != per-provider sum %d", got, total)
	}

	// The headline: the batched arm's chunk-put RPCs collapse from one
	// per chunk to one per provider per commit.
	if batchedPuts := batched.Sys.Providers.PutRPCs.Load(); batchedPuts*2 >= plainPuts {
		t.Fatalf("batching saved too little: %d vs %d put RPCs", batchedPuts, plainPuts)
	}
}

// TestMultisnapshotBatchedArmsAgree runs the scenario end to end and
// checks the two arms publish identical logical content (same chunk
// writes per round) while the batched arm cuts write RPCs.
func TestMultisnapshotBatchedArmsAgree(t *testing.T) {
	p := Quick()
	cfg := MultisnapshotConfig{Instances: 16, Providers: 4, Rounds: 2}
	plain := RunMultisnapshot(p, cfg)
	cfg.Batched = true
	batched := RunMultisnapshot(p, cfg)

	if plain.ChunkWrites != batched.ChunkWrites {
		t.Fatalf("chunk writes diverged: unbatched %.0f, batched %.0f", plain.ChunkWrites, batched.ChunkWrites)
	}
	if plain.MetaPutRPCs != batched.MetaPutRPCs {
		t.Fatalf("meta-put RPCs diverged: unbatched %.0f, batched %.0f", plain.MetaPutRPCs, batched.MetaPutRPCs)
	}
	if plain.ChunkPutRPCs != plain.ChunkWrites {
		t.Fatalf("unbatched chunk-put RPCs %.0f != chunk writes %.0f", plain.ChunkPutRPCs, plain.ChunkWrites)
	}
	if batched.WriteRPCs >= plain.WriteRPCs {
		t.Fatalf("batched write RPCs %.0f not below unbatched %.0f", batched.WriteRPCs, plain.WriteRPCs)
	}
}
