package main

import (
	"fmt"
	"slices"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
	"blobvfs/internal/vmmodel"
)

// runSnapHerd is the snapherd1k workload: 1024 instances provisioned
// from one image each write a 16 MB diff, then the whole herd snapshots
// at once (multisnapshotting, §5.3), twice: CLONE+COMMIT, then COMMIT.
// It runs the batched commit path with sharing off, so the mirror and
// blob layers work on writes and the p2p layer is idle.
func runSnapHerd(r *run) {
	const (
		instances, providers, rounds = 1024, 4, 2
		diff                         = 16 << 20
	)
	p, err := newPool(r.seed, instances, providers, blobvfs.WithBatchedCommit())
	if err != nil {
		r.check(err)
		return
	}
	p.orch.Pipeline = true
	c0 := p.counters()

	insts := make([]*middleware.Instance, instances)
	provision := make([]float64, instances)
	errs := make([]error, instances)
	// dirty[round][i] counts the distinct chunks instance i dirtied.
	dirty := make([][]int, rounds)
	writes := make([]int64, rounds) // logical chunk writes each round published
	published := make([][]blobvfs.Snapshot, rounds)
	var snap *middleware.SnapshotResult

	if !r.begin() {
		return
	}
	p.fab.Run(func(ctx *cluster.Ctx) {
		tasks := make([]cluster.Task, 0, instances)
		for i, node := range p.nodes {
			tasks = append(tasks, ctx.Go("provision", node, func(cc *cluster.Ctx) {
				t0 := cc.Now()
				disk, err := p.backend.Provision(cc, i, node)
				provision[i] = cc.Now() - t0
				errs[i] = err
				insts[i] = &middleware.Instance{Index: i, Node: node, Disk: disk}
			}))
		}
		ctx.WaitAll(tasks)
		if err = firstErr(errs); err != nil {
			return
		}
		wrRNG := sim.NewRNG(r.seed + 7)
		for round := range rounds {
			dirty[round] = make([]int, instances)
			tasks = tasks[:0]
			for i, inst := range insts {
				rng := wrRNG.Fork()
				tasks = append(tasks, ctx.Go("dirty", inst.Node, func(cc *cluster.Ctx) {
					dirty[round][i], errs[i] = writeDiff(cc, inst.Disk, diff, rng)
				}))
			}
			ctx.WaitAll(tasks)
			if err = firstErr(errs); err != nil {
				return
			}
			w0 := p.repo.System().Providers.Writes.Load()
			if snap, err = p.orch.SnapshotAll(ctx, insts); err != nil {
				return
			}
			writes[round] = p.repo.System().Providers.Writes.Load() - w0
			for _, inst := range insts {
				published[round] = append(published[round], inst.Disk.(*blobvfs.Disk).Current())
			}
		}
	})
	r.end()
	if err != nil {
		r.checkN(instances*rounds, fmt.Errorf("snapshot herd: %w", err))
		return
	}

	p.record(r, c0)
	d := r.s.det
	if n := d["sim.procs_left"]; n != 0 {
		r.check(fmt.Errorf("%v simulator processes never finished", n))
	}
	d["e2e.completion_s"] = snap.Completion
	d["e2e.snapshot_p50_s"] = quantile(snap.Times, 0.5)
	d["e2e.snapshot_p99_s"] = quantile(snap.Times, 0.99)
	d["middleware.provision_p50_s"] = quantile(provision, 0.5)
	disks := make([]vmmodel.VirtualDisk, instances)
	for i, inst := range insts {
		disks[i] = inst.Disk
	}
	recordDisks(r, disks)

	// Every round publishes exactly the chunks the herd dirtied, and
	// every published snapshot resolves to a live version of its image.
	for round := range rounds {
		want := 0
		for _, n := range dirty[round] {
			want += n
		}
		if writes[round] != int64(want) {
			r.check(fmt.Errorf("round %d published %d chunk writes for %d dirty chunks", round+1, writes[round], want))
		} else {
			r.check(nil)
		}
	}
	p.fab.Run(func(ctx *cluster.Ctx) {
		for round := range rounds {
			for i, s := range published[round] {
				vs, err := p.repo.Versions(ctx, s.Image)
				if err == nil && !slices.Contains(vs, s.Version) {
					err = fmt.Errorf("version %d not live (live: %v)", s.Version, vs)
				}
				if err != nil {
					err = fmt.Errorf("round %d instance %d snapshot %d@%d: %w", round+1, i, s.Image, s.Version, err)
				}
				r.check(err)
			}
		}
	})
}

// writeDiff applies the §5.3 local-modification pattern: diff bytes in
// chunk-sized, chunk-aligned bursts at random spots. It returns how many
// distinct chunks it dirtied.
func writeDiff(ctx *cluster.Ctx, disk vmmodel.VirtualDisk, diff int64, rng *sim.RNG) (int, error) {
	slots := disk.Size() / chunkSize
	seen := map[int64]bool{}
	for written := int64(0); written < diff; written += chunkSize {
		slot := rng.Int63n(slots)
		seen[slot] = true
		if err := disk.Write(ctx, slot*chunkSize, min(chunkSize, diff-written)); err != nil {
			return len(seen), err
		}
	}
	return len(seen), nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
