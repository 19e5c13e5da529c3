// Package bench regenerates every table and figure of the paper's
// evaluation (§5) as Go benchmarks. Each benchmark runs the
// corresponding experiment on the simulated cluster and reports the
// figure's headline values as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints, for every panel of Fig. 4/5/6/7/8, the same quantities the
// paper plots. Benchmarks default to the scaled-down Quick parameter
// set so the full suite stays fast; the *PaperScale benchmarks run the
// flagship 110-instance configuration with the full 2 GB image.
package blobvfs_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"blobvfs"
	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/experiments"
	"blobvfs/internal/sim"
	"blobvfs/internal/sim/flownet"
	"blobvfs/internal/workloads"
)

func quickParams(maxInstances int) experiments.Params {
	p := experiments.Quick()
	p.MaxInstances = maxInstances
	return p
}

// BenchmarkFig4MultiDeployment regenerates Fig. 4(a), (b) and (d) at
// one sweep point per approach: average boot time, completion time and
// network traffic of a concurrent deployment.
func BenchmarkFig4MultiDeployment(b *testing.B) {
	const n = 16
	for _, a := range []experiments.Approach{
		experiments.TaktukPreprop, experiments.QcowOverPVFS, experiments.OurApproach,
	} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			p := quickParams(n)
			var last experiments.Fig4Result
			for i := 0; i < b.N; i++ {
				last = *experiments.RunFig4(p, []int{n})
			}
			pt := last.Series[a][0]
			b.ReportMetric(pt.AvgBoot, "avgBoot-s")
			b.ReportMetric(pt.Completion, "completion-s")
			b.ReportMetric(pt.TrafficGB*1e3, "traffic-MB")
		})
	}
}

// BenchmarkFig4PaperScale runs the flagship point of the paper's
// abstract: 110 concurrent instances, 2 GB image. The reported
// speedups are Fig. 4(c)'s rightmost values.
func BenchmarkFig4PaperScale(b *testing.B) {
	p := experiments.Default()
	var ours, qcow, prep experiments.Fig4Point
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4(p, []int{110})
		ours = r.Series[experiments.OurApproach][0]
		qcow = r.Series[experiments.QcowOverPVFS][0]
		prep = r.Series[experiments.TaktukPreprop][0]
	}
	b.ReportMetric(prep.Completion/ours.Completion, "speedup-vs-taktuk")
	b.ReportMetric(qcow.Completion/ours.Completion, "speedup-vs-qcow2")
	b.ReportMetric((1-ours.TrafficGB/prep.TrafficGB)*100, "traffic-reduction-%")
	b.ReportMetric(ours.Completion, "ours-completion-s")
}

// BenchmarkFig5MultiSnapshotting regenerates Fig. 5(a)/(b): the
// concurrent snapshot of all instances, ~15 MB of local modifications
// each (scaled down under Quick parameters).
func BenchmarkFig5MultiSnapshotting(b *testing.B) {
	const n = 16
	for _, a := range []experiments.Approach{
		experiments.QcowOverPVFS, experiments.OurApproach,
	} {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			p := quickParams(n)
			var last experiments.Fig5Result
			for i := 0; i < b.N; i++ {
				last = *experiments.RunFig5(p, []int{n})
			}
			pt := last.Series[a][0]
			b.ReportMetric(pt.AvgTime, "avgSnapshot-s")
			b.ReportMetric(pt.Completion, "completion-s")
		})
	}
}

// BenchmarkFig5PaperScale runs the 110-instance multisnapshotting
// point with full parameters (15 MB diffs).
func BenchmarkFig5PaperScale(b *testing.B) {
	p := experiments.Default()
	var ours, qcow experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig5(p, []int{110})
		ours = r.Series[experiments.OurApproach][0]
		qcow = r.Series[experiments.QcowOverPVFS][0]
	}
	b.ReportMetric(ours.AvgTime, "ours-avg-s")
	b.ReportMetric(qcow.AvgTime, "qcow2-avg-s")
	b.ReportMetric(ours.Completion, "ours-completion-s")
	b.ReportMetric(qcow.Completion, "qcow2-completion-s")
}

// BenchmarkFig6Bonnie regenerates Fig. 6: Bonnie++ sustained
// throughput through both local I/O paths (KB/s, 8 KB blocks).
func BenchmarkFig6Bonnie(b *testing.B) {
	var r *experiments.Fig67Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig67(workloads.DefaultBonnieConfig())
	}
	b.ReportMetric(float64(r.Local.BlockWriteKBps), "local-BlockW-KBps")
	b.ReportMetric(float64(r.Ours.BlockWriteKBps), "ours-BlockW-KBps")
	b.ReportMetric(float64(r.Local.BlockReadKBps), "local-BlockR-KBps")
	b.ReportMetric(float64(r.Ours.BlockReadKBps), "ours-BlockR-KBps")
	b.ReportMetric(float64(r.Local.BlockRewrKBps), "local-BlockO-KBps")
	b.ReportMetric(float64(r.Ours.BlockRewrKBps), "ours-BlockO-KBps")
}

// BenchmarkFig7BonnieOps regenerates Fig. 7: Bonnie++ metadata
// operations per second through both paths.
func BenchmarkFig7BonnieOps(b *testing.B) {
	var r *experiments.Fig67Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig67(workloads.DefaultBonnieConfig())
	}
	b.ReportMetric(float64(r.Local.SeeksPerSec), "local-RndSeek-ops")
	b.ReportMetric(float64(r.Ours.SeeksPerSec), "ours-RndSeek-ops")
	b.ReportMetric(float64(r.Local.CreatesPerSec), "local-CreatF-ops")
	b.ReportMetric(float64(r.Ours.CreatesPerSec), "ours-CreatF-ops")
	b.ReportMetric(float64(r.Local.DeletesPerSec), "local-DelF-ops")
	b.ReportMetric(float64(r.Ours.DeletesPerSec), "ours-DelF-ops")
}

// BenchmarkFig8MonteCarlo regenerates Fig. 8: completion time of the
// Monte Carlo deployment in the uninterrupted and suspend/resume
// settings (Quick parameters, 16 workers).
func BenchmarkFig8MonteCarlo(b *testing.B) {
	p := quickParams(16)
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig8(p, 16)
	}
	u := r.Completion[experiments.Uninterrupted]
	s := r.Completion[experiments.SuspendResume]
	b.ReportMetric(u[experiments.TaktukPreprop], "uninterrupted-preprop-s")
	b.ReportMetric(u[experiments.QcowOverPVFS], "uninterrupted-qcow2-s")
	b.ReportMetric(u[experiments.OurApproach], "uninterrupted-ours-s")
	b.ReportMetric(s[experiments.QcowOverPVFS], "resume-qcow2-s")
	b.ReportMetric(s[experiments.OurApproach], "resume-ours-s")
}

// BenchmarkFlashCrowd256 runs the flash-crowd scenario at the
// acceptance scale: 256 instances of the same image deployed
// concurrently against an 8-node provider pool, with the p2p
// chunk-sharing layer off and on. The headline metrics are where the
// chunk traffic landed — total provider reads, the hottest provider's
// reads (the hot-spot), and peer-served reads — plus the deployment
// completion time. With sharing enabled, per-provider traffic must be
// strictly lower: provider load stops scaling with the crowd.
func BenchmarkFlashCrowd256(b *testing.B) {
	for _, sharing := range []bool{false, true} {
		sharing := sharing
		name := "sharing-off"
		if sharing {
			name = "sharing-on"
		}
		b.Run(name, func(b *testing.B) {
			p := experiments.Quick()
			var pt experiments.CrowdPoint
			for i := 0; i < b.N; i++ {
				pt = experiments.RunCrowd(p, experiments.FlashCrowd(256, sharing))
			}
			b.ReportMetric(float64(pt.ProviderReads), "provider-reads")
			b.ReportMetric(float64(pt.MaxProviderReads), "hottest-provider-reads")
			b.ReportMetric(float64(pt.PeerReads), "peer-reads")
			b.ReportMetric(float64(pt.MetaGets), "meta-gets")
			b.ReportMetric(pt.Completion, "completion-s")
			b.ReportMetric(pt.TrafficGB*1e3, "traffic-MB")
		})
	}
}

// BenchmarkFlashCrowdScale sweeps the flash crowd across instance
// counts toward the ROADMAP's paper-scale ×100 target. Together with
// BenchmarkFlashCrowd10k it feeds the BENCH_scale.json trajectory:
// instances vs wall-clock ns/op and allocs/op, the curve that shows
// whether the simulator itself scales. Every point runs with p2p
// sharing on — the churn-heavy path — and fails the benchmark if any
// instance does not boot.
func BenchmarkFlashCrowdScale(b *testing.B) {
	for _, n := range []int{256, 1024} {
		n := n
		b.Run(fmt.Sprintf("inst-%d", n), func(b *testing.B) {
			benchFlashCrowdScale(b, n)
		})
	}
}

// BenchmarkFlashCrowd10k is the paper-scale ×100 point: a 10k-instance
// flash crowd against the same 8-provider pool. scripts/bench.sh runs
// it once at -cpu 1; it is skipped under -short.
func BenchmarkFlashCrowd10k(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping 10k flash crowd in -short mode")
	}
	benchFlashCrowdScale(b, 10000)
}

func benchFlashCrowdScale(b *testing.B, instances int) {
	p := experiments.Quick()
	var pt experiments.CrowdPoint
	for i := 0; i < b.N; i++ {
		pt = experiments.RunCrowd(p, experiments.FlashCrowd(instances, true))
		if pt.Booted != instances {
			b.Fatalf("only %d of %d instances booted", pt.Booted, instances)
		}
	}
	b.ReportMetric(float64(instances), "instances")
	b.ReportMetric(float64(pt.Booted), "booted")
	b.ReportMetric(float64(pt.Steps), "sim-steps")
	b.ReportMetric(pt.Completion, "completion-s")
	b.ReportMetric(float64(pt.ProviderReads), "provider-reads")
	b.ReportMetric(float64(pt.PeerReads), "peer-reads")
	b.ReportMetric(pt.TrafficGB*1e3, "traffic-MB")
}

// BenchmarkFlashCrowdDegraded reruns the 256-instance flash crowd
// while the fault plan kills half the (replicated) provider pool
// mid-deployment, against the healthy baseline of the same
// configuration. The headline metrics are the resilience costs: the
// completion-time penalty of losing 8 providers, how many reads failed
// over, and how many chunk copies re-replication recreated. Every
// instance must still complete — RunCrowd panics otherwise, failing
// the benchmark.
func BenchmarkFlashCrowdDegraded(b *testing.B) {
	for _, kill := range []int{0, 8} {
		kill := kill
		name := "healthy"
		if kill > 0 {
			name = "kill-8"
		}
		b.Run(name, func(b *testing.B) {
			p := experiments.Quick()
			var pt experiments.CrowdPoint
			for i := 0; i < b.N; i++ {
				pt = experiments.RunCrowd(p, experiments.Degraded(256, kill))
			}
			b.ReportMetric(float64(pt.Booted), "booted")
			b.ReportMetric(float64(pt.Failovers), "failovers")
			b.ReportMetric(float64(pt.Rereplicated), "re-replicated")
			b.ReportMetric(float64(pt.FailedFetches), "failed-fetches")
			b.ReportMetric(float64(pt.PeerReads), "peer-reads")
			b.ReportMetric(pt.Completion, "completion-s")
		})
	}
}

// BenchmarkFlashCrowdCrossZone runs the flash crowd over a zoned
// fabric: 3 availability zones × 64 instances deploying one image from
// a provider pool with 3 members per zone (p2p sharing on), with the
// flat policy vs topology-aware placement and peer selection
// (WithTopology) over the identical physical fabric. The headline
// metric is the traffic that crossed a zone interconnect — the scarce,
// expensive bytes — which awareness must cut by at least 2×; the guard
// fails the benchmark if it ever regresses below that.
func BenchmarkFlashCrowdCrossZone(b *testing.B) {
	const perZone = 64
	var flatBytes, awareBytes int64 // traffic across zone interconnects
	for _, aware := range []bool{false, true} {
		aware := aware
		name := "flat"
		if aware {
			name = "aware"
		}
		b.Run(name, func(b *testing.B) {
			var pt experiments.CrowdPoint
			for i := 0; i < b.N; i++ {
				pt = experiments.RunCrowd(experiments.Quick(), experiments.CrossZone(perZone, aware, true))
			}
			crossZone := pt.TierBytes[cluster.TierRemote]
			if aware {
				awareBytes = crossZone
			} else {
				flatBytes = crossZone
			}
			b.ReportMetric(float64(crossZone)/1e6, "cross-zone-MB")
			b.ReportMetric(float64(pt.TierBytes[cluster.TierZone])/1e6, "zone-local-MB")
			b.ReportMetric(float64(pt.ProviderReads), "provider-reads")
			b.ReportMetric(float64(pt.PeerReads), "peer-reads")
			b.ReportMetric(pt.Completion, "completion-s")
		})
	}
	if flatBytes > 0 && awareBytes > 0 {
		ratio := float64(flatBytes) / float64(awareBytes)
		b.ReportMetric(ratio, "cross-zone-reduction-x")
		if ratio < 2 {
			b.Fatalf("topology awareness cut cross-zone bytes only %.2fx (flat %d, aware %d), want >= 2x",
				ratio, flatBytes, awareBytes)
		}
	}
}

// BenchmarkFlashCrowdMetaOutage runs the metadata-outage scenario at
// acceptance scale over five seeds: per seed, a 256-instance flash
// crowd (p2p sharing on) with metadata replication degree 2, healthy
// vs an outage that kills half of the 16 metadata providers plus one
// full compute rack mid-run. One seed's completion time is chaotic in
// the crowd's details, so the claim is the paired per-seed completion
// delta (outage minus healthy), reported as its median, min and max,
// next to the median metadata failovers and re-replicated tree nodes
// the outage forces. Every instance must boot and no metadata descent
// may fail, in both arms of every seed.
func BenchmarkFlashCrowdMetaOutage(b *testing.B) {
	const instances, seeds = 256, 5
	var deltas, healthyS, outageS, failovers, rerepl []float64
	for i := 0; i < b.N; i++ {
		deltas, healthyS, outageS, failovers, rerepl = nil, nil, nil, nil, nil
		for s := range int64(seeds) {
			p := experiments.Quick()
			p.Seed += s
			healthy := experiments.RunCrowd(p, experiments.MetaOutage(instances, 0, false))
			hit := experiments.RunCrowd(p, experiments.MetaOutage(instances, 8, true))
			for _, pt := range []experiments.CrowdPoint{healthy, hit} {
				if pt.Booted != pt.Instances {
					b.Fatalf("seed %d, kill %d: %d of %d instances booted", p.Seed, pt.Kill, pt.Booted, pt.Instances)
				}
				if pt.FailedDescents != 0 {
					b.Fatalf("seed %d, kill %d: %d metadata descents found no live replica, want 0", p.Seed, pt.Kill, pt.FailedDescents)
				}
			}
			if hit.MetaFailovers == 0 {
				b.Fatalf("seed %d: the outage run exercised no metadata failover", p.Seed)
			}
			deltas = append(deltas, hit.Completion-healthy.Completion)
			healthyS = append(healthyS, healthy.Completion)
			outageS = append(outageS, hit.Completion)
			failovers = append(failovers, float64(hit.MetaFailovers))
			rerepl = append(rerepl, float64(hit.MetaRereplicated))
		}
	}
	slices.Sort(deltas)
	b.ReportMetric(seeds, "seeds")
	b.ReportMetric(median(deltas), "completion-delta-median-s")
	b.ReportMetric(deltas[0], "completion-delta-min-s")
	b.ReportMetric(deltas[len(deltas)-1], "completion-delta-max-s")
	b.ReportMetric(median(healthyS), "healthy-completion-median-s")
	b.ReportMetric(median(outageS), "outage-completion-median-s")
	b.ReportMetric(median(failovers), "meta-failovers-median")
	b.ReportMetric(median(rerepl), "meta-re-replicated-median")
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// BenchmarkMultisnapshot1024 runs the paper's headline workload at
// full fan-out: 1024 instances each committing a 16 MB diff (64 dirty
// chunks) concurrently against a 4-node provider pool, over two rounds
// (CLONE+COMMIT, then COMMIT). The headline metric is provider write
// RPCs per commit round — chunk-put plus metadata-put RPCs — against
// the per-chunk write RPCs the same round would cost without batching
// (one per chunk write plus the metadata puts). Batching must cut them
// by at least 4×; the guard fails the benchmark if it ever regresses
// below that.
func BenchmarkMultisnapshot1024(b *testing.B) {
	var pt experiments.MultisnapshotPoint
	for i := 0; i < b.N; i++ {
		pt = experiments.RunMultisnapshot(experiments.Quick(), experiments.MultisnapshotConfig{
			Instances: 1024,
			Providers: 4,
			DiffBytes: 16 << 20, // 64 dirty chunks of 256 KB per instance per round
		})
	}
	b.ReportMetric(pt.WriteRPCs, "write-RPCs/round")
	b.ReportMetric(pt.ChunkWrites+pt.MetaPutRPCs, "per-chunk-write-RPCs/round")
	b.ReportMetric(pt.ChunkPutRPCs, "chunk-put-RPCs/round")
	b.ReportMetric(pt.MetaPutRPCs, "meta-put-RPCs/round")
	b.ReportMetric(pt.ChunkWrites, "chunk-writes/round")
	b.ReportMetric(pt.Completion, "completion-s")
	b.ReportMetric(pt.Reduction(), "write-RPC-reduction-x")
	if r := pt.Reduction(); r < 4 {
		b.Fatalf("batched commit cut write RPCs only %.2fx (per-chunk %.0f, batched %.0f per round), want >= 4x",
			r, pt.ChunkWrites+pt.MetaPutRPCs, pt.WriteRPCs)
	}
}

// BenchmarkChurn runs the snapshot-lifecycle scenario at acceptance
// scale: 32 instances, 8 write→snapshot cycles under keep-last-2
// retention with garbage collection after every round. The headline
// metrics are the reclaimed-chunk count (must be positive — the
// lifecycle works) and the peak/final provider chunk counts (final ≈
// peak — storage is bounded; without retention it grows every cycle).
func BenchmarkChurn(b *testing.B) {
	p := experiments.Quick()
	var pt experiments.ChurnPoint
	for i := 0; i < b.N; i++ {
		pt = experiments.RunChurn(p, experiments.ChurnConfig{
			Instances: 32,
			Cycles:    8,
			KeepLast:  2,
		})
	}
	b.ReportMetric(float64(pt.ReclaimedChunks), "reclaimed-chunks")
	b.ReportMetric(float64(pt.ReclaimedBytes)/1e6, "reclaimed-MB")
	b.ReportMetric(float64(pt.PeakChunks), "peak-chunks")
	b.ReportMetric(float64(pt.FinalChunks), "final-chunks")
	b.ReportMetric(float64(pt.FreedNodes), "freed-meta-nodes")
	b.ReportMetric(pt.Completion, "completion-s")
}

// BenchmarkExportImport runs the differential-sync scenario: a base
// image shipped once in full, then four commit rounds each shipped as
// a delta archive to a downstream repository on a disjoint provider
// pool. The headline is the reduction factor — how many times smaller
// the average delta is than re-shipping the full image — gated at 5x:
// if deltas stop being deltas, the subsystem lost its point.
func BenchmarkExportImport(b *testing.B) {
	p := experiments.Quick()
	var pt experiments.SyncPoint
	for i := 0; i < b.N; i++ {
		pt = experiments.RunSync(p, experiments.SyncConfig{})
	}
	b.ReportMetric(pt.AvgDeltaMB, "delta-MB")
	b.ReportMetric(pt.FullMB, "full-MB")
	b.ReportMetric(pt.Reduction, "reduction-x")
	b.ReportMetric(float64(pt.ShippedChunks), "shipped-chunks")
	b.ReportMetric(float64(pt.DedupedChunks), "deduped-chunks")
	if pt.Reduction < 5 {
		b.Fatalf("delta sync shipped only %.2fx less than full re-ships (full %.2f MB, avg delta %.2f MB), want >= 5x",
			pt.Reduction, pt.FullMB, pt.AvgDeltaMB)
	}
}

// BenchmarkExportImportLive measures the sync codec's host throughput
// on the live fabric through the public API: a 32 MB image of real
// (incompressible, dedup-distinct) bytes plus one delta of 16 scattered
// 32 KB patches, exported from a dedup repository and imported into a
// fresh dedup repository on disjoint providers every iteration. Bytes
// per op are the two archives' lengths, so MB/s is archive bytes
// encoded, decoded, verified and stored per second.
func BenchmarkExportImportLive(b *testing.B) {
	const (
		image = 32 << 20
		chunk = 256 << 10
		patch = 32 << 10
	)
	fab := blobvfs.NewLiveCluster(10)
	open := func(first int, uuid uint64) *blobvfs.Repo {
		r, err := blobvfs.Open(fab,
			blobvfs.WithProviders(blobvfs.NodeID(first), blobvfs.NodeID(first+1), blobvfs.NodeID(first+2), blobvfs.NodeID(first+3)),
			blobvfs.WithManager(blobvfs.NodeID(first+4)),
			blobvfs.WithChunkSize(chunk), blobvfs.WithDedup(), blobvfs.WithSyncUUID(uuid))
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	up := open(0, 0xA)
	rng := rand.New(rand.NewPCG(42, 7))
	want := make([]byte, image)
	for i := range want {
		want[i] = byte(rng.Uint32())
	}
	var id blobvfs.ImageID
	fab.Run(func(ctx *blobvfs.Ctx) {
		base, err := up.Create(ctx, "", want)
		if err != nil {
			b.Fatal(err)
		}
		id = base.Image
		disk, err := up.OpenDisk(ctx, ctx.Node(), base)
		if err != nil {
			b.Fatal(err)
		}
		for k := range 16 {
			p := make([]byte, patch)
			for i := range p {
				p[i] = byte(rng.Uint32())
			}
			off := int64(k) * (image / 16)
			if _, err := disk.WriteAt(ctx, p, off); err != nil {
				b.Fatal(err)
			}
			copy(want[off:], p)
		}
		if _, err := disk.Commit(ctx); err != nil {
			b.Fatal(err)
		}
		if err := disk.Close(ctx); err != nil {
			b.Fatal(err)
		}
	})

	// ship exports the full archive (0,1] and the delta (1,2] and
	// imports both into a fresh repository; it returns the repository
	// and the archive bytes shipped.
	var archive bytes.Buffer
	ship := func() (*blobvfs.Repo, blobvfs.ImageID, int64) {
		down := open(5, 0xB)
		var local blobvfs.ImageID
		var shipped int64
		fab.Run(func(ctx *blobvfs.Ctx) {
			for from := range blobvfs.Version(2) {
				archive.Reset()
				if _, err := up.Export(ctx, &archive, id, from, from+1); err != nil {
					b.Fatal(err)
				}
				shipped += int64(archive.Len())
				st, err := down.Import(ctx, bytes.NewReader(archive.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				local = st.Image
			}
		})
		return down, local, shipped
	}
	_, _, shipped := ship()
	b.SetBytes(shipped)
	b.ReportAllocs()
	b.ResetTimer()
	var down *blobvfs.Repo
	var local blobvfs.ImageID
	for i := 0; i < b.N; i++ {
		down, local, _ = ship()
	}
	b.StopTimer()

	got := make([]byte, image)
	fab.Run(func(ctx *blobvfs.Ctx) {
		if err := down.Download(ctx, blobvfs.Snapshot{Image: local, Version: 2}, got); err != nil {
			b.Fatal(err)
		}
	})
	if !bytes.Equal(got, want) {
		b.Fatal("imported image differs from the exported one")
	}
}

// BenchmarkCommitDataStructures measures the in-memory cost of the
// COMMIT primitive itself (no simulation): shadowing a 2 GB image's
// segment tree (8192 chunks) with a 60-chunk diff on a live fabric —
// the pure-algorithm core behind Fig. 3 and Fig. 5.
func BenchmarkCommitDataStructures(b *testing.B) {
	fab := cluster.NewLive(8)
	sys := blob.NewSystem([]cluster.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, 0, 1)
	var id blob.ID
	var v blob.Version
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		var err error
		id, err = c.Create(ctx, 2<<30, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		v, err = c.WriteFull(ctx, id, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		for i := 0; i < b.N; i++ {
			// Each iteration derives its write set from an RNG seeded
			// with a constant plus the iteration index, so any -benchtime
			// (1x included) produces the identical op sequence on every
			// machine — the reported metadata-nodes/op is comparable
			// across runs and hosts.
			rng := sim.NewRNG(9000 + int64(i))
			seen := map[int64]bool{}
			writes := make([]blob.ChunkWrite, 0, 60)
			for len(writes) < 60 {
				idx := rng.Int63n(8192)
				if seen[idx] {
					continue
				}
				seen[idx] = true
				writes = append(writes, blob.ChunkWrite{
					Index:   idx,
					Payload: blob.SyntheticPayload(256<<10, uint64(i)+1),
				})
			}
			nv, err := c.WriteChunks(ctx, id, v, writes)
			if err != nil {
				b.Fatal(err)
			}
			v = nv
		}
	})
	b.ReportMetric(float64(sys.Meta.NodeCount())/float64(b.N), "metadata-nodes/op")
}

// BenchmarkMetadataHotPath measures the client's warm metadata read
// path under real goroutine parallelism (run with -cpu 1,8 to see the
// contention win of the sharded caches): concurrent FetchChunks over a
// fully cached snapshot of a 2 GB image resolve their leaf sets from
// the extent cache with no RPCs — the pure lock/lookup cost the 16-way
// chunk fetchers of every mirroring module pay on every read.
func BenchmarkMetadataHotPath(b *testing.B) {
	fab := cluster.NewLive(8)
	sys := blob.NewSystem([]cluster.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, 0, 1)
	var id blob.ID
	var v blob.Version
	c := blob.NewClient(sys)
	fab.Run(func(ctx *cluster.Ctx) {
		var err error
		id, err = c.Create(ctx, 2<<30, 256<<10) // 8192 chunks
		if err != nil {
			b.Fatal(err)
		}
		v, err = c.WriteFull(ctx, id, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.PrefetchExtents(ctx, id, v); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each parallel worker drives the shared client from its own
		// live fabric (fabrics are stateless execution scaffolding; the
		// system and client are what is contended).
		wfab := cluster.NewLive(8)
		wfab.Run(func(ctx *cluster.Ctx) {
			var lo int64
			for pb.Next() {
				hi := lo + 8
				if _, err := c.FetchChunks(ctx, id, v, lo, hi); err != nil {
					b.Error(err)
					return
				}
				lo = (lo + 127) % (8192 - 8)
			}
		})
	})
}

// BenchmarkMetadataColdDescent measures a cold client's first
// resolution of a whole 2 GB image — the open-time prefetch path: one
// level-order batched descent over 16383 tree nodes.
func BenchmarkMetadataColdDescent(b *testing.B) {
	fab := cluster.NewLive(8)
	sys := blob.NewSystem([]cluster.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, 0, 1)
	var id blob.ID
	var v blob.Version
	fab.Run(func(ctx *cluster.Ctx) {
		c := blob.NewClient(sys)
		var err error
		id, err = c.Create(ctx, 2<<30, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		v, err = c.WriteFull(ctx, id, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.Run(func(ctx *cluster.Ctx) {
			c := blob.NewClient(sys)
			if err := c.PrefetchExtents(ctx, id, v); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.ReportMetric(float64(sys.Meta.Gets.Load())/float64(b.N), "meta-gets/op")
}

// BenchmarkMaxMinRecompute measures the flow network's rate
// recomputation under a boot-storm-sized flow set — the hot path of
// the large simulations.
func BenchmarkMaxMinRecompute(b *testing.B) {
	env := sim.New()
	net := flownet.New(env)
	up := make([]*flownet.Link, 111)
	down := make([]*flownet.Link, 111)
	for i := range up {
		up[i] = net.NewLink("up", 117.5e6)
		down[i] = net.NewLink("down", 117.5e6)
	}
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 110; i++ {
			net.Start(1e12, up[i%111], down[(i*37+1)%111])
		}
	})
	env.RunUntil(0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each Start triggers one incremental recomputation: only the
		// flows sharing a connected link component with the new flow
		// (of the ~110 active) have their max-min rates refilled.
		f := net.Start(1e12, up[i%111], down[(i*53+7)%111])
		_ = f
	}
}

// BenchmarkAblationChunkSize sweeps the chunk-size trade-off of
// §3.1.3: too-small chunks pay request overhead, too-large chunks pay
// false sharing and wasted transfer. The default 256 KB sits at the
// knee.
func BenchmarkAblationChunkSize(b *testing.B) {
	p := quickParams(16)
	var pts []experiments.ChunkSizePoint
	for i := 0; i < b.N; i++ {
		pts = experiments.RunChunkSizeAblation(p, 16, []int{16 << 10, 256 << 10, 4 << 20})
	}
	b.ReportMetric(pts[0].Completion, "16K-completion-s")
	b.ReportMetric(pts[1].Completion, "256K-completion-s")
	b.ReportMetric(pts[2].Completion, "4M-completion-s")
	b.ReportMetric(pts[2].TrafficGB*1e3, "4M-traffic-MB")
	b.ReportMetric(pts[1].TrafficGB*1e3, "256K-traffic-MB")
}

// BenchmarkAblationReplication sweeps the replication degree of
// §3.1.3: storage cost doubles per extra replica while deployment
// completion stays in the same ballpark (reads use one replica).
func BenchmarkAblationReplication(b *testing.B) {
	p := quickParams(8)
	var pts []experiments.ReplicationPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.RunReplicationAblation(p, 8, []int{1, 2, 3})
	}
	b.ReportMetric(pts[0].StorageGB*1e3, "r1-storage-MB")
	b.ReportMetric(pts[1].StorageGB*1e3, "r2-storage-MB")
	b.ReportMetric(pts[2].StorageGB*1e3, "r3-storage-MB")
	b.ReportMetric(pts[0].Completion, "r1-completion-s")
	b.ReportMetric(pts[2].Completion, "r3-completion-s")
}
