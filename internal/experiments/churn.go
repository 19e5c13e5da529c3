package experiments

import (
	"fmt"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
)

// This file implements the churn scenario: the long-running cloud of
// the paper's "going back and forth" workflow (§3.2), where every
// instance snapshots again and again. Without a lifecycle, each cycle
// adds the diff's chunks and metadata forever — storage grows without
// bound. With keep-last-K retention plus the snapshot garbage
// collector (internal/blob/gc.go), old versions are retired after each
// round and the chunks only they referenced are reclaimed, so the
// provider pool's footprint plateaus no matter how long the cloud
// runs. The scenario exists to demonstrate exactly that bound.

// ChurnConfig parameterizes one churn run.
type ChurnConfig struct {
	// Instances is the deployment fan-out.
	Instances int
	// Cycles is how many write→snapshot→retire→collect rounds run.
	Cycles int
	// KeepLast is the retention window per instance (≥1). 0 disables
	// retention and GC, showing the unbounded baseline.
	KeepLast int
	// Providers is the dedicated provider pool size (default 8).
	Providers int
	// Sharing toggles the p2p chunk-sharing layer; reclaimed chunks are
	// then also retracted from the cohort's location maps.
	Sharing bool
	// DiffBytes is the per-instance local modification size per cycle
	// (default Params.SnapshotDiff).
	DiffBytes int64
	// HotBytes confines each cycle's writes to the first HotBytes of
	// the image (default 4×DiffBytes): a VM's churn concentrates on a
	// working set — logs, spool, configuration — that is rewritten
	// cycle after cycle, which is exactly what makes old snapshots'
	// chunks unreachable and reclaimable. 0 < HotBytes ≤ image size.
	HotBytes int64
}

// ChurnCycle samples the storage footprint after one cycle's
// snapshot + retention + collection.
type ChurnCycle struct {
	Cycle     int
	Chunks    int     // chunk payloads stored after the cycle
	StoredMB  float64 // payload MB stored (one copy per chunk)
	MetaNodes int     // segment-tree nodes stored
	Reclaimed int64   // cumulative chunk payloads reclaimed so far
	Retired   int     // versions retired this cycle
}

// ChurnPoint reports one churn run.
type ChurnPoint struct {
	Instances int
	Cycles    int
	KeepLast  int
	Sharing   bool

	PeakChunks      int   // highest post-cycle chunk count
	FinalChunks     int   // chunk count after the last cycle
	ReclaimedChunks int64 // chunk payloads physically freed in total
	ReclaimedBytes  int64
	FreedNodes      int64   // tree nodes swept in total
	RetiredVersions int     // versions retired in total
	Completion      float64 // virtual time of the whole churn (s)

	PerCycle []ChurnCycle
}

// RunChurn deploys cc.Instances instances against a dedicated
// cc.Providers-node pool, then runs cc.Cycles rounds of local
// modifications + concurrent snapshots under the keep-last-K retention
// policy, collecting garbage after every round. The image upload is
// excluded from the measurements, as in the other experiments.
func RunChurn(p Params, cc ChurnConfig) ChurnPoint {
	if cc.Instances < 1 {
		panic("experiments: churn needs at least one instance")
	}
	if cc.Cycles < 1 {
		panic("experiments: churn needs at least one cycle")
	}
	if cc.Providers <= 0 {
		cc.Providers = 8
	}
	if cc.DiffBytes <= 0 {
		cc.DiffBytes = p.SnapshotDiff
	}
	if cc.HotBytes <= 0 {
		cc.HotBytes = 4 * cc.DiffBytes
	}
	if cc.HotBytes > p.ImageSize {
		cc.HotBytes = p.ImageSize
	}

	var opts []blobvfs.Option
	if cc.Sharing {
		opts = append(opts, blobvfs.WithP2P())
	}
	sp := newPool(p, flatLayout(cc.Instances, cc.Providers), opts...)
	sys := sp.Sys
	if cc.KeepLast > 0 {
		sp.Orch.Retention = middleware.RetentionPolicy{KeepLast: cc.KeepLast}
		// The repo's collector retracts reclaimed chunks from the
		// sharing cohorts when p2p is on.
		sp.Orch.Collector = sp.Repo.Collector()
	}

	pt := ChurnPoint{
		Instances: cc.Instances,
		Cycles:    cc.Cycles,
		KeepLast:  cc.KeepLast,
		Sharing:   cc.Sharing,
	}
	sample := func(cycle, retired int) {
		s := ChurnCycle{
			Cycle:     cycle,
			Chunks:    sys.Providers.ChunkCount(),
			StoredMB:  float64(sys.Providers.StoredBytes()) / (1 << 20),
			MetaNodes: sys.Meta.NodeCount(),
			Reclaimed: sys.Providers.Reclaimed.Load(),
			Retired:   retired,
		}
		pt.PerCycle = append(pt.PerCycle, s)
		if s.Chunks > pt.PeakChunks {
			pt.PeakChunks = s.Chunks
		}
	}

	wrRNG := sim.NewRNG(p.Seed + 7)
	sp.Fab.Run(func(ctx *cluster.Ctx) {
		dep, err := sp.Orch.Deploy(ctx)
		if err != nil {
			panic(err)
		}
		sample(0, 0)
		for cycle := 1; cycle <= cc.Cycles; cycle++ {
			err := sp.Orch.RunOnAll(ctx, dep.Instances, func(icc *cluster.Ctx, inst *middleware.Instance) error {
				return SnapshotWritesIn(icc, inst.Disk, cc.DiffBytes, int64(p.ChunkSize), cc.HotBytes, wrRNG.Fork())
			})
			if err != nil {
				panic(err)
			}
			snap, err := sp.Orch.SnapshotAll(ctx, dep.Instances)
			if err != nil {
				panic(err)
			}
			pt.RetiredVersions += snap.Retired
			sample(cycle, snap.Retired)
		}
		pt.Completion = ctx.Now()
	})

	pt.FinalChunks = sys.Providers.ChunkCount()
	pt.ReclaimedChunks = sys.Providers.Reclaimed.Load()
	pt.ReclaimedBytes = sys.Providers.ReclaimedBytes.Load()
	pt.FreedNodes = sys.Meta.Freed.Load()
	return pt
}

// ChurnTable renders a churn run as a per-cycle footprint trace.
func ChurnTable(pt ChurnPoint) *metrics.Table {
	title := fmt.Sprintf(
		"Churn: %d instances × %d snapshot cycles, keep-last-%d retention (p2p sharing %s)",
		pt.Instances, pt.Cycles, pt.KeepLast, onOff(pt.Sharing))
	if pt.KeepLast == 0 {
		title = fmt.Sprintf(
			"Churn: %d instances × %d snapshot cycles, no retention (unbounded baseline)",
			pt.Instances, pt.Cycles)
	}
	t := &metrics.Table{
		Title: title,
		Columns: []string{
			"cycle", "live chunks", "stored (MB)", "meta nodes",
			"reclaimed chunks (cum)", "retired versions",
		},
	}
	for _, s := range pt.PerCycle {
		t.AddRow(
			itoa(s.Cycle),
			itoa(s.Chunks),
			ftoa(s.StoredMB),
			itoa(s.MetaNodes),
			i64toa(s.Reclaimed),
			itoa(s.Retired),
		)
	}
	return t
}
