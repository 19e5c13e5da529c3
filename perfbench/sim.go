package main

import (
	"fmt"

	"blobvfs"
	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/sim"
	"blobvfs/internal/vmmodel"
)

// The simulated workloads use the repository's quick evaluation
// parameters (a 256 MB image of 256 KB chunks, a 16 MB boot footprint),
// fixed here so that the benchmark owns its inputs.
const (
	imageSize   = 256 << 20
	chunkSize   = 256 << 10
	writeBuffer = 4 << 20 // per-provider write-back buffer
	jitterMin   = 0.1     // hypervisor launch skew, seconds
	jitterMax   = 0.6
	// bootSeed generates the boot footprint every instance replays. The
	// footprint belongs to the OS image, so it is part of the workload,
	// not of the run seed; seed 42 reproduces the repository's quick
	// evaluation setup. The run seed drives each instance's think-time
	// jitter and launch skew.
	bootSeed = 42
)

var bootConfig = vmmodel.BootConfig{
	ImageSize:    imageSize,
	TouchedBytes: 16 << 20,
	Extents:      40,
	MeanOpLen:    64 << 10,
	WriteOps:     10,
	WriteLen:     8 << 10,
	TotalThink:   1.0,
}

// pool is a simulated cluster with one VM per compute node, a small
// dedicated provider pool and one service node (version manager and p2p
// tracker), with the base image uploaded and the traffic counter reset.
type pool struct {
	fab     *cluster.Sim
	nodes   []cluster.NodeID // compute nodes, one instance each
	repo    *blobvfs.Repo
	base    blobvfs.Snapshot
	backend *middleware.MirrorBackend
	orch    *middleware.Orchestrator
}

func newPool(seed int64, instances, providers int, opts ...blobvfs.Option) (*pool, error) {
	cfg := cluster.DefaultConfig(instances + providers + 1)
	cfg.WriteBuffer = writeBuffer
	p := &pool{fab: cluster.NewSim(cfg)}
	var provNodes []cluster.NodeID
	for i := 0; i < instances; i++ {
		p.nodes = append(p.nodes, cluster.NodeID(i))
	}
	for i := 0; i < providers; i++ {
		provNodes = append(provNodes, cluster.NodeID(instances+i))
	}
	opts = append([]blobvfs.Option{
		blobvfs.WithProviders(provNodes...),
		blobvfs.WithManager(cluster.NodeID(instances + providers)),
		blobvfs.WithReplicas(1),
		blobvfs.WithChunkSize(chunkSize),
	}, opts...)
	repo, err := blobvfs.Open(p.fab, opts...)
	if err != nil {
		return nil, err
	}
	p.repo = repo
	p.fab.Run(func(ctx *cluster.Ctx) {
		p.base, err = repo.CreateSynthetic(ctx, "base", imageSize)
	})
	if err != nil {
		return nil, fmt.Errorf("upload base image: %w", err)
	}
	p.backend = middleware.NewMirrorBackend(repo, p.base)
	p.fab.ResetTraffic()

	baseOps := vmmodel.GenBootTrace(sim.NewRNG(bootSeed), bootConfig)
	traceRNG := sim.NewRNG(seed + 1)
	jitRNG := sim.NewRNG(seed + 2)
	p.orch = &middleware.Orchestrator{
		Backend: p.backend,
		Nodes:   p.nodes,
		TraceFor: func(int) []vmmodel.TraceOp {
			return vmmodel.WithThinkJitter(baseOps, traceRNG.Fork(), bootConfig.TotalThink)
		},
		StartJitter: func(int) float64 { return jitRNG.Uniform(jitterMin, jitterMax) },
	}
	return p, nil
}

// counters snapshots the simulator and storage-service counters so the
// timed section's share can be taken as a difference.
type counters struct {
	steps, flows                                int64
	reads, writes, putRPCs, metaGets, metaNodes int64
	metaPuts, dedupHits                         int64
}

// blobCounters sums the storage-service counters of systems.
func blobCounters(systems ...*blob.System) counters {
	var c counters
	for _, sys := range systems {
		c.reads += sys.Providers.Reads.Load()
		c.writes += sys.Providers.Writes.Load()
		c.putRPCs += sys.Providers.PutRPCs.Load()
		c.metaGets += sys.Meta.Gets.Load()
		c.metaNodes += sys.Meta.NodesServed.Load()
		c.metaPuts += sys.Meta.Puts.Load()
		c.dedupHits += sys.Providers.DedupHits.Load()
	}
	return c
}

func (p *pool) counters() counters {
	c := blobCounters(p.repo.System())
	c.steps = p.fab.Env().Steps()
	c.flows = p.fab.Net().Completed
	return c
}

// record stores the simulator and storage-service counts of the timed
// section (since c0) as deterministic metrics.
func (p *pool) record(r *run, c0 counters) {
	d := r.s.det
	d["traffic_mb"] = float64(p.fab.NetTraffic()) / 1e6
	d["sim.procs_left"] = float64(p.fab.Env().Procs())
	recordCounts(r, c0, p.counters(), p.repo.System())
}

// recordCounts stores the counts between c0 and c as deterministic
// metrics; the hottest provider is the busiest of systems'.
func recordCounts(r *run, c0, c counters, systems ...*blob.System) {
	d := r.s.det
	d["sim.steps"] = float64(c.steps - c0.steps)
	d["flownet.flows"] = float64(c.flows - c0.flows)
	d["blob.provider_reads"] = float64(c.reads - c0.reads)
	var hottest int64
	for _, sys := range systems {
		hottest = max(hottest, sys.Providers.MaxNodeReads())
	}
	d["blob.hottest_provider_reads"] = float64(hottest)
	d["blob.meta_gets"] = float64(c.metaGets - c0.metaGets)
	if g := c.metaGets - c0.metaGets; g > 0 {
		d["blob.meta_nodes_per_get"] = float64(c.metaNodes-c0.metaNodes) / float64(g)
	}
	d["blob.chunk_writes"] = float64(c.writes - c0.writes)
	d["blob.chunk_put_rpcs"] = float64(c.putRPCs - c0.putRPCs)
	d["blob.meta_puts"] = float64(c.metaPuts - c0.metaPuts)
	d["blob.dedup_hits"] = float64(c.dedupHits - c0.dedupHits)
}

// recordDisks sums the mirroring modules' accounting over the
// instances' disks.
func recordDisks(r *run, disks []vmmodel.VirtualDisk) {
	var st blobvfs.DiskStats
	for _, vd := range disks {
		d, ok := vd.(*blobvfs.Disk)
		if !ok {
			continue
		}
		s := d.Stats()
		st.RemoteChunkFetches += s.RemoteChunkFetches
		st.DuplicateFetches += s.DuplicateFetches
		st.FetchRetries += s.FetchRetries
		st.CommittedChunks += s.CommittedChunks
	}
	d := r.s.det
	d["mirror.remote_fetches"] = float64(st.RemoteChunkFetches)
	if st.RemoteChunkFetches > 0 {
		d["mirror.useful_fetch_ratio"] = 1 - float64(st.DuplicateFetches)/float64(st.RemoteChunkFetches)
	}
	d["mirror.fetch_retries"] = float64(st.FetchRetries)
	d["mirror.committed_chunks"] = float64(st.CommittedChunks)
}
