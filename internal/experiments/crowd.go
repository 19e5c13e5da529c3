package experiments

import (
	"fmt"

	"blobvfs"
	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/metrics"
	"blobvfs/internal/middleware"
	"blobvfs/internal/p2p"
	"blobvfs/internal/sim"
	"blobvfs/internal/vmmodel"
)

// This file implements the crowd scenarios: many instances of one image
// deployed concurrently (§5.2), up to the flash crowd §7 points at,
// against a dedicated provider pool much smaller than the deployment.
// Unlike the Fig. 4 setup — where storage aggregates every compute
// node's disk, so provider capacity grows with the sweep — every demand
// fetch of a hot boot chunk lands on the same few nodes, and the
// per-provider load scales linearly with the crowd. One runner,
// RunCrowd, deploys every variant; four presets fill in its spec:
//
//   - FlashCrowd: the healthy crowd on a flat cluster, with the p2p
//     sharing layer (internal/p2p) off or on as the pressure relief.
//   - Degraded: the crowd while half of a replicated provider pool dies
//     mid-deployment; each death triggers read failover, synchronous
//     re-replication and retraction of cohort state, and "all instances
//     still complete" becomes a measured property.
//   - CrossZone: the crowd spread over availability zones joined by
//     scarce interconnects, flat policy vs topology-aware placement and
//     peer selection (WithTopology) over the same physical fabric.
//   - MetaOutage: the crowd with metadata replicated twice while half
//     the metadata providers and one compute rack die; every descent
//     landing on a dead replica must fail over, none may fail.
//
// Victims are drawn from the experiment seed, so runs are bit-for-bit
// repeatable, fault injection included.

// CrowdSpec describes one crowd deployment. Start from a preset and
// adjust its fields; the preset also fixes the node layout and fault
// plan the fields apply to.
type CrowdSpec struct {
	// Instances is the crowd size (per zone for CrossZone).
	Instances int
	// Providers is the dedicated provider pool size (per zone for
	// CrossZone). Under MetaOutage the pool also hosts the metadata.
	Providers int
	// Replicas is the chunk replication degree (0 → Params.Replicas).
	Replicas int
	// Sharing toggles the p2p chunk-sharing layer (p2p.DefaultConfig).
	Sharing bool
	// Aware makes the repo topology-aware (blobvfs.WithTopology). The
	// fabric models its tier links either way.
	Aware bool
	// Kill is how many providers the fault plan kills, staggered.
	Kill int
	// KillRack additionally fails the middle instance rack
	// (MetaOutage only).
	KillRack bool

	layout layoutKind
}

// layoutKind selects RunCrowd's node layout; only presets set it.
type layoutKind int

const (
	layoutFlat layoutKind = iota
	layoutZones
	layoutRacks
)

// FlashCrowd deploys instances of one image against an 8-node provider
// pool on a flat cluster, with p2p sharing off or on.
func FlashCrowd(instances int, sharing bool) CrowdSpec {
	return CrowdSpec{Instances: instances, Providers: 8, Sharing: sharing}
}

// Degraded reruns the flash crowd (sharing on: cohort peers are the
// last source of a chunk whose every provider copy died) against 16
// providers holding 2 copies of each chunk, while kill of them die one
// per second from t=2s. kill = 0 is the healthy baseline.
func Degraded(instances, kill int) CrowdSpec {
	return CrowdSpec{Instances: instances, Providers: 16, Replicas: 2, Sharing: true, Kill: kill}
}

// crossZoneZones is the CrossZone preset's zone count; its replication
// degree matches, so aware placement can pin one copy in every zone.
const crossZoneZones = 3

// CrossZone deploys perZone instances in each of 3 zones, over a pool
// of 3 providers per zone, with the flat or the topology-aware policy.
func CrossZone(perZone int, aware, sharing bool) CrowdSpec {
	return CrowdSpec{Instances: perZone, Providers: 3, Replicas: crossZoneZones,
		Sharing: sharing, Aware: aware, layout: layoutZones}
}

// metaOutageMetaReplicas is the MetaOutage preset's metadata
// replication degree (the version manager gets one journal standby).
const metaOutageMetaReplicas = 2

// MetaOutage deploys the crowd (sharing on) over a racked, 4-zone,
// topology-aware fabric whose 16 providers store 2 copies of every
// chunk and every metadata node. Its fault plan kills kill metadata
// providers 150ms apart from 0.4s after arming — inside the disk-open
// wave, where the batched metadata descents happen — and, with rack,
// the middle instance rack at 0.7s.
func MetaOutage(instances, kill int, rack bool) CrowdSpec {
	return CrowdSpec{Instances: instances, Providers: 16, Replicas: 2, Sharing: true,
		Aware: true, Kill: kill, KillRack: rack, layout: layoutRacks}
}

// CrowdPoint reports one crowd run: its spec and every counter the
// crowd scenarios report, all collected on every run.
type CrowdPoint struct {
	CrowdSpec

	Booted     int     // instances that completed their boot (must be all)
	AvgBoot    float64 // mean per-instance boot time (s)
	Completion float64 // deploy start → last instance booted (s)
	TrafficGB  float64 // total network traffic (GB)
	Steps      int64   // simulator events executed by the deployment

	// TierBytes breaks all off-node traffic down by locality tier;
	// TierBytes[cluster.TierRemote] crossed a zone interconnect.
	TierBytes [cluster.NumTiers]int64

	ProviderReads    int64 // chunk reads served by the provider pool
	MaxProviderReads int64 // ... by its hottest member (the hot-spot)
	// ProviderTierReads splits provider reads by reader→provider
	// distance. Only an aware repo can attribute tiers; without
	// awareness everything books under TierRack.
	ProviderTierReads [cluster.NumTiers]int64
	PeerReads         int64 // chunk reads served by cohort peers
	P2P               p2p.Stats

	MetaGets  int64 // metadata service operations (after batching)
	MetaNodes int64 // tree nodes served (MetaNodes/MetaGets = batching factor)

	Failovers     int64 // chunk reads a dead primary pushed onto another copy
	Rereplicated  int64 // chunk copies re-created after a death
	FailedFetches int64 // chunk reads that found no live provider copy
	FetchRetries  int64 // mirror fetches re-attempted after a failure

	MetaFailovers    int64 // metadata gets a dead replica pushed onto a survivor
	MetaRereplicated int64 // tree-node copies restored by repair sweeps
	FailedDescents   int64 // metadata gets with no live replica
	VMFailovers      int64 // manager ops served by a journal standby
}

// RunCrowd deploys s.Instances concurrent instances of one image and
// reports where the chunk and metadata traffic landed and what the
// fault plan cost. It panics if any deployment step fails. The image
// upload is excluded from the measurements, as in the other
// experiments.
func RunCrowd(p Params, s CrowdSpec) CrowdPoint {
	if s.Instances < 1 {
		panic("experiments: a crowd needs at least one instance")
	}
	var l crowdLayout
	switch s.layout {
	case layoutZones:
		l = zoneLayout(s.Instances, s.Providers)
	case layoutRacks:
		l = rackLayout(s.Instances, s.Providers)
	default:
		l = flatLayout(s.Instances, s.Providers)
	}
	return runCrowd(p, s, l)
}

func runCrowd(p Params, s CrowdSpec, l crowdLayout) CrowdPoint {
	if s.Kill < 0 || s.Kill >= len(l.prov) {
		panic(fmt.Sprintf("experiments: cannot kill %d of %d providers", s.Kill, len(l.prov)))
	}
	var plan []blobvfs.FaultEvent
	if s.Kill > 0 || s.KillRack {
		if l.plan == nil || (s.KillRack && l.instRacks == 0) {
			panic("experiments: this crowd layout has no such fault plan")
		}
		plan = l.plan(s, l, p.Seed)
	}
	opts := []blobvfs.Option{blobvfs.WithMetaReplicas(l.metaReplicas)}
	if s.Replicas > 0 {
		opts = append(opts, blobvfs.WithReplicas(s.Replicas))
	}
	if s.Sharing {
		opts = append(opts, blobvfs.WithP2P())
	}
	if s.Aware {
		opts = append(opts, blobvfs.WithTopology(l.topo))
	}
	if len(plan) > 0 {
		opts = append(opts, blobvfs.WithFaultPlan(plan...))
	}
	cp := newPool(p, l, opts...)
	sys := cp.Sys
	gets0, nodes0 := sys.Meta.Gets.Load(), sys.Meta.NodesServed.Load()
	steps0 := cp.Fab.Env().Steps()

	var dep *middleware.DeployResult
	cp.Fab.Run(func(ctx *cluster.Ctx) {
		if len(plan) > 0 {
			arm := cp.Repo.ArmFaults
			if l.rebased {
				arm = cp.Repo.ArmFaultsRebased
			}
			if err := arm(ctx); err != nil {
				panic(err)
			}
		}
		var err error
		dep, err = cp.Orch.Deploy(ctx)
		if err != nil {
			panic(fmt.Sprintf("experiments: crowd deployment failed: %v", err))
		}
	})

	pt := CrowdPoint{
		CrowdSpec:         s,
		AvgBoot:           metrics.Summarize(dep.BootTimes()).Mean,
		Completion:        dep.Completion,
		TrafficGB:         float64(cp.Fab.NetTraffic()) / 1e9,
		Steps:             cp.Fab.Env().Steps() - steps0,
		ProviderReads:     sys.Providers.Reads.Load(),
		MaxProviderReads:  sys.Providers.MaxNodeReads(),
		ProviderTierReads: sys.Providers.TierReads(),
		MetaGets:          sys.Meta.Gets.Load() - gets0,
		MetaNodes:         sys.Meta.NodesServed.Load() - nodes0,
		Failovers:         sys.Providers.Failovers.Load(),
		Rereplicated:      sys.Providers.Rereplicated.Load(),
		FailedFetches:     sys.Providers.FailedReads.Load(),
		MetaFailovers:     sys.Meta.Failovers.Load(),
		MetaRereplicated:  sys.Meta.Rereplicated.Load(),
		FailedDescents:    sys.Meta.FailedGets.Load(),
		VMFailovers:       sys.VM.Failovers.Load(),
	}
	for t := range pt.TierBytes {
		pt.TierBytes[t] = cp.Fab.TierTraffic(cluster.Tier(t))
	}
	for _, inst := range dep.Instances {
		if inst == nil {
			continue
		}
		if inst.BootDoneAt > 0 {
			pt.Booted++
		}
		if d, ok := inst.Disk.(*blobvfs.Disk); ok {
			pt.FetchRetries += d.Stats().FetchRetries
		}
	}
	if st, ok := cp.Repo.SharingStats(cp.Base.Image); ok {
		pt.P2P = st
		pt.PeerReads = st.PeerHits
	}
	return pt
}

// crowdLayout is one node arrangement: which nodes host instances,
// providers and the service (version manager + p2p tracker), the
// fabric's topology, and the fault plan a spec's Kill and KillRack arm
// on it.
type crowdLayout struct {
	nodes        int
	topo         cluster.Topology
	inst, prov   []cluster.NodeID
	service      cluster.NodeID
	instRacks    int // instance racks (layoutRacks only)
	metaReplicas int
	plan         func(s CrowdSpec, l crowdLayout, seed int64) []blobvfs.FaultEvent
	rebased      bool // arm the plan relative to the deployment start
}

// nodeRange returns the n consecutive node IDs from base.
func nodeRange(base, n int) []cluster.NodeID {
	ids := make([]cluster.NodeID, n)
	for i := range ids {
		ids[i] = cluster.NodeID(base + i)
	}
	return ids
}

// tieredTopology returns the zoned fabric of the cross-zone and
// metadata-outage scenarios: rack uplinks at 4× the node NIC (a 2:1
// oversubscribed top-of-rack switch) with 50µs extra RTT, and zone
// interconnects at 2× the node NIC — the scarce resource a whole zone's
// external traffic squeezes through — with 1ms.
func tieredTopology(zones, racksPerZone, nodesPerRack int) cluster.Topology {
	nic := cluster.DefaultConfig(1).NICBandwidth
	return cluster.Topology{
		Zones:         zones,
		RacksPerZone:  racksPerZone,
		NodesPerRack:  nodesPerRack,
		RackBandwidth: 4 * nic,
		RackLatency:   5e-5,
		ZoneBandwidth: 2 * nic,
		ZoneLatency:   1e-3,
	}
}

// flatLayout: instances, then providers, then one service node, on a
// flat switch. Its fault plan kills providers drawn from the seed, one
// per second from t=2s.
func flatLayout(instances, providers int) crowdLayout {
	return crowdLayout{
		nodes:        instances + providers + 1,
		inst:         nodeRange(0, instances),
		prov:         nodeRange(instances, providers),
		service:      cluster.NodeID(instances + providers),
		metaReplicas: 1,
		plan: func(s CrowdSpec, l crowdLayout, seed int64) []blobvfs.FaultEvent {
			return providerKills(s, l, seed+7, 2.0, 1.0)
		},
	}
}

// zoneLayout: crossZoneZones zones, each the contiguous ID block of
// perZone instances, provPerZone providers and one auxiliary node, in
// racks of up to 8; zone 0's auxiliary node is the service node.
func zoneLayout(perZone, provPerZone int) crowdLayout {
	zoneSize := perZone + provPerZone + 1
	perRack := 1
	for _, n := range []int{8, 4, 2} {
		if zoneSize%n == 0 {
			perRack = n
			break
		}
	}
	l := crowdLayout{
		nodes:        crossZoneZones * zoneSize,
		topo:         tieredTopology(crossZoneZones, zoneSize/perRack, perRack),
		service:      cluster.NodeID(perZone + provPerZone),
		metaReplicas: 1,
	}
	for z := 0; z < crossZoneZones; z++ {
		l.inst = append(l.inst, nodeRange(z*zoneSize, perZone)...)
		l.prov = append(l.prov, nodeRange(z*zoneSize+perZone, provPerZone)...)
	}
	return l
}

// rackLayout: racks of 8 grouped into 4 zones — instance racks, then
// provider racks, then one auxiliary rack whose first node is the
// service node, then idle racks padding the total to a multiple of the
// zone count. Its fault plan is MetaOutage's.
func rackLayout(instances, providers int) crowdLayout {
	const perRack, zones = 8, 4
	instRacks := (instances + perRack - 1) / perRack
	provRacks := (providers + perRack - 1) / perRack
	racks := instRacks + provRacks + 1
	for racks%zones != 0 {
		racks++
	}
	return crowdLayout{
		nodes:        racks * perRack,
		topo:         tieredTopology(zones, racks/zones, perRack),
		inst:         nodeRange(0, instances),
		prov:         nodeRange(instRacks*perRack, providers),
		service:      cluster.NodeID((instRacks + provRacks) * perRack),
		instRacks:    instRacks,
		metaReplicas: metaOutageMetaReplicas,
		rebased:      true,
		plan: func(s CrowdSpec, l crowdLayout, seed int64) []blobvfs.FaultEvent {
			plan := providerKills(s, l, seed+11, 0.4, 0.15)
			if s.KillRack {
				plan = append(plan, blobvfs.KillRackAt(0.7, l.instRacks/2))
			}
			return plan
		},
	}
}

// providerKills kills s.Kill providers drawn from seed, the i-th at
// start + i·every. Kills are sequential so re-replication can restore
// the replication degree between failures.
func providerKills(s CrowdSpec, l crowdLayout, seed int64, start, every float64) []blobvfs.FaultEvent {
	var plan []blobvfs.FaultEvent
	for i, v := range sim.NewRNG(seed).Perm(len(l.prov))[:s.Kill] {
		plan = append(plan, blobvfs.KillAt(start+float64(i)*every, l.prov[v]))
	}
	return plan
}

// crowdPool is a deployment's scaffolding: the fabric, a repo holding
// the base image (traffic counters reset after the upload, so
// measurements exclude setup) and an orchestrator that boots one VM on
// every instance node.
type crowdPool struct {
	Fab       *cluster.Sim
	InstNodes []cluster.NodeID
	Repo      *blobvfs.Repo
	Base      blobvfs.Snapshot
	Sys       *blob.System
	Backend   *middleware.MirrorBackend
	Orch      *middleware.Orchestrator
}

// newPool builds the scaffold on layout l. The repo stores on l's
// providers with Params' chunk size and replication degree; opts are
// applied after those, so they win.
func newPool(p Params, l crowdLayout, opts ...blobvfs.Option) *crowdPool {
	cfg := cluster.DefaultConfig(l.nodes)
	if p.WriteBuffer > 0 {
		cfg.WriteBuffer = p.WriteBuffer
	}
	cfg.Topology = l.topo
	cp := &crowdPool{Fab: cluster.NewSim(cfg), InstNodes: l.inst}
	repo, err := blobvfs.Open(cp.Fab, append([]blobvfs.Option{
		blobvfs.WithProviders(l.prov...),
		blobvfs.WithManager(l.service),
		blobvfs.WithReplicas(p.Replicas),
		blobvfs.WithChunkSize(p.ChunkSize),
	}, opts...)...)
	if err != nil {
		panic(err)
	}
	cp.Repo = repo
	cp.Sys = repo.System()
	cp.Fab.Run(func(ctx *cluster.Ctx) {
		base, err := repo.CreateSynthetic(ctx, "base", p.ImageSize)
		if err != nil {
			panic(err)
		}
		cp.Base = base
		cp.Backend = middleware.NewMirrorBackend(repo, base)
	})
	cp.Fab.ResetTraffic()

	baseOps := p.baseTrace()
	traceRNG := sim.NewRNG(p.Seed + 1)
	jitRNG := sim.NewRNG(p.Seed + 2)
	cp.Orch = &middleware.Orchestrator{
		Backend: cp.Backend,
		Nodes:   cp.InstNodes,
		TraceFor: func(i int) []vmmodel.TraceOp {
			return vmmodel.WithThinkJitter(baseOps, traceRNG.Fork(), p.Boot.TotalThink)
		},
		StartJitter: func(i int) float64 {
			return jitRNG.Uniform(p.JitterMin, p.JitterMax)
		},
	}
	return cp
}

// FlashCrowdTable renders a sharing-off/sharing-on comparison.
func FlashCrowdTable(points []CrowdPoint) *metrics.Table {
	t := &metrics.Table{
		Title: "Flash crowd: concurrent multideployment against a small provider pool",
		Columns: []string{
			"instances", "providers", "p2p sharing", "completion (s)",
			"provider reads", "hottest provider", "peer reads",
		},
	}
	for _, pt := range points {
		t.AddRow(itoa(pt.Instances), itoa(pt.Providers), onOff(pt.Sharing),
			ftoa(pt.Completion), i64toa(pt.ProviderReads),
			i64toa(pt.MaxProviderReads), i64toa(pt.PeerReads))
	}
	return t
}

// DegradedTable renders a healthy-vs-degraded comparison.
func DegradedTable(points []CrowdPoint) *metrics.Table {
	t := &metrics.Table{
		Title: "Degraded deployment: flash crowd while providers fail mid-run",
		Columns: []string{
			"instances", "providers", "killed", "booted", "completion (s)",
			"failovers", "re-replicated", "failed fetches", "peer reads",
		},
	}
	for _, pt := range points {
		t.AddRow(itoa(pt.Instances), itoa(pt.Providers), itoa(pt.Kill),
			itoa(pt.Booted), ftoa(pt.Completion), i64toa(pt.Failovers),
			i64toa(pt.Rereplicated), i64toa(pt.FailedFetches), i64toa(pt.PeerReads))
	}
	return t
}

// CrossZoneTable renders a flat-vs-aware comparison; the cross-zone
// column is the headline.
func CrossZoneTable(points []CrowdPoint) *metrics.Table {
	t := &metrics.Table{
		Title: "Cross-zone flash crowd: one image deployed over " +
			"zoned fabric, flat policy vs topology-aware",
		Columns: []string{
			"zones", "inst/zone", "aware", "p2p sharing", "completion (s)",
			"cross-zone (GB)", "zone-local (GB)", "rack-local (GB)",
			"provider reads", "hottest provider", "peer reads",
		},
	}
	for _, pt := range points {
		t.AddRow(itoa(crossZoneZones), itoa(pt.Instances), onOff(pt.Aware),
			onOff(pt.Sharing), ftoa(pt.Completion),
			gbs(pt.TierBytes[cluster.TierRemote]), gbs(pt.TierBytes[cluster.TierZone]),
			gbs(pt.TierBytes[cluster.TierRack]), i64toa(pt.ProviderReads),
			i64toa(pt.MaxProviderReads), i64toa(pt.PeerReads))
	}
	return t
}

// MetaOutageTable renders a healthy-vs-outage comparison; the first
// row is the healthy baseline the delta column is computed against.
func MetaOutageTable(points []CrowdPoint) *metrics.Table {
	t := &metrics.Table{
		Title: "Metadata outage: flash crowd with replicated metadata " +
			"while metadata providers and a rack fail",
		Columns: []string{
			"instances", "meta replicas", "killed meta", "rack killed", "booted",
			"completion (s)", "delta (s)", "meta failovers", "meta re-replicated",
			"failed descents",
		},
	}
	for _, pt := range points {
		rack := "no"
		if pt.KillRack {
			rack = "yes"
		}
		t.AddRow(itoa(pt.Instances), itoa(metaOutageMetaReplicas), itoa(pt.Kill),
			rack, itoa(pt.Booted), ftoa(pt.Completion),
			ftoa(pt.Completion-points[0].Completion), i64toa(pt.MetaFailovers),
			i64toa(pt.MetaRereplicated), i64toa(pt.FailedDescents))
	}
	return t
}

// gbs renders a byte count as GB with table precision.
func gbs(b int64) string { return ftoa(float64(b) / 1e9) }
