package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"blobvfs/internal/cluster"
)

// TestFlashCrowdSharingKillsProviderHotSpot: with a provider pool much
// smaller than the crowd, enabling p2p sharing must strictly reduce
// both the total provider load and the hottest provider's load, with
// the difference served by cohort peers.
func TestFlashCrowdSharingKillsProviderHotSpot(t *testing.T) {
	p := Quick()
	s := FlashCrowd(48, false)
	s.Providers = 4
	off := RunCrowd(p, s)
	s.Sharing = true
	on := RunCrowd(p, s)

	if off.PeerReads != 0 {
		t.Errorf("sharing off but %d peer reads", off.PeerReads)
	}
	if on.PeerReads == 0 {
		t.Error("sharing on but no chunk was served by a peer")
	}
	if on.ProviderReads >= off.ProviderReads {
		t.Errorf("provider reads did not drop: %d with sharing vs %d without",
			on.ProviderReads, off.ProviderReads)
	}
	if on.MaxProviderReads >= off.MaxProviderReads {
		t.Errorf("hottest provider did not cool down: %d with sharing vs %d without",
			on.MaxProviderReads, off.MaxProviderReads)
	}
	// Every demand fetch is served exactly once, by a provider or a peer.
	if got, want := on.ProviderReads+on.PeerReads, off.ProviderReads; got != want {
		t.Errorf("reads not conserved: %d provider + %d peer = %d, want %d",
			on.ProviderReads, on.PeerReads, got, want)
	}
	// Relieving the provider bottleneck must not slow the deployment.
	if on.Completion > off.Completion*1.05 {
		t.Errorf("sharing slowed completion: %.2fs vs %.2fs", on.Completion, off.Completion)
	}
}

// TestFlashCrowd256 runs the acceptance-scale point: 256 concurrent
// deployments against an 8-provider pool. Per-provider chunk traffic
// must be strictly lower with sharing enabled.
func TestFlashCrowd256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-instance flash crowd skipped in -short mode")
	}
	p := Quick()
	off := RunCrowd(p, FlashCrowd(256, false))
	on := RunCrowd(p, FlashCrowd(256, true))

	if on.MaxProviderReads >= off.MaxProviderReads {
		t.Errorf("hottest provider at 256 instances: %d with sharing, %d without",
			on.MaxProviderReads, off.MaxProviderReads)
	}
	if on.ProviderReads >= off.ProviderReads {
		t.Errorf("provider reads at 256 instances: %d with sharing, %d without",
			on.ProviderReads, off.ProviderReads)
	}
	if on.Completion > off.Completion {
		t.Errorf("sharing slowed the 256-instance crowd: %.2fs vs %.2fs",
			on.Completion, off.Completion)
	}
}

// TestCrowdStepsPerInstanceFlat: the simulator work per instance of a
// sharing-on flash crowd must not grow with the crowd. A control plane
// that talks to the whole cohort per announcement costs O(N) events per
// instance and shows up here as a 64→256 ratio well above one.
func TestCrowdStepsPerInstanceFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("256-instance flash crowd skipped in -short mode")
	}
	p := Quick()
	perInstance := func(n int) float64 {
		pt := RunCrowd(p, FlashCrowd(n, true))
		if pt.Booted != n {
			t.Fatalf("%d-instance crowd booted %d", n, pt.Booted)
		}
		return float64(pt.Steps) / float64(n)
	}
	small, large := perInstance(64), perInstance(256)
	t.Logf("sim steps per instance: %.0f at 64, %.0f at 256", small, large)
	if ratio := large / small; ratio < 1/1.05 || ratio > 1.05 {
		t.Errorf("sim steps per instance: %.0f at 64, %.0f at 256 (ratio %.3f), want within 5%%",
			small, large, ratio)
	}
}

// TestFlashCrowdMetadataBatching: the metadata read path must resolve
// trees in batched rounds, not one service operation per node — the
// "metadata must not become the bottleneck" property. With level-order
// descent and the open-time extent prefetch, the whole deployment's
// service-operation count stays a small multiple of the per-level
// provider fan-out instead of scaling with tree-node count.
func TestFlashCrowdMetadataBatching(t *testing.T) {
	s := FlashCrowd(48, false)
	s.Providers = 4
	pt := RunCrowd(Quick(), s)
	if pt.MetaGets == 0 || pt.MetaNodes == 0 {
		t.Fatalf("no metadata traffic recorded: %+v", pt)
	}
	factor := float64(pt.MetaNodes) / float64(pt.MetaGets)
	if factor < 8 {
		t.Errorf("metadata batching factor = %.1f (%d nodes / %d ops), want >= 8",
			factor, pt.MetaNodes, pt.MetaGets)
	}
	// Roughly depth rounds per provider per instance: span 1024 is
	// depth 10, 4 providers → well under 64 service ops per instance.
	if perInst := pt.MetaGets / int64(pt.Instances); perInst > 64 {
		t.Errorf("metadata ops per instance = %d, want <= 64 (depth-bounded rounds)", perInst)
	}
}

// TestFlashCrowdDeterministic: the scenario is bit-for-bit repeatable,
// p2p layer included.
func TestFlashCrowdDeterministic(t *testing.T) {
	p := Quick()
	s := FlashCrowd(16, true)
	s.Providers = 4
	a := RunCrowd(p, s)
	b := RunCrowd(p, s)
	if a != b {
		t.Errorf("flash crowd not deterministic:\n  %+v\n  %+v", a, b)
	}
}

// TestFlashCrowdDeterministicUnderPooling runs the same 1k-instance
// flash crowd twice and demands bit-identical results — same event
// count, same completion times, same traffic and sharing stats. The
// sim core recycles events, worker goroutines, waiter buffers and
// flows through free lists and recomputes flow rates incrementally;
// this pins that none of that reuse ever changes event ordering.
func TestFlashCrowdDeterministicUnderPooling(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 192
	}
	p := Quick()
	s := FlashCrowd(instances, true)
	a := RunCrowd(p, s)
	b := RunCrowd(p, s)
	if a.Booted != instances {
		t.Fatalf("first run booted %d of %d instances", a.Booted, instances)
	}
	if a.Steps == 0 {
		t.Fatal("run reported zero simulator steps")
	}
	if a != b {
		t.Errorf("identical runs diverged:\n first: %+v\nsecond: %+v", a, b)
	}
}

// TestFlashCrowdSingleZoneTopologyMatchesFlat pins topology awareness'
// degenerate case end to end: the flash crowd on a fabric whose
// topology puts every node in one zone and one rack — tier links
// created, placement, replica ordering and peer selection all running
// their topology-aware code paths — reproduces the plain flat-cluster
// run byte-identically, p2p statistics included.
func TestFlashCrowdSingleZoneTopologyMatchesFlat(t *testing.T) {
	p := Quick()
	nic := cluster.DefaultConfig(1).NICBandwidth
	s := FlashCrowd(16, true)
	s.Providers = 4
	flat := RunCrowd(p, s)
	l := flatLayout(s.Instances, s.Providers)
	l.topo = cluster.Topology{
		Zones: 1, RacksPerZone: 1, NodesPerRack: l.nodes,
		RackBandwidth: nic, ZoneBandwidth: nic,
	}
	s.Aware = true
	single := runCrowd(p, s, l)
	// Only the spec's Aware flag may differ; everything measured must
	// match.
	single.Aware = false
	if flat != single {
		t.Errorf("single-zone topology diverged from flat flash crowd:\n  flat:   %+v\n  single: %+v",
			flat, single)
	}
}

// TestDegradedAllInstancesComplete: the headline property — killing
// half the provider pool mid-deployment must not lose a single
// instance, and the resilience machinery must actually have engaged.
func TestDegradedAllInstancesComplete(t *testing.T) {
	p := Quick()
	healthy := RunCrowd(p, Degraded(48, 0))
	hit := RunCrowd(p, Degraded(48, 8))

	for _, pt := range []CrowdPoint{healthy, hit} {
		if pt.Booted != pt.Instances {
			t.Fatalf("killed=%d: %d of %d instances booted", pt.Kill, pt.Booted, pt.Instances)
		}
	}
	if healthy.Failovers != 0 || healthy.Rereplicated != 0 || healthy.FailedFetches != 0 {
		t.Fatalf("healthy run exercised the failure path: %+v", healthy)
	}
	if hit.Failovers == 0 {
		t.Error("degraded run recorded no failovers")
	}
	if hit.Rereplicated == 0 {
		t.Error("degraded run re-replicated nothing")
	}
	if hit.P2P.DeadDropped != 0 {
		t.Errorf("provider kills dropped %d cohort records (providers are not cohort members)", hit.P2P.DeadDropped)
	}
	// Failure costs time, but must not cost completeness.
	if hit.Completion <= healthy.Completion {
		t.Errorf("killing providers did not slow completion: %.2f vs %.2f",
			hit.Completion, healthy.Completion)
	}
	tab := DegradedTable([]CrowdPoint{healthy, hit}).String()
	if !strings.Contains(tab, "failed fetches") {
		t.Errorf("table missing its failed-fetches column:\n%s", tab)
	}
}

// TestDegradedDeterministic: the scenario is bit-for-bit repeatable —
// same seed, same kills, same counters — fault injection included.
func TestDegradedDeterministic(t *testing.T) {
	p := Quick()
	s := Degraded(16, 3)
	s.Providers = 8
	a := RunCrowd(p, s)
	b := RunCrowd(p, s)
	if a != b {
		t.Fatalf("degraded scenario not deterministic:\n  %+v\n  %+v", a, b)
	}
}

// TestDegradedNoFaultMatchesFlashCrowd: with no fault plan the
// degraded scenario IS the flash crowd — byte-identical timing,
// traffic and counters. This pins the zero-cost property of the fault
// subsystem: a healthy run pays nothing for the failover machinery.
func TestDegradedNoFaultMatchesFlashCrowd(t *testing.T) {
	p := Quick()
	deg := Degraded(32, 0)
	deg.Providers, deg.Replicas = 8, 1
	fc := FlashCrowd(32, true)
	a, b := RunCrowd(p, deg), RunCrowd(p, fc)
	if a.Booted != a.Instances {
		t.Fatalf("%d of %d instances booted", a.Booted, a.Instances)
	}
	// Only the specs differ (Replicas 1 given vs defaulted).
	a.CrowdSpec = b.CrowdSpec
	if a != b {
		t.Errorf("no-fault degraded run diverged from the flash crowd:\n  degraded: %+v\n  flash:    %+v", a, b)
	}
	if a.Failovers != 0 || a.Rereplicated != 0 || a.FailedFetches != 0 || a.FetchRetries != 0 {
		t.Errorf("no-fault run touched the failure path: %+v", a)
	}
}

// TestCrowdRejectsImpossibleFaultPlans: a spec whose fault plan its
// layout cannot express must fail loudly, not run healthy.
func TestCrowdRejectsImpossibleFaultPlans(t *testing.T) {
	for name, s := range map[string]CrowdSpec{
		"no instances":       FlashCrowd(0, false),
		"kill whole pool":    Degraded(4, 16),
		"negative kill":      Degraded(4, -1),
		"zone kill":          func() CrowdSpec { s := CrossZone(2, false, false); s.Kill = 1; return s }(),
		"rack kill on flat":  func() CrowdSpec { s := FlashCrowd(4, false); s.KillRack = true; return s }(),
		"meta kill too many": MetaOutage(4, 16, false),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("RunCrowd accepted %+v", s)
				}
			}()
			RunCrowd(Quick(), s)
		})
	}
}

// TestCrossZoneAwarenessCutsInterconnectTraffic is the scenario's
// acceptance property: over the identical zoned fabric, switching the
// repo from the flat policy to topology awareness must cut the bytes
// crossing zone interconnects at least in half, with and without p2p
// sharing (the remaining cross-zone traffic is the tracker and
// version-manager chatter plus the first seeding of each zone).
func TestCrossZoneAwarenessCutsInterconnectTraffic(t *testing.T) {
	p := Quick()
	for _, sharing := range []bool{false, true} {
		flat := RunCrowd(p, CrossZone(16, false, sharing))
		aware := RunCrowd(p, CrossZone(16, true, sharing))
		flatX, awareX := flat.TierBytes[cluster.TierRemote], aware.TierBytes[cluster.TierRemote]

		if flatX == 0 {
			t.Fatalf("sharing=%v: flat run crossed no zone boundary", sharing)
		}
		if awareX*2 > flatX {
			t.Errorf("sharing=%v: awareness cut cross-zone bytes only %d -> %d, want >= 2x",
				sharing, flatX, awareX)
		}
		// The per-tier counters must decompose the fabric total.
		for _, pt := range []CrowdPoint{flat, aware} {
			var sum int64
			for _, b := range pt.TierBytes {
				sum += b
			}
			if total := int64(math.Round(pt.TrafficGB * 1e9)); sum != total {
				t.Errorf("sharing=%v aware=%v: tier bytes sum %d != total traffic %d",
					sharing, pt.Aware, sum, total)
			}
		}
		// Aware placement pins one replica in every zone, so no chunk
		// read has to leave its zone.
		if aware.ProviderTierReads[cluster.TierRemote] != 0 {
			t.Errorf("sharing=%v: %d aware provider reads crossed zones, want 0",
				sharing, aware.ProviderTierReads[cluster.TierRemote])
		}
	}
}

// TestCrossZoneDeterministic: the scenario is bit-for-bit repeatable
// in both policies, tier counters included.
func TestCrossZoneDeterministic(t *testing.T) {
	p := Quick()
	for _, aware := range []bool{false, true} {
		a := RunCrowd(p, CrossZone(8, aware, true))
		b := RunCrowd(p, CrossZone(8, aware, true))
		if a != b {
			t.Errorf("cross-zone (aware=%v) not deterministic:\n  %+v\n  %+v", aware, a, b)
		}
	}
}

// TestMetaOutageAllInstancesComplete: the headline property — with
// replicated metadata, killing half the metadata providers plus a full
// compute rack mid-deployment must not fail a single descent or lose a
// single instance, and the control-plane resilience machinery must
// actually have engaged.
func TestMetaOutageAllInstancesComplete(t *testing.T) {
	p := Quick()
	healthy, outage := MetaOutage(24, 0, false), MetaOutage(24, 8, true)
	healthy.Sharing, outage.Sharing = false, false
	hp, op := RunCrowd(p, healthy), RunCrowd(p, outage)

	for _, pt := range []CrowdPoint{hp, op} {
		if pt.Booted != pt.Instances {
			t.Fatalf("killed=%d: %d of %d instances booted", pt.Kill, pt.Booted, pt.Instances)
		}
		if pt.FailedDescents != 0 {
			t.Fatalf("killed=%d: %d metadata descents found no live replica", pt.Kill, pt.FailedDescents)
		}
	}
	if hp.MetaFailovers != 0 || hp.MetaRereplicated != 0 || hp.Failovers != 0 {
		t.Fatalf("healthy run exercised the failure path: %+v", hp)
	}
	if op.MetaFailovers == 0 {
		t.Error("outage run recorded no metadata failovers")
	}
	if op.MetaRereplicated == 0 {
		t.Error("outage run re-replicated no metadata")
	}
	// Losing half the control plane costs time, but not completeness.
	if op.Completion <= hp.Completion {
		t.Errorf("the outage did not slow completion: %.2f vs %.2f",
			op.Completion, hp.Completion)
	}

	tab := MetaOutageTable([]CrowdPoint{hp, op}).String()
	for _, want := range []string{"failed descents", "meta failovers", "yes", "no"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}

// TestMetaOutageDeterministic: the scenario is bit-for-bit repeatable —
// same seed, same kills, same counters — fault injection, rack
// expansion and repair sweeps included.
func TestMetaOutageDeterministic(t *testing.T) {
	p := Quick()
	s := MetaOutage(16, 6, true)
	a := RunCrowd(p, s)
	b := RunCrowd(p, s)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}
