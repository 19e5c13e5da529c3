package blob

import (
	"fmt"
	"slices"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// placement is the replica-placement policy shared by the two kinds of
// objects spread over the providers: chunk payloads (ProviderSet,
// keyed by ChunkKey) and segment-tree nodes (MetaService, keyed by
// NodeRef). It owns the ring walk that maps a key to its replicas, the
// providers' liveness flags, the degraded-placement bookkeeping, the
// probe-and-failover pick that serves reads, and the repair-sweep
// planner. The owner embeds it and keeps only what differs between
// the two tiers: payload storage and cost charging.
//
// voids and repairs are guarded by the owner's lock (ProviderSet.mu,
// MetaService.repMu); every method whose name ends in Locked expects
// the caller to hold it. The rest of the state is either immutable
// after construction (nodes, slot, degree, topology — set before any
// traffic) or atomic.
type placement[K ~uint64] struct {
	nodes    []cluster.NodeID
	slot     map[cluster.NodeID]int // node → its index in nodes and up
	up       []atomic.Bool          // liveness flags, by slot
	replicas int
	// topo, when enabled, makes placement and reads locality-aware:
	// rings spread a key's copies across failure domains (zones first,
	// then racks), and reads probe the reader's nearest live copy
	// first. The zero topology keeps the flat consecutive ring.
	topo cluster.Topology

	// repairs holds the substitute locations created for a key — by a
	// repair sweep after one of its ring replicas died, or by a
	// degraded write that pushed a dead replica's copy to a substitute.
	// Reads consult them after the ring. voids lists ring replicas that
	// never received their copy (down at write time): they are not
	// locations until a repair sweep backfills them, even after a
	// revival.
	repairs map[K][]cluster.NodeID
	voids   map[K][]cluster.NodeID

	// Failovers counts reads a dead holder pushed onto a later copy;
	// Rereplicated counts copies re-created by repair sweeps.
	Failovers, Rereplicated atomic.Int64
	// tierReads counts served reads by the locality tier between the
	// reader and the serving node (TierRack on a flat topology,
	// TierLocal when reader == server).
	tierReads [cluster.NumTiers]atomic.Int64
}

// ringBuf sizes the stack buffers hot callers walk a ring into: room
// for a ring plus a few substitutes without touching the heap (append
// spills to the heap beyond it, so it is a hint, not a limit).
const ringBuf = 8

// init sets the placement up over nodes at the given degree, every
// node alive.
func (p *placement[K]) init(nodes []cluster.NodeID, replicas int) {
	if len(nodes) == 0 {
		panic("blob: placement needs at least one node")
	}
	p.nodes = nodes
	p.slot = make(map[cluster.NodeID]int, len(nodes))
	p.up = make([]atomic.Bool, len(nodes))
	for i, n := range nodes {
		p.slot[n] = i
		p.up[i].Store(true)
	}
	p.setDegree(replicas)
	p.repairs = make(map[K][]cluster.NodeID)
	p.voids = make(map[K][]cluster.NodeID)
}

// setDegree sets the replication degree, which must lie in
// [1, len(nodes)].
func (p *placement[K]) setDegree(replicas int) {
	if replicas < 1 || replicas > len(p.nodes) {
		panic(fmt.Sprintf("blob: replication degree %d invalid for %d nodes", replicas, len(p.nodes)))
	}
	p.replicas = replicas
}

// SetTopology makes placement and reads locality-aware (see the topo
// field). Call it right after construction, before any traffic:
// placement must not change under stored objects, or their ring walks
// would resolve to different replicas than the ones holding the data.
func (p *placement[K]) SetTopology(t cluster.Topology) { p.topo = t }

// ReplicationDegree returns the configured replication degree.
func (p *placement[K]) ReplicationDegree() int { return p.replicas }

// TierReads returns the served reads per locality tier, indexed by
// cluster.Tier — the distribution topology-aware selection shifts
// toward the near tiers.
func (p *placement[K]) TierReads() [cluster.NumTiers]int64 {
	var out [cluster.NumTiers]int64
	for i := range p.tierReads {
		out[i] = p.tierReads[i].Load()
	}
	return out
}

// Kill marks a node as failed: it stops serving reads and taking
// writes. Objects replicated elsewhere stay readable.
func (p *placement[K]) Kill(node cluster.NodeID) { p.setAlive(node, false) }

// Revive brings a failed node back: it serves the copies it held
// again; copies it missed while down stay voids until a repair sweep
// backfills them.
func (p *placement[K]) Revive(node cluster.NodeID) { p.setAlive(node, true) }

// setAlive flips a node's liveness flag, reporting false (and doing
// nothing) for a node outside the set.
func (p *placement[K]) setAlive(node cluster.NodeID, alive bool) bool {
	i, ok := p.slot[node]
	if ok {
		p.up[i].Store(alive)
	}
	return ok
}

func (p *placement[K]) isAlive(node cluster.NodeID) bool {
	i, ok := p.slot[node]
	return ok && p.up[i].Load()
}

// primarySlot returns the index into nodes of a key's primary replica
// — the single place the placement hash lives; every ring walk starts
// here.
func (p *placement[K]) primarySlot(k K) int {
	return int(uint64(k) % uint64(len(p.nodes)))
}

// Replicas returns the nodes responsible for a key, primary first, in
// a fresh slice. Hot paths use appendReplicas with a stack buffer.
func (p *placement[K]) Replicas(k K) []cluster.NodeID {
	return p.appendReplicas(make([]cluster.NodeID, 0, p.replicas), k)
}

// appendReplicas appends a key's ring to buf, primary first. Without a
// topology the ring is walked consecutively (§3.1.3 round-robin
// striping). With one, the walk spreads the copies across failure
// domains: the first pass only takes nodes in zones no earlier replica
// occupies, the second pass fresh racks, and the final pass fills any
// remainder in plain ring order — so a key at replication degree z
// survives z-1 zone losses, and the degenerate single-domain topology
// reproduces the flat ring walk exactly.
func (p *placement[K]) appendReplicas(buf []cluster.NodeID, k K) []cluster.NodeID {
	n := len(p.nodes)
	first := p.primarySlot(k)
	if !p.topo.Enabled() || p.replicas == 1 {
		for i := 0; i < p.replicas; i++ {
			buf = append(buf, p.nodes[(first+i)%n])
		}
		return buf
	}
	start := len(buf)
	for pass := 0; pass < 3 && len(buf)-start < p.replicas; pass++ {
		for i := 0; i < n && len(buf)-start < p.replicas; i++ {
			if nd := p.nodes[(first+i)%n]; p.fresh(buf[start:], nd, pass) {
				buf = append(buf, nd)
			}
		}
	}
	return buf
}

// fresh reports whether nd may join a partial ring in the given pass
// of the failure-domain walk: never twice, and in pass 0 only into a
// zone no member occupies, in pass 1 only into a fresh rack.
func (p *placement[K]) fresh(ring []cluster.NodeID, nd cluster.NodeID, pass int) bool {
	for _, o := range ring {
		switch {
		case o == nd,
			pass == 0 && p.topo.Zone(o) == p.topo.Zone(nd),
			pass == 1 && p.topo.Rack(o) == p.topo.Rack(nd):
			return false
		}
	}
	return true
}

// orderByLocality stably reorders a location list so the reader's
// nearest copies come first; within a tier the existing failover order
// is preserved. A disabled topology leaves the order untouched. The
// sort is an adjacent-swap insertion sort: location lists are a
// handful of entries, and adjacent swaps keep it stable.
func (p *placement[K]) orderByLocality(reader cluster.NodeID, locs []cluster.NodeID) {
	if !p.topo.Enabled() || len(locs) < 2 {
		return
	}
	for i := 1; i < len(locs); i++ {
		ti := p.topo.Tier(reader, locs[i])
		for j := i; j > 0 && p.topo.Tier(reader, locs[j-1]) > ti; j-- {
			locs[j-1], locs[j] = locs[j], locs[j-1]
		}
	}
}

// appendLocationsLocked appends the nodes holding a key's copies to
// buf in failover order: ring replicas that actually stored it (a
// replica down at write time never received its copy — see voids),
// then the substitute locations degraded writes and repair sweeps
// created.
func (p *placement[K]) appendLocationsLocked(buf []cluster.NodeID, k K) []cluster.NodeID {
	start := len(buf)
	buf = p.appendReplicas(buf, k)
	if voids := p.voids[k]; len(voids) > 0 {
		kept := buf[:start]
		for _, n := range buf[start:] {
			if !slices.Contains(voids, n) {
				kept = append(kept, n)
			}
		}
		buf = kept
	}
	return append(buf, p.repairs[k]...)
}

// countLiveLocationsLocked adds one to counts[slot] for every live
// node holding a copy of k: the per-holder tally of a delete, which
// must run before k's records are forgotten.
func (p *placement[K]) countLiveLocationsLocked(counts []int64, k K) {
	var buf [ringBuf]cluster.NodeID
	for _, n := range p.appendLocationsLocked(buf[:0], k) {
		if slot := p.slot[n]; p.up[slot].Load() {
			counts[slot]++
		}
	}
}

// liveLocationsLocked returns the live nodes holding a key's copies,
// in failover order, in a fresh slice.
func (p *placement[K]) liveLocationsLocked(k K) []cluster.NodeID {
	var buf [ringBuf]cluster.NodeID
	var out []cluster.NodeID
	for _, n := range p.appendLocationsLocked(buf[:0], k) {
		if p.isAlive(n) {
			out = append(out, n)
		}
	}
	return out
}

// pickLocked chooses the copy that serves a read of k issued from
// reader: k's locations in failover order, nearest tier first, skipping
// dead holders. It returns the serving node's slot (-1 when every copy
// is down) and how many dead holders the reader probed first; each
// probe costs a timed-out request, which the caller charges (probeWait)
// after releasing its lock, so a batch can overlap its probes. A read
// served past the first location counts a failover, and every served
// read counts in its locality tier.
func (p *placement[K]) pickLocked(reader cluster.NodeID, k K) (slot, probes int) {
	var buf [ringBuf]cluster.NodeID
	locs := p.appendLocationsLocked(buf[:0], k)
	p.orderByLocality(reader, locs)
	for i, n := range locs {
		if s := p.slot[n]; p.up[s].Load() {
			if i > 0 {
				p.Failovers.Add(1)
			}
			p.tierReads[p.topo.Tier(reader, n)].Add(1)
			return s, probes
		}
		probes++
	}
	return -1, probes
}

// probeWait charges the reader one timed-out request per dead holder
// it probed before reaching a live copy.
func probeWait(ctx *cluster.Ctx, probes int) {
	if probes > 0 {
		cfg := ctx.Fabric().Config()
		ctx.Sleep(float64(probes) * (cfg.RTT + cfg.ReqOverhead))
	}
}

// place resolves where a fresh write of k goes. It appends k's live
// ring members to buf and returns them (the nodes that take a copy),
// the dead ones (voids: they take no copy), and — with withSubs set —
// up to one live substitute outside the ring per void, walking the
// node list from k's primary slot, so the write is born at full degree
// whenever enough nodes are up. dead and subs stay nil on a healthy
// ring.
func (p *placement[K]) place(buf []cluster.NodeID, k K, withSubs bool) (live, dead, subs []cluster.NodeID) {
	start := len(buf)
	ring := p.appendReplicas(buf, k)
	live = ring[:start]
	for _, n := range ring[start:] {
		if p.isAlive(n) {
			live = append(live, n)
		} else {
			dead = append(dead, n)
		}
	}
	if !withSubs || len(dead) == 0 {
		return live, dead, nil
	}
	first := p.primarySlot(k)
	for i := 0; i < len(p.nodes) && len(subs) < len(dead); i++ {
		cand := p.nodes[(first+i)%len(p.nodes)]
		if p.isAlive(cand) && !slices.Contains(live[start:], cand) && !slices.Contains(dead, cand) {
			subs = append(subs, cand)
		}
	}
	return live, dead, subs
}

// recordLocked registers a degraded write of k: its dead ring members
// become voids and its substitutes extra locations. The caller holds
// the owner's lock exclusively.
func (p *placement[K]) recordLocked(k K, dead, subs []cluster.NodeID) {
	if len(dead) == 0 {
		return
	}
	p.voids[k] = dead
	if len(subs) > 0 {
		p.repairs[k] = subs
	}
}

// forgetLocked drops a deleted key's degraded-placement records.
func (p *placement[K]) forgetLocked(k K) {
	delete(p.voids, k)
	delete(p.repairs, k)
}

// repairJob is one copy a repair sweep re-creates: k's content pulled
// from src onto dst. size is the payload the copy moves, filled in by
// owners whose objects vary in size.
type repairJob[K ~uint64] struct {
	key      K
	src, dst cluster.NodeID
	size     int64
}

// planRepairLocked restores the replication degree of every
// under-replicated key of keys (which the caller sorts, for
// determinism): for each key whose live location count fell below the
// degree, new holders are chosen walking the ring from its primary
// slot — live nodes not already in the location set; a void ring
// member is the key's rightful home, so it is backfilled (and stops
// being a void) before a substitute outside the ring is added — until
// the degree is restored or no eligible node remains. Each copy is
// pulled from the key's first live location. Keys whose every copy is
// gone cannot be repaired and are skipped. The substitutions are
// registered here, under the caller's exclusive lock, so reads fail
// over to them as soon as it is released; the returned jobs, in key
// order, are what the caller charges (rereplicate).
func (p *placement[K]) planRepairLocked(keys []K) []repairJob[K] {
	var jobs []repairJob[K]
	n := len(p.nodes)
	for _, k := range keys {
		var rb, lb [ringBuf]cluster.NodeID
		ring := p.appendReplicas(rb[:0], k)
		locs := p.appendLocationsLocked(lb[:0], k)
		src, live := cluster.NodeID(-1), 0
		for _, l := range locs {
			if p.isAlive(l) {
				if live == 0 {
					src = l
				}
				live++
			}
		}
		if live == 0 || live >= p.replicas {
			continue
		}
		first := p.primarySlot(k)
		for i := 0; i < n && live < p.replicas; i++ {
			cand := p.nodes[(first+i)%n]
			if !p.isAlive(cand) || slices.Contains(locs, cand) {
				continue
			}
			if slices.Contains(ring, cand) {
				p.voids[k] = removeProvider(p.voids[k], cand)
				if len(p.voids[k]) == 0 {
					delete(p.voids, k)
				}
			} else {
				p.repairs[k] = append(p.repairs[k], cand)
			}
			locs = append(locs, cand)
			live++
			jobs = append(jobs, repairJob[K]{key: k, src: src, dst: cand})
		}
	}
	return jobs
}

// rereplicate charges a repair sweep's copies: one puller activity per
// destination node, spawned in node order, each running pull for its
// jobs in plan order, so the sweep is deterministic regardless of map
// iteration. It adds the copies to Rereplicated and returns how many
// there were.
func (p *placement[K]) rereplicate(ctx *cluster.Ctx, name string, jobs []repairJob[K], pull func(cc *cluster.Ctx, j repairJob[K])) int {
	if len(jobs) == 0 {
		return 0
	}
	p.Rereplicated.Add(int64(len(jobs)))
	perDst := make(map[cluster.NodeID][]repairJob[K])
	for _, j := range jobs {
		perDst[j.dst] = append(perDst[j.dst], j)
	}
	tasks := make([]cluster.Task, 0, len(perDst))
	for _, dst := range p.nodes {
		mine := perDst[dst]
		if len(mine) == 0 {
			continue
		}
		tasks = append(tasks, ctx.Go(name, dst, func(cc *cluster.Ctx) {
			for _, j := range mine {
				pull(cc, j)
			}
		}))
	}
	ctx.WaitAll(tasks)
	return len(jobs)
}

// removeProvider deletes the first occurrence of n, in place.
func removeProvider(nodes []cluster.NodeID, n cluster.NodeID) []cluster.NodeID {
	if i := slices.Index(nodes, n); i >= 0 {
		return slices.Delete(nodes, i, i+1)
	}
	return nodes
}
