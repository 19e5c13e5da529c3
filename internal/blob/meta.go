package blob

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// metaShards stripes the node store so concurrent readers (the 16-way
// parallel fetchers of every client, times the number of clients in a
// deployment) do not serialize on one map mutex. Power of two; node
// refs are allocated sequentially, so masking spreads them evenly.
const metaShards = 16

type metaShard struct {
	mu    sync.RWMutex
	nodes map[NodeRef]TreeNode
}

// MetaService is the distributed metadata store: immutable segment-tree
// nodes spread over a set of metadata provider nodes by reference hash,
// as in BlobSeer's metadata DHT. Because nodes are immutable, clients
// cache them freely (see Client); the service itself never invalidates.
//
// The in-memory store is hash-striped (metaShards segments, RWMutex
// each): nodes are written once and read many times, so the hot read
// path takes only a shared lock on one stripe.
//
// Each ref lives on a ring of SetReplication(r) metadata providers (r
// = 1 by default: the home provider alone), placed by the same policy
// as the chunk plane (placement.go): writes fan out to every live ring
// member and write around dead ones (voids + substitutes), reads probe
// the nearest live replica first and fail over down the ring, and a
// liveness-driven repair sweep (metarepair.go) restores the degree
// after every transition. The same path runs at every degree; the
// control plane is fault-free by default only because blobvfs.Open
// subscribes the tier to liveness transitions when r > 1.
type MetaService struct {
	// placement owns the ring walk, liveness flags, degraded-placement
	// bookkeeping (guarded by repMu), the failover pick and the repair
	// planner, shared with the chunk plane.
	placement[NodeRef]
	nextRef atomic.Uint64

	shards [metaShards]metaShard

	pendMu  sync.Mutex
	pending map[NodeRef]bool // refs of in-flight, unpublished versions

	// repMu guards the placement's voids and repairs.
	repMu sync.RWMutex

	// Puts and Gets count service operations (after batching);
	// NodesServed counts individual tree nodes returned by Get/GetBatch
	// (so Gets/NodesServed exposes the batching factor); Freed counts
	// tree nodes reclaimed by garbage-collection sweeps.
	Puts, Gets, NodesServed, Freed atomic.Int64
	// FailedGets counts gets that found no live copy (the failed
	// descents a metadata outage is judged by). The embedded placement
	// counts Failovers (gets a dead replica pushed onto a surviving
	// one) and Rereplicated (tree-node copies restored by repair
	// sweeps).
	FailedGets atomic.Int64
}

// NewMetaService creates a metadata store over the given provider
// nodes, at replication degree 1.
func NewMetaService(providers []cluster.NodeID) *MetaService {
	m := &MetaService{pending: make(map[NodeRef]bool)}
	m.init(providers, 1)
	for i := range m.shards {
		m.shards[i].nodes = make(map[NodeRef]TreeNode)
	}
	return m
}

// SetReplication sets the metadata replication degree, in
// [1, providers]. Call before any traffic.
func (m *MetaService) SetReplication(r int) { m.setDegree(r) }

func (m *MetaService) shard(ref NodeRef) *metaShard {
	return &m.shards[uint64(ref)&(metaShards-1)]
}

// Get fetches one tree node, charging a small RPC to the replica that
// serves it: the nearest live one, dead ones costing a probe each. A
// ref with every copy down fails with ErrNoReplica.
func (m *MetaService) Get(ctx *cluster.Ctx, ref NodeRef) (TreeNode, error) {
	m.repMu.RLock()
	slot, probes := m.pickLocked(ctx.Node(), ref)
	m.repMu.RUnlock()
	probeWait(ctx, probes)
	if slot < 0 {
		m.FailedGets.Add(1)
		return TreeNode{}, fmt.Errorf("blob: metadata node %d: %w", ref, ErrNoReplica)
	}
	ctx.RPC(m.nodes[slot], 16, treeNodeWire)
	m.Gets.Add(1)
	sh := m.shard(ref)
	sh.mu.RLock()
	n, ok := sh.nodes[ref]
	sh.mu.RUnlock()
	if !ok {
		return TreeNode{}, notFound("metadata node", ref)
	}
	m.NodesServed.Add(1)
	return n, nil
}

// MissingNodesError reports how many refs of a batched metadata get
// could not be served — refs with no stored node and refs whose every
// copy was down. It unwraps to a
// *NotFoundError for the first failing ref (and through it to
// ErrNotFound), so existing errors.Is and errors.As checks keep
// matching.
type MissingNodesError struct {
	// Missing is the number of refs the batch could not serve.
	Missing int
	// First is the first failing ref, in batch order.
	First NodeRef
}

// Error renders the count and the first failing ref.
func (e *MissingNodesError) Error() string {
	return fmt.Sprintf("blob: batched metadata get missing %d node(s), first ref %d: not found", e.Missing, e.First)
}

// Unwrap yields the first failing ref's *NotFoundError.
func (e *MissingNodesError) Unwrap() error {
	return &NotFoundError{Kind: "metadata node", What: e.First}
}

// GetBatch fetches many tree nodes at once, grouping the refs by
// serving provider and charging one RPC per distinct provider — the
// read-side twin of PutBatch, and what turns a client's level-order
// tree descent into depth rounds instead of node-count round trips.
// The result is aligned with refs; a ref with no stored node fails
// the batch with a *MissingNodesError (the full round is still
// charged — the providers did the lookups).
func (m *MetaService) GetBatch(ctx *cluster.Ctx, refs []NodeRef) ([]TreeNode, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	out := make([]TreeNode, len(refs))
	if err := m.GetBatchInto(ctx, refs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetBatchInto is GetBatch resolving into a caller-provided slice
// (len(out) must be len(refs)), so tight descent loops can reuse one
// buffer per level instead of allocating twice.
//
// Partial-fill contract: on error every found ref is still filled in
// (its out entry is valid()); the missing ones stay the zero
// TreeNode, and the returned *MissingNodesError carries how many refs
// failed and the first failing ref. A ref whose every copy is down
// also counts as missing (and as a failed get); the rest of the batch
// is still charged and filled.
func (m *MetaService) GetBatchInto(ctx *cluster.Ctx, refs []NodeRef, out []TreeNode) error {
	// Pick each ref's serving replica, then charge per-provider batches
	// in deterministic (provider ring) order. The refs of one level are
	// probed in parallel, so the batch waits once for the worst ref's
	// dead-holder probes rather than summing them.
	counts := make([]int64, len(m.nodes))
	var down []bool // refs with no live replica
	maxProbes := 0
	m.repMu.RLock()
	for i, ref := range refs {
		slot, probes := m.pickLocked(ctx.Node(), ref)
		maxProbes = max(maxProbes, probes)
		if slot < 0 {
			if down == nil {
				down = make([]bool, len(refs))
			}
			down[i] = true
			m.FailedGets.Add(1)
			continue
		}
		counts[slot]++
	}
	m.repMu.RUnlock()
	probeWait(ctx, maxProbes)
	for slot, prov := range m.nodes {
		if c := counts[slot]; c > 0 {
			ctx.RPC(prov, c*16, c*treeNodeWire)
			m.Gets.Add(1)
		}
	}
	var missing *MissingNodesError
	served := int64(0)
	for i, ref := range refs {
		if down != nil && down[i] {
			if missing == nil {
				missing = &MissingNodesError{First: ref}
			}
			missing.Missing++
			continue
		}
		sh := m.shard(ref)
		sh.mu.RLock()
		n, ok := sh.nodes[ref]
		sh.mu.RUnlock()
		if !ok {
			if missing == nil {
				missing = &MissingNodesError{First: ref}
			}
			missing.Missing++
			continue
		}
		out[i] = n
		served++
	}
	m.NodesServed.Add(served)
	if missing == nil {
		return nil
	}
	return missing
}

// PutBatch stores freshly built nodes, batching the RPCs per provider
// (one request per distinct provider). This is what a BlobSeer client
// library does when it writes the new subtree of a version. Each node
// fans out to every live ring member; a ring member that is down takes
// no copy — the writer records it as a void and pushes the missing
// copy to a live substitute instead (writing around the failure), so
// nodes are born at full degree whenever enough providers are up. A
// node with every provider down cannot be placed and is dropped (its
// later gets fail, and count as failed).
func (m *MetaService) PutBatch(ctx *cluster.Ctx, nodes []NewNode) {
	if len(nodes) == 0 {
		return
	}
	counts := make(map[cluster.NodeID]int64)
	var dropped []bool // nodes no provider could take
	for i, nn := range nodes {
		var buf [ringBuf]cluster.NodeID
		live, dead, subs := m.place(buf[:0], nn.Ref, true)
		for _, prov := range live {
			counts[prov]++
		}
		for _, s := range subs {
			counts[s]++
		}
		if len(live)+len(subs) == 0 {
			if dropped == nil {
				dropped = make([]bool, len(nodes))
			}
			dropped[i] = true
			continue
		}
		if len(dead) > 0 {
			m.repMu.Lock()
			m.recordLocked(nn.Ref, dead, subs)
			m.repMu.Unlock()
		}
	}
	// Charge per-provider batches in deterministic (provider ring) order.
	for _, prov := range m.nodes {
		if c := counts[prov]; c > 0 {
			ctx.RPC(prov, c*treeNodeWire, 16)
			m.Puts.Add(1)
		}
	}
	for i, nn := range nodes {
		if dropped != nil && dropped[i] {
			continue
		}
		sh := m.shard(nn.Ref)
		sh.mu.Lock()
		sh.nodes[nn.Ref] = nn.Node
		sh.mu.Unlock()
	}
}

// AllocPendingRef returns a fresh globally unique node reference for
// a version being built (refs are client-generated in BlobSeer as
// well, so no RPC is charged): the ref is atomically registered as
// pending so a concurrent sweep will not reclaim the node before its
// version publishes. The writer must ClearPending after publication
// (or abort). See ProviderSet.AllocPendingKey for the
// snapshot-atomicity argument.
func (m *MetaService) AllocPendingRef() NodeRef {
	m.pendMu.Lock()
	ref := NodeRef(m.nextRef.Add(1))
	m.pending[ref] = true
	m.pendMu.Unlock()
	return ref
}

// ClearPending removes the in-flight mark from refs (idempotent).
func (m *MetaService) ClearPending(refs []NodeRef) {
	m.pendMu.Lock()
	for _, r := range refs {
		delete(m.pending, r)
	}
	m.pendMu.Unlock()
}

// PendingSnapshot atomically samples the ref watermark and the set of
// in-flight refs, taken at the start of a collection cycle.
func (m *MetaService) PendingSnapshot() (NodeRef, map[NodeRef]bool) {
	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	wm := NodeRef(m.nextRef.Load())
	pending := make(map[NodeRef]bool, len(m.pending))
	for r := range m.pending {
		pending[r] = true
	}
	return wm, pending
}

// Sweep deletes every stored node up to the watermark that is neither
// in the live set nor in the pending snapshot, and returns how many it
// removed, charging one batched delete RPC per live provider holding
// any of the swept nodes — every ring member that stored its copy plus
// the substitutes (immutable nodes need no further coordination to
// drop). The caller guarantees the live set covers every node
// reachable from a live snapshot root.
func (m *MetaService) Sweep(ctx *cluster.Ctx, upTo NodeRef, live, pending map[NodeRef]bool) int {
	var dropped []NodeRef
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for ref := range sh.nodes {
			if ref <= upTo && !live[ref] && !pending[ref] {
				delete(sh.nodes, ref)
				dropped = append(dropped, ref)
			}
		}
		sh.mu.Unlock()
	}
	// Count each swept ref's live holders before its degraded-placement
	// records, which name some of them, are forgotten.
	counts := make([]int64, len(m.nodes))
	m.repMu.Lock()
	for _, ref := range dropped {
		m.countLiveLocationsLocked(counts, ref)
		m.forgetLocked(ref)
	}
	m.repMu.Unlock()
	for slot, prov := range m.nodes {
		if c := counts[slot]; c > 0 {
			ctx.RPC(prov, c*16, 16)
		}
	}
	m.Freed.Add(int64(len(dropped)))
	return len(dropped)
}

// NodeCount returns the number of stored tree nodes (metadata footprint).
func (m *MetaService) NodeCount() int {
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		total += len(sh.nodes)
		sh.mu.RUnlock()
	}
	return total
}

// peek returns a node without charging any cost; used by in-process
// verification and tests.
func (m *MetaService) peek(ref NodeRef) (TreeNode, bool) {
	sh := m.shard(ref)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n, ok := sh.nodes[ref]
	return n, ok
}
