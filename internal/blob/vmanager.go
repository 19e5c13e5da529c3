package blob

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blobvfs/internal/cluster"
)

// VersionManager is BlobSeer's serialization point: it registers blobs,
// hands out version tickets, and publishes snapshot roots in strict
// total order per blob. A snapshot becomes visible only when every
// earlier ticket of the same blob has been published, which is what
// lets writers push chunks and metadata concurrently and out of order
// (the decoupled publication that makes COMMIT cheap, paper §4.2).
//
// The manager runs on a single designated node; every operation is a
// small RPC. SetStandbys extends it to a replicated journal group:
// every mutating operation appends a journal record to the standby
// nodes before it is acknowledged, and when the manager's host is down
// the first live standby serves in its place — so Latest/Root/pin
// state survives the death of its host. The same code runs with or
// without standbys; blobvfs.Open configures them, and subscribes the
// group to liveness transitions, only when metadata replication is
// above 1, so the default single host is never marked down.
type VersionManager struct {
	node cluster.NodeID
	// hosts is the journal group: the manager's own node followed by
	// the configured standbys.
	hosts []cluster.NodeID
	alive map[cluster.NodeID]*atomic.Bool // journal-member liveness flags

	// retireEpoch counts retirement events. Versions are immutable and
	// only ever disappear through retirement, so a client-side cache of
	// resolved version metadata (Client's extent cache) stays valid for
	// exactly as long as this counter does not move; checking it is one
	// atomic load, off the manager's mutex.
	retireEpoch atomic.Uint64

	// Failovers counts operations a dead manager host pushed onto a
	// journal standby. Zero without standbys.
	Failovers atomic.Int64

	mu    sync.Mutex
	blobs map[ID]*blobState
	next  ID
}

type blobState struct {
	info      Info
	published []NodeRef           // published roots; index = version-1
	tickets   Version             // highest ticket handed out
	pending   map[Version]NodeRef // out-of-order completed commits
	gates     map[Version]*cluster.Gate
	retired   map[Version]bool // logically deleted versions
	pins      map[Version]int  // open-reference counts (mirrors, in-flight commits)
}

// NewVersionManager creates a version manager hosted on the given node.
func NewVersionManager(node cluster.NodeID) *VersionManager {
	vm := &VersionManager{
		node:  node,
		hosts: []cluster.NodeID{node},
		alive: make(map[cluster.NodeID]*atomic.Bool),
	}
	vm.blobs = make(map[ID]*blobState)
	up := &atomic.Bool{}
	up.Store(true)
	vm.alive[node] = up
	return vm
}

// Node returns the node hosting the manager.
func (vm *VersionManager) Node() cluster.NodeID { return vm.node }

// SetStandbys configures the journal standby nodes. Call before any
// traffic; the manager's own node and duplicates are skipped.
func (vm *VersionManager) SetStandbys(nodes []cluster.NodeID) {
	for _, n := range nodes {
		if _, ok := vm.alive[n]; ok {
			continue
		}
		up := &atomic.Bool{}
		up.Store(true)
		vm.alive[n] = up
		vm.hosts = append(vm.hosts, n)
	}
}

// Standbys returns the configured journal standby nodes.
func (vm *VersionManager) Standbys() []cluster.NodeID { return vm.hosts[1:] }

// NodeChanged is the cluster.Liveness listener for the journal group:
// it records the member's transition (transitions for other nodes are
// ignored). The journal needs no repair sweep — every live member
// already holds the full record stream, and a revived member is
// deterministically caught up by replaying it, which the model treats
// as free against the mutation costs already charged.
func (vm *VersionManager) NodeChanged(_ *cluster.Ctx, node cluster.NodeID, alive bool) {
	if a, ok := vm.alive[node]; ok {
		a.Store(alive)
	}
}

func (vm *VersionManager) isAlive(node cluster.NodeID) bool {
	a, ok := vm.alive[node]
	return ok && a.Load()
}

// activeHost returns the journal member currently serving manager
// operations: the manager's own node while it is up, else the first
// live standby (counted as a failover). With the whole group down the
// primary is still charged — the model has no notion of a hung RPC,
// and the caller's operation is doomed with the control plane gone
// entirely, which the metadata tier's failed gets already surface.
func (vm *VersionManager) activeHost() cluster.NodeID {
	if len(vm.hosts) == 1 || vm.isAlive(vm.node) {
		return vm.node
	}
	for _, h := range vm.hosts[1:] {
		if vm.isAlive(h) {
			vm.Failovers.Add(1)
			return h
		}
	}
	return vm.node
}

// charge costs one read-only manager RPC to the active journal host.
func (vm *VersionManager) charge(ctx *cluster.Ctx, req, resp int64) {
	ctx.RPC(vm.activeHost(), req, resp)
}

// chargeMut costs one mutating manager RPC: the operation to the
// active host plus a small journal-append record to every other live
// member of the group, so manager state survives the host's death.
// Without standbys the loop never runs and the cost is the single
// RPC.
func (vm *VersionManager) chargeMut(ctx *cluster.Ctx, req, resp int64) {
	active := vm.activeHost()
	ctx.RPC(active, req, resp)
	for _, h := range vm.hosts {
		if h != active && vm.isAlive(h) {
			ctx.RPC(h, 24, 16)
		}
	}
}

// CreateBlob registers a new empty blob with the given geometry and
// returns its ID. The blob has no published versions yet.
func (vm *VersionManager) CreateBlob(ctx *cluster.Ctx, size int64, chunkSize int) (ID, error) {
	if size < 0 || chunkSize <= 0 {
		return 0, fmt.Errorf("blob: geometry size=%d chunkSize=%d: %w", size, chunkSize, ErrOutOfRange)
	}
	vm.chargeMut(ctx, 32, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.next++
	id := vm.next
	chunks := (size + int64(chunkSize) - 1) / int64(chunkSize)
	vm.blobs[id] = &blobState{
		info:    Info{ID: id, Size: size, ChunkSize: chunkSize, Span: span2(chunks)},
		pending: make(map[Version]NodeRef),
		gates:   make(map[Version]*cluster.Gate),
		retired: make(map[Version]bool),
		pins:    make(map[Version]int),
	}
	return id, nil
}

// Info returns a blob's geometry. The result is immutable, so clients
// cache it; the first fetch charges an RPC.
func (vm *VersionManager) Info(ctx *cluster.Ctx, id ID) (Info, error) {
	vm.charge(ctx, 16, 48)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return Info{}, notFound("blob", id)
	}
	return st.info, nil
}

// Latest returns the newest published version that has not been
// retired (0 if none). Retirement unpublishes a version from the
// Latest chain: clients building on "the current image" never see a
// snapshot that is scheduled for reclamation.
func (vm *VersionManager) Latest(ctx *cluster.Ctx, id ID) (Version, error) {
	vm.charge(ctx, 16, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0, notFound("blob", id)
	}
	for v := Version(len(st.published)); v >= 1; v-- {
		if !st.retired[v] {
			return v, nil
		}
	}
	return 0, nil
}

// LiveVersions returns every published version of id that has not been
// retired, in ascending order (empty if none). One listing RPC is
// charged for the whole enumeration, before the state is read — the
// same observation ordering as every other manager operation.
func (vm *VersionManager) LiveVersions(ctx *cluster.Ctx, id ID) ([]Version, error) {
	vm.charge(ctx, 16, 64)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return nil, notFound("blob", id)
	}
	out := make([]Version, 0, len(st.published))
	for v := Version(1); int(v) <= len(st.published); v++ {
		if !st.retired[v] {
			out = append(out, v)
		}
	}
	return out, nil
}

// Root returns the published root of (id, v). A retired version is
// logically deleted: its root is no longer resolvable, even before the
// garbage collector has physically reclaimed its storage.
func (vm *VersionManager) Root(ctx *cluster.Ctx, id ID, v Version) (NodeRef, error) {
	vm.charge(ctx, 24, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0, notFound("blob", id)
	}
	if v < 1 || int(v) > len(st.published) {
		return 0, notFound("version", fmt.Sprintf("%d@%d", id, v))
	}
	if st.retired[v] {
		return 0, retired(id, v)
	}
	return st.published[v-1], nil
}

// Ticket reserves the next version number of the blob. The caller must
// eventually Publish it or the blob's version sequence stalls.
func (vm *VersionManager) Ticket(ctx *cluster.Ctx, id ID) (Version, error) {
	vm.chargeMut(ctx, 16, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0, notFound("blob", id)
	}
	st.tickets++
	return st.tickets, nil
}

// Publish reports that the snapshot for ticket v of blob id is complete
// (chunks and metadata durable) with the given root, and blocks until
// the version becomes visible, i.e. all earlier tickets are published.
func (vm *VersionManager) Publish(ctx *cluster.Ctx, id ID, v Version, root NodeRef) error {
	vm.chargeMut(ctx, 40, 16)
	vm.mu.Lock()
	st, ok := vm.blobs[id]
	if !ok {
		vm.mu.Unlock()
		return notFound("blob", id)
	}
	if v < 1 || v > st.tickets {
		vm.mu.Unlock()
		return fmt.Errorf("blob: publish of unticketed version %d@%d: %w", id, v, ErrOutOfRange)
	}
	if int(v) <= len(st.published) {
		vm.mu.Unlock()
		return fmt.Errorf("blob: version %d@%d: %w", id, v, ErrAlreadyPublished)
	}
	st.pending[v] = root
	// Fold any now-contiguous pending versions into the published list.
	var released []*cluster.Gate
	for {
		nextV := Version(len(st.published) + 1)
		r, ok := st.pending[nextV]
		if !ok {
			break
		}
		delete(st.pending, nextV)
		st.published = append(st.published, r)
		if g, ok := st.gates[nextV]; ok {
			released = append(released, g)
			delete(st.gates, nextV)
		}
	}
	var wait *cluster.Gate
	if int(v) > len(st.published) {
		wait = st.gates[v]
		if wait == nil {
			wait = cluster.NewGate()
			st.gates[v] = wait
		}
	}
	vm.mu.Unlock()
	for _, g := range released {
		g.Open(ctx)
	}
	if wait != nil {
		wait.Wait(ctx)
	}
	return nil
}

// Published returns (without cost) how many versions of id are visible.
func (vm *VersionManager) Published(id ID) int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0
	}
	return len(st.published)
}

// PinnedError reports an attempt to retire a version that is still
// open somewhere (a mirror has it mounted, or a commit is building on
// it). It wraps ErrVersionPinned.
type PinnedError struct {
	ID ID
	V  Version
}

func (e *PinnedError) Error() string {
	return fmt.Sprintf("blob: version %d@%d is pinned", e.ID, e.V)
}

// Unwrap makes errors.Is(err, ErrVersionPinned) true.
func (e *PinnedError) Unwrap() error { return ErrVersionPinned }

// Pin marks (id, v) as in use: a pinned version cannot be retired, so
// the garbage collector treats its snapshot as live. Mirrors pin the
// version they mirror for as long as the image is open, and clients
// pin the base of an in-flight commit or clone. Pinning a retired or
// unpublished version fails. Pins nest; every Pin needs one Unpin.
//
// The pin piggybacks on the RPC its caller is already making to the
// manager (Info/Root/Ticket), so no separate cost is charged.
func (vm *VersionManager) Pin(id ID, v Version) error {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return notFound("blob", id)
	}
	if v < 1 || int(v) > len(st.published) {
		return notFound("version", fmt.Sprintf("%d@%d", id, v))
	}
	if st.retired[v] {
		return retired(id, v)
	}
	st.pins[v]++
	return nil
}

// Unpin releases one pin on (id, v). Unknown pins are ignored.
func (vm *VersionManager) Unpin(id ID, v Version) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return
	}
	if st.pins[v] > 0 {
		if st.pins[v]--; st.pins[v] == 0 {
			delete(st.pins, v)
		}
	}
}

// Pins returns (without cost) the pin count of (id, v).
func (vm *VersionManager) Pins(id ID, v Version) int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0
	}
	return st.pins[v]
}

// Retire logically deletes version v of blob id: it disappears from
// Latest and Root immediately; the storage it holds exclusively is
// reclaimed by the next garbage collection. Retiring a pinned version
// fails with *PinnedError — the caller retries after the holder closes.
func (vm *VersionManager) Retire(ctx *cluster.Ctx, id ID, v Version) error {
	vm.chargeMut(ctx, 24, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return notFound("blob", id)
	}
	if v < 1 || int(v) > len(st.published) {
		return notFound("version", fmt.Sprintf("%d@%d", id, v))
	}
	if st.retired[v] {
		return retired(id, v)
	}
	if st.pins[v] > 0 {
		return &PinnedError{ID: id, V: v}
	}
	st.retired[v] = true
	vm.retireEpoch.Add(1)
	return nil
}

// RetireEpoch returns (without cost) the retirement event counter. See
// the field comment: snapshot-resolution caches are valid as long as
// the epoch they were filled under is still current.
func (vm *VersionManager) RetireEpoch() uint64 {
	return vm.retireEpoch.Load()
}

// IsLive reports (without cost) whether (id, v) is published and not
// retired. Snapshot-resolution caches use it as ground truth when the
// retirement epoch has moved since an entry was validated.
func (vm *VersionManager) IsLive(id ID, v Version) bool {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	return ok && v >= 1 && int(v) <= len(st.published) && !st.retired[v]
}

// RetireUpTo retires every published, unpinned version of id up to and
// including upTo, skipping pinned ones (they retire on a later sweep,
// once their holders close). It returns how many versions it retired.
// This is the primitive behind the keep-last-K retention policy.
func (vm *VersionManager) RetireUpTo(ctx *cluster.Ctx, id ID, upTo Version) (int, error) {
	vm.chargeMut(ctx, 24, 16)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0, notFound("blob", id)
	}
	if int(upTo) > len(st.published) {
		upTo = Version(len(st.published))
	}
	retired := 0
	for v := Version(1); v <= upTo; v++ {
		if !st.retired[v] && st.pins[v] == 0 {
			st.retired[v] = true
			retired++
		}
	}
	if retired > 0 {
		vm.retireEpoch.Add(1)
	}
	return retired, nil
}

// Retired returns (without cost) how many versions of id are retired.
func (vm *VersionManager) Retired(id ID) int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	st, ok := vm.blobs[id]
	if !ok {
		return 0
	}
	return len(st.retired)
}

// LiveRoot names one snapshot the garbage collector must treat as
// reachable: a published version that is not retired, or retired but
// still pinned (retirement of pinned versions is skipped, so the
// second case cannot normally arise — it is kept for safety).
type LiveRoot struct {
	ID   ID
	V    Version
	Root NodeRef
	Span int64
}

// LiveRoots returns every live snapshot root across all blobs, in
// (blob, version) order — the garbage collector's mark roots. One scan
// RPC to the manager is charged for the whole listing.
func (vm *VersionManager) LiveRoots(ctx *cluster.Ctx) []LiveRoot {
	vm.mu.Lock()
	var out []LiveRoot
	for id := ID(1); id <= vm.next; id++ {
		st, ok := vm.blobs[id]
		if !ok {
			continue
		}
		for v := Version(1); int(v) <= len(st.published); v++ {
			if st.retired[v] && st.pins[v] == 0 {
				continue
			}
			out = append(out, LiveRoot{ID: id, V: v, Root: st.published[v-1], Span: st.info.Span})
		}
	}
	vm.mu.Unlock()
	vm.charge(ctx, 16, int64(len(out))*24+16)
	return out
}
