package mirror

import (
	"errors"
	"fmt"
	"sync"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// Config carries the module's modeling constants.
type Config struct {
	// OpOverhead is the per-operation user/kernel crossing cost of the
	// FUSE layer in seconds (context switches, §4.1 of the paper).
	OpOverhead float64
	// FetchRetries is how many times a remote chunk fetch that failed
	// because every replica was down (blob.ErrNoReplica) is retried
	// before the error propagates to the hypervisor. Between attempts
	// the module backs off RetryDelay seconds — the window in which
	// re-replication restores a copy or a cohort sibling announces
	// one. 0 propagates the first failure.
	FetchRetries int
	// RetryDelay is the backoff between fetch retries in seconds.
	RetryDelay float64
	// BatchedCommit overlaps the CLONE of a forking Snapshot with the
	// commit's local prepare phase (gap fill and payload capture). It
	// is set together with the client's write batching (one provider
	// RPC per provider per commit round); both default off — the
	// unbatched commit costs are pinned by the figure scenarios.
	BatchedCommit bool
}

// DefaultConfig returns the calibrated FUSE crossing cost and two fetch
// retries 50 ms apart (enough for one synchronous re-replication round
// to land).
func DefaultConfig() Config {
	return Config{OpOverhead: 20e-6, FetchRetries: 2, RetryDelay: 0.05}
}

// Module is the per-node mirroring module. It owns the node's local
// mirror files and their persisted modification metadata, so an image
// closed on this node can be reopened with its local state restored
// (paper §4.2: the local modification manager writes its metadata next
// to the local file on close).
type Module struct {
	node   cluster.NodeID
	client *blob.Client
	cfg    Config
	sharer blob.ChunkSharer // optional p2p cohort; set before opening images

	// pinHook is a test seam: Clone's pin of the fresh clone (normally
	// infallible — version 1 was published moments before) consults it
	// first, so tests can force the pin-failure cleanup path, which is
	// unreachable deterministically otherwise (Pin is a local call).
	pinHook func(id blob.ID, v blob.Version) error

	mu     sync.Mutex
	closed map[blob.ID]*localState // persisted local state by origin blob
}

type localState struct {
	version   blob.Version
	chunks    []chunkState
	local     []byte
	announced map[int64]blob.ChunkKey
}

// chunkState is the local modification manager's record for one chunk:
// at most one contiguous mirrored byte range [MirLo,MirHi) and one
// contiguous dirty byte range [DirtyLo,DirtyHi), both chunk-relative.
// Dirty is always contained in mirrored.
type chunkState struct {
	MirLo, MirHi     int32
	DirtyLo, DirtyHi int32
}

func (cs chunkState) mirrored() bool { return cs.MirHi > cs.MirLo }
func (cs chunkState) dirty() bool    { return cs.DirtyHi > cs.DirtyLo }

// NewModule creates the mirroring module for a node, attached to the
// blob storage service through client.
func NewModule(node cluster.NodeID, client *blob.Client, cfg Config) *Module {
	return &Module{
		node:   node,
		client: client,
		cfg:    cfg,
		closed: make(map[blob.ID]*localState),
	}
}

// Node returns the node this module runs on.
func (m *Module) Node() cluster.NodeID { return m.node }

// SetSharer attaches the module (and its blob client) to a p2p sharing
// cohort: subsequent image opens announce mirrored chunks and consult
// cohort peers on demand misses. Call it before opening images.
func (m *Module) SetSharer(s blob.ChunkSharer) {
	m.sharer = s
	m.client.SetSharer(s)
}

// Stats aggregates an image's access accounting.
type Stats struct {
	Reads, Writes      int64 // hypervisor-issued operations
	RemoteChunkFetches int64 // chunks fetched from the repository
	RemoteBytesFetched int64 // payload bytes fetched
	LocalReads         int64 // reads served entirely from the mirror
	GapFills           int64 // writes that forced a remote gap fill
	Commits, Clones    int64
	CommittedChunks    int64
	CommittedBytes     int64
	PrefetchedChunks   int64 // chunks brought in by Prefetch, not demand
	DuplicateFetches   int64 // concurrent fetches of the same chunk, counted once
	FetchRetries       int64 // remote fetches re-attempted after ErrNoReplica
}

// Image is an open mirrored image: the raw file the hypervisor sees.
// Hypervisor-facing methods must be called from the owning activity (a
// VM's virtual disk has one queue here, like the paper's
// one-FUSE-mount-per-VM deployment), with one sanctioned exception:
// Prefetch may run from a concurrent activity to overlap with the
// boot. The mutable state below is therefore guarded by mu, which is
// never held across fabric operations.
type Image struct {
	mod  *Module
	info blob.Info

	mu      sync.Mutex
	blobID  blob.ID      // changes on Clone
	version blob.Version // changes on Commit
	chunks  []chunkState
	local   []byte // real local mirror; nil when running synthetic
	open    bool
	stats   Stats

	// accessOrder records the chunk indices fetched on demand, in
	// order — the access profile of §7's proposed prefetching scheme.
	accessOrder []int64
	// announced maps chunk index → the key this image announced to its
	// sharing cohort, so a dirtying write can retract it.
	announced map[int64]blob.ChunkKey
	// inflight counts remote fetches currently running per chunk, so a
	// prefetch skips chunks a demand fetch is already bringing in.
	inflight map[int64]int
	// publishing marks chunk indices whose captured payload a commit is
	// currently pushing to the fabric; during records the dirty hull of
	// writes landing on those chunks inside that window, so commit
	// completion re-marks exactly the bytes the published snapshot does
	// not contain instead of wiping them from the dirty map.
	publishing map[int64]bool
	during     map[int64]dirtyRange
}

// dirtyRange is a chunk-relative [Lo,Hi) byte hull.
type dirtyRange struct {
	Lo, Hi int32
}

// Open mirrors snapshot (id, v) as a local raw image file. If the
// module holds persisted local state for this blob (from a previous
// Close on this node), it is restored, including dirty data. When
// real is true the image materializes a local byte buffer and serves
// actual data; synthetic images only track state and costs.
func (m *Module) Open(ctx *cluster.Ctx, id blob.ID, v blob.Version, real bool) (*Image, error) {
	if ctx.Node() != m.node {
		return nil, fmt.Errorf("mirror: open from node %d on module of node %d: %w", ctx.Node(), m.node, ErrWrongNode)
	}
	inf, err := m.client.Info(ctx, id)
	if err != nil {
		return nil, err
	}
	// Pin the mirrored snapshot for the image's lifetime: an open image
	// keeps demand-fetching from (id, v), so retention must not retire
	// it and the garbage collector must keep its chunks. Opening a
	// retired (or never published) version fails here.
	if err := m.client.PinVersion(id, v); err != nil {
		return nil, err
	}
	// Resolve the snapshot's complete chunk map in one batched
	// level-order descent. The whole segment tree of even a 2 GB image
	// is ~1 MB of 64-byte nodes, so paying depth rounds once lets every
	// demand fetch afterwards skip tree descent (and its metadata RPCs)
	// entirely — the metadata analogue of the paper's "fetch the full
	// minimal chunk set" strategy 1.
	if err := m.client.PrefetchExtents(ctx, id, v); err != nil {
		m.client.UnpinVersion(id, v)
		return nil, err
	}
	im := &Image{
		mod: m, blobID: id, version: v, info: inf, open: true,
		announced:  make(map[int64]blob.ChunkKey),
		inflight:   make(map[int64]int),
		publishing: make(map[int64]bool),
		during:     make(map[int64]dirtyRange),
	}
	m.mu.Lock()
	st := m.closed[id]
	if st != nil && st.version == v {
		delete(m.closed, id)
	} else {
		st = nil
	}
	m.mu.Unlock()
	if st != nil {
		im.chunks = st.chunks
		im.local = st.local
		if st.announced != nil {
			// The node is still registered as a holder of everything it
			// announced before closing (the local mirror file survived),
			// so the map must survive too: a post-reopen dirtying write
			// has to retract the stale location record.
			im.announced = st.announced
		}
		// Re-reading the persisted modification metadata costs one
		// local-disk access.
		ctx.DiskRead(m.node, int64(len(st.chunks))*16)
		if real && im.local == nil {
			m.client.UnpinVersion(id, v)
			return nil, fmt.Errorf("mirror: image %d was closed synthetic, cannot reopen real: %w", id, ErrSynthetic)
		}
		return im, nil
	}
	im.chunks = make([]chunkState, inf.Chunks())
	if real {
		im.local = make([]byte, inf.Size)
	}
	return im, nil
}

// Close releases the image and persists its local modification state
// on the module, so a later Open of the same snapshot on this node
// resumes where it left off.
func (im *Image) Close(ctx *cluster.Ctx) {
	im.mu.Lock()
	if !im.open {
		im.mu.Unlock()
		return
	}
	im.open = false
	id, v := im.blobID, im.version
	st := &localState{version: im.version, chunks: im.chunks, local: im.local, announced: im.announced}
	n := int64(len(im.chunks)) * 16
	im.mu.Unlock()
	// Writing the modification metadata next to the local file.
	ctx.DiskWrite(im.mod.node, n)
	im.mod.mu.Lock()
	im.mod.closed[id] = st
	im.mod.mu.Unlock()
	// The mirrored snapshot is no longer held open; it becomes eligible
	// for retirement and reclamation (a later reopen re-pins it, and
	// fails cleanly if retention retired it in between).
	im.mod.client.UnpinVersion(id, v)
}

// Size returns the image size in bytes.
func (im *Image) Size() int64 { return im.info.Size }

// BlobID returns the blob currently backing the image (changes after
// Clone).
func (im *Image) BlobID() blob.ID {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.blobID
}

// Version returns the snapshot the image currently mirrors (changes
// after Commit).
func (im *Image) Version() blob.Version {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.version
}

// Stats returns a copy of the image's counters.
func (im *Image) Stats() Stats {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.stats
}

// Dirty reports whether the image has uncommitted local modifications.
func (im *Image) Dirty() bool {
	im.mu.Lock()
	defer im.mu.Unlock()
	for i := range im.chunks {
		if im.chunks[i].dirty() {
			return true
		}
	}
	return false
}

// chunkLen returns the length of chunk ci (last chunk may be short).
func (im *Image) chunkLen(ci int64) int32 {
	cs := int64(im.info.ChunkSize)
	if (ci+1)*cs <= im.info.Size {
		return int32(cs)
	}
	return int32(im.info.Size - ci*cs)
}

// ReadAt implements the hypervisor read path on a real image.
func (im *Image) ReadAt(ctx *cluster.Ctx, p []byte, off int64) (int, error) {
	if err := im.access(ctx, off, int64(len(p)), p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteAt implements the hypervisor write path on a real image.
func (im *Image) WriteAt(ctx *cluster.Ctx, p []byte, off int64) (int, error) {
	if err := im.access(ctx, off, int64(len(p)), p, true); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Read charges a read of [off, off+n) without moving data (synthetic
// images; the boot-trace driver uses this).
func (im *Image) Read(ctx *cluster.Ctx, off, n int64) error {
	return im.access(ctx, off, n, nil, false)
}

// Write charges a write of [off, off+n) without moving data.
func (im *Image) Write(ctx *cluster.Ctx, off, n int64) error {
	return im.access(ctx, off, n, nil, true)
}

// access is the R/W translator (§3.3). It validates the range, charges
// the FUSE crossing, and dispatches per overlapped chunk.
func (im *Image) access(ctx *cluster.Ctx, off, n int64, p []byte, write bool) error {
	im.mu.Lock()
	if !im.open {
		im.mu.Unlock()
		return fmt.Errorf("mirror: access: %w", ErrClosed)
	}
	if n == 0 {
		im.mu.Unlock()
		return nil
	}
	if off < 0 || off+n > im.info.Size {
		im.mu.Unlock()
		return fmt.Errorf("mirror: access [%d,%d) outside image size %d: %w", off, off+n, im.info.Size, blob.ErrOutOfRange)
	}
	if p != nil && im.local == nil {
		im.mu.Unlock()
		return fmt.Errorf("mirror: data access: %w", ErrSynthetic)
	}
	if write {
		im.stats.Writes++
	} else {
		im.stats.Reads++
	}
	im.mu.Unlock()
	ctx.Sleep(im.mod.cfg.OpOverhead)

	cs := int64(im.info.ChunkSize)
	lo, hi := off/cs, (off+n+cs-1)/cs
	if !write {
		// Strategy 1: fetch the full minimal set of chunks covering the
		// requested region that are not fully mirrored, as whole chunks,
		// grouped into contiguous runs so the repository sees ranged
		// requests.
		if err := im.ensureMirrored(ctx, lo, hi); err != nil {
			return err
		}
		im.mu.Lock()
		im.stats.LocalReads++ // now served locally
		if p != nil {
			copy(p, im.local[off:off+n])
		}
		im.mu.Unlock()
		return nil
	}
	// Write path: per chunk, keep the mirrored region contiguous. A
	// write onto an announced chunk diverges the local copy from the
	// published content, so the cohort announcement is retracted.
	var retract []blob.ChunkKey
	for ci := lo; ci < hi; ci++ {
		cstart := ci * cs
		wlo := int32(max(off, cstart) - cstart)
		whi := int32(min(off+n, cstart+int64(im.chunkLen(ci))) - cstart)
		im.mu.Lock()
		st := &im.chunks[ci]
		gapFill := false
		switch {
		case !st.mirrored():
			st.MirLo, st.MirHi = wlo, whi
		case wlo <= st.MirHi && whi >= st.MirLo:
			// Overlaps or adjoins: extend the contiguous region.
			if wlo < st.MirLo {
				st.MirLo = wlo
			}
			if whi > st.MirHi {
				st.MirHi = whi
			}
		default:
			// Strategy 2: the write would fragment the mirrored region;
			// fill the gap by fetching the whole chunk remotely first.
			im.stats.GapFills++
			gapFill = true
		}
		im.mu.Unlock()
		if gapFill {
			// The chunk is dirtied right below, so don't offer it to
			// the cohort just to retract it again.
			if err := im.fetchChunks(ctx, ci, ci+1, fetchNoAnnounce); err != nil {
				return err
			}
		}
		im.mu.Lock()
		st = &im.chunks[ci]
		// Track the dirty hull (contained in the mirrored region).
		if !st.dirty() {
			st.DirtyLo, st.DirtyHi = wlo, whi
		} else {
			if wlo < st.DirtyLo {
				st.DirtyLo = wlo
			}
			if whi > st.DirtyHi {
				st.DirtyHi = whi
			}
		}
		if im.publishing[ci] {
			// A commit captured this chunk and is publishing it right
			// now: record the write separately so completion re-marks
			// it dirty instead of wiping it with the committed range.
			if d, ok := im.during[ci]; ok {
				if wlo < d.Lo {
					d.Lo = wlo
				}
				if whi > d.Hi {
					d.Hi = whi
				}
				im.during[ci] = d
			} else {
				im.during[ci] = dirtyRange{Lo: wlo, Hi: whi}
			}
		}
		if key, ok := im.announced[ci]; ok {
			retract = append(retract, key)
			delete(im.announced, ci)
		}
		im.mu.Unlock()
	}
	im.mu.Lock()
	if p != nil {
		copy(im.local[off:off+n], p)
	}
	im.mu.Unlock()
	if s := im.mod.sharer; s != nil && len(retract) > 0 {
		s.Retract(ctx, retract)
	}
	// The mmap'd local file absorbs the write; the kernel writes back
	// asynchronously (§4.2).
	ctxDiskWriteAsync(ctx, im.mod.node, n)
	return nil
}

// ensureMirrored makes chunks [lo,hi) fully mirrored, fetching missing
// ones in contiguous runs.
func (im *Image) ensureMirrored(ctx *cluster.Ctx, lo, hi int64) error {
	runStart := int64(-1)
	for ci := lo; ci <= hi; ci++ {
		missing := ci < hi && !im.fullyMirrored(ci)
		if missing && runStart < 0 {
			runStart = ci
		}
		if !missing && runStart >= 0 {
			if err := im.fetchChunks(ctx, runStart, ci, fetchDemand); err != nil {
				return err
			}
			runStart = -1
		}
	}
	return nil
}

func (im *Image) fullyMirrored(ci int64) bool {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.fullyMirroredLocked(ci)
}

func (im *Image) fullyMirroredLocked(ci int64) bool {
	st := im.chunks[ci]
	return st.MirLo == 0 && st.MirHi == im.chunkLen(ci)
}

// fetchMode says on whose behalf fetchChunks runs: a demand access, a
// Prefetch, or a write-path gap fill (which suppresses the cohort
// announcement — the chunk is dirtied immediately after the fetch).
type fetchMode int

const (
	fetchDemand fetchMode = iota
	fetchPrefetch
	fetchNoAnnounce
)

// fetchChunks fetches whole chunks [lo,hi) from the repository and
// merges them into the local mirror, preserving dirty bytes. After the
// merge each chunk is fully mirrored. Fetched content is persisted on
// the local disk by the kernel's asynchronous write-back.
//
// A chunk that a concurrent fetch (demand vs. prefetch racing) already
// merged while this one was in flight is skipped: its payload was
// transferred twice — the wasted transfer is charged, as in reality —
// but it is counted and announced to the sharing cohort exactly once,
// and recorded in the access profile exactly once (by the demand side,
// even when the prefetch's merge won the race).
func (im *Image) fetchChunks(ctx *cluster.Ctx, lo, hi int64, mode fetchMode) error {
	prefetch := mode == fetchPrefetch
	sharing := im.mod.sharer != nil && mode != fetchNoAnnounce
	im.mu.Lock()
	id, v := im.blobID, im.version
	for ci := lo; ci < hi; ci++ {
		im.inflight[ci]++
	}
	im.mu.Unlock()
	fetched, err := im.mod.client.FetchChunks(ctx, id, v, lo, hi)
	// Retry-with-backoff instead of propagating the first failure: a
	// fetch that lost the race with a provider death (every replica of
	// some chunk down) is re-attempted after RetryDelay — by then
	// re-replication has restored a copy, or a cohort sibling's
	// announcement offers an alternate source.
	for attempt := 0; err != nil && attempt < im.mod.cfg.FetchRetries && errors.Is(err, blob.ErrNoReplica); attempt++ {
		im.mu.Lock()
		im.stats.FetchRetries++
		im.mu.Unlock()
		ctx.Sleep(im.mod.cfg.RetryDelay)
		fetched, err = im.mod.client.FetchChunks(ctx, id, v, lo, hi)
	}
	im.mu.Lock()
	for ci := lo; ci < hi; ci++ {
		if im.inflight[ci]--; im.inflight[ci] == 0 {
			delete(im.inflight, ci)
		}
	}
	if err != nil {
		im.mu.Unlock()
		return err
	}
	type announced struct {
		index int64
		key   blob.ChunkKey
	}
	cs := int64(im.info.ChunkSize)
	var announce []announced
	var bytes int64
	for _, fc := range fetched {
		st := &im.chunks[fc.Index]
		clen := im.chunkLen(fc.Index)
		if st.MirLo == 0 && st.MirHi == clen {
			// A concurrent fetch of this chunk won the merge race;
			// count the chunk once. A demand access still belongs in
			// the access profile even when the prefetch's merge won.
			im.stats.DuplicateFetches++
			if mode == fetchDemand {
				im.accessOrder = append(im.accessOrder, fc.Index)
			}
			continue
		}
		if im.local != nil {
			cstart := fc.Index * cs
			dst := im.local[cstart : cstart+int64(clen)]
			for i := int32(0); i < clen; i++ {
				if i >= st.DirtyLo && i < st.DirtyHi {
					continue // local modification wins
				}
				if fc.Payload.Real() && int(i) < len(fc.Payload.Data) {
					dst[i] = fc.Payload.Data[i]
				} else {
					dst[i] = 0
				}
			}
		}
		st.MirLo, st.MirHi = 0, clen
		im.stats.RemoteChunkFetches++
		im.stats.RemoteBytesFetched += int64(fc.Payload.Size)
		if prefetch {
			im.stats.PrefetchedChunks++
		} else {
			im.accessOrder = append(im.accessOrder, fc.Index)
		}
		if sharing && fc.Key != 0 && !st.dirty() {
			announce = append(announce, announced{fc.Index, fc.Key})
			im.announced[fc.Index] = fc.Key
		}
		bytes += int64(fc.Payload.Size)
	}
	im.mu.Unlock()
	ctxDiskWriteAsync(ctx, im.mod.node, bytes)
	if len(announce) > 0 {
		keys := make([]blob.ChunkKey, len(announce))
		for i, a := range announce {
			keys[i] = a.key
		}
		im.mod.sharer.Announce(ctx, keys)
		// A write may have dirtied one of these chunks between the
		// merge above and the announcement reaching the cohort: its
		// Retract found nothing to withdraw yet and deleted the
		// announced entry, so re-check and retract those now.
		im.mu.Lock()
		var late []blob.ChunkKey
		for _, a := range announce {
			if im.announced[a.index] != a.key {
				late = append(late, a.key)
			}
		}
		im.mu.Unlock()
		if len(late) > 0 {
			im.mod.sharer.Retract(ctx, late)
		}
	}
	return nil
}

// AccessOrder returns the chunk indices this image fetched on demand,
// in first-access order — a reusable access profile for deployments
// of the same image (§7's "prefetching scheme based on previous
// experience with the access pattern").
func (im *Image) AccessOrder() []int64 {
	im.mu.Lock()
	defer im.mu.Unlock()
	return append([]int64(nil), im.accessOrder...)
}

// Prefetch walks an access profile and fetches every not-yet-mirrored
// chunk in profile order, so that a boot following the same pattern
// finds its working set already local. Call it from a concurrent
// activity to overlap with the boot, or beforehand for a warm start.
// Chunks fetched here are counted as PrefetchedChunks, not demand
// fetches, and do not pollute the image's own access profile.
//
// Chunks the boot is concurrently demand-fetching (in flight at the
// time Prefetch considers them) are skipped, and a lost merge race is
// resolved by fetchChunks, so no chunk is ever double-counted or
// double-announced.
func (im *Image) Prefetch(ctx *cluster.Ctx, profile []int64) error {
	for _, ci := range profile {
		im.mu.Lock()
		if !im.open {
			im.mu.Unlock()
			return fmt.Errorf("mirror: prefetch: %w", ErrClosed)
		}
		if ci < 0 || ci >= int64(len(im.chunks)) {
			im.mu.Unlock()
			return fmt.Errorf("mirror: prefetch chunk %d outside image: %w", ci, blob.ErrOutOfRange)
		}
		skip := im.fullyMirroredLocked(ci) || im.inflight[ci] > 0
		im.mu.Unlock()
		if skip {
			continue
		}
		if err := im.fetchChunks(ctx, ci, ci+1, fetchPrefetch); err != nil {
			return err
		}
	}
	return nil
}

// Clone redirects the image to a fresh blob that logically duplicates
// the currently mirrored snapshot (the CLONE primitive). Local state —
// mirrored regions and dirty data — is untouched; only the identity of
// the remote object changes, at O(1) metadata cost (Fig. 3(b)).
func (im *Image) Clone(ctx *cluster.Ctx) error {
	im.mu.Lock()
	if !im.open {
		im.mu.Unlock()
		return fmt.Errorf("mirror: clone: %w", ErrClosed)
	}
	id, v := im.blobID, im.version
	im.mu.Unlock()
	clone, err := im.mod.client.Clone(ctx, id, v)
	if err != nil {
		return err
	}
	// Move the image's open-pin to the clone's first version before
	// releasing the source snapshot.
	if err := im.pinVersion(clone, 1); err != nil {
		// The image keeps pointing at the base, so nobody adopted the
		// freshly published clone: retire it, or it survives as a
		// zombie blob no retention policy knows about, pinning its
		// shared chunks against garbage collection forever. Best
		// effort — the pin failure is what propagates.
		if rerr := im.mod.client.Retire(ctx, clone, 1); rerr != nil && !errors.Is(rerr, blob.ErrVersionRetired) {
			return fmt.Errorf("mirror: clone %d unadopted and not retired (%v) after pin: %w", clone, rerr, err)
		}
		return err
	}
	im.mod.client.UnpinVersion(id, v)
	im.mu.Lock()
	im.blobID = clone
	im.version = 1
	im.stats.Clones++
	im.mu.Unlock()
	return nil
}

// Commit publishes all local modifications as a new standalone snapshot
// of the image's blob (the COMMIT primitive) and returns its version.
// Dirty chunks are pushed whole (chunk-granular copy-on-write); a dirty
// chunk that is not fully mirrored is gap-filled first so its complete
// content exists locally. With no local modifications Commit returns
// the current version unchanged. When the module shares with a cohort,
// the committed chunks are announced by the write path: after COMMIT
// the local copy equals the published snapshot.
func (im *Image) Commit(ctx *cluster.Ctx) (blob.Version, error) {
	plan, err := im.prepareCommit(ctx)
	if err != nil {
		return 0, err
	}
	if plan == nil {
		return im.Version(), nil
	}
	return im.publishCommit(ctx, plan)
}

// commitPlan carries a prepared commit between its two phases: the
// captured payloads and the chunk indices whose publish window is open.
type commitPlan struct {
	writes   []blob.ChunkWrite
	dirtyIdx []int64
}

// prepareCommit is COMMIT's local half: gap-fill dirty chunks that lack
// full content, then capture their payloads and open the publish window
// (mark them publishing). A nil plan means nothing was dirty. Every
// fabric operation it performs reads; it never publishes, so it can
// safely overlap a concurrent Clone (Snapshot's pipelined mode).
func (im *Image) prepareCommit(ctx *cluster.Ctx) (*commitPlan, error) {
	im.mu.Lock()
	if !im.open {
		im.mu.Unlock()
		return nil, fmt.Errorf("mirror: commit: %w", ErrClosed)
	}
	var dirtyIdx []int64
	for ci := range im.chunks {
		if im.chunks[ci].dirty() {
			dirtyIdx = append(dirtyIdx, int64(ci))
		}
	}
	im.mu.Unlock()
	if len(dirtyIdx) == 0 {
		return nil, nil
	}
	// Gap-fill dirty chunks that lack full local content.
	for _, ci := range dirtyIdx {
		im.mu.Lock()
		if im.fullyMirroredLocked(ci) {
			im.mu.Unlock()
			continue
		}
		if st := im.chunks[ci]; st.DirtyLo == 0 && st.DirtyHi == im.chunkLen(ci) {
			// Entirely dirty: nothing to fill.
			im.chunks[ci].MirLo, im.chunks[ci].MirHi = 0, im.chunkLen(ci)
			im.mu.Unlock()
			continue
		}
		im.mu.Unlock()
		if err := im.fetchChunks(ctx, ci, ci+1, fetchNoAnnounce); err != nil {
			return nil, err
		}
	}
	// Reading the dirty content back from the local mirror (page cache
	// makes this cheap; charge the disk for the cold fraction). Payload
	// capture and the publishing mark happen under one lock acquisition:
	// from here until completion, a concurrent write on a captured chunk
	// is recorded in `during` as well as in the dirty hull.
	cs := int64(im.info.ChunkSize)
	writes := make([]blob.ChunkWrite, 0, len(dirtyIdx))
	im.mu.Lock()
	id, base := im.blobID, im.version
	for _, ci := range dirtyIdx {
		clen := im.chunkLen(ci)
		var payload blob.Payload
		if im.local != nil {
			cstart := ci * cs
			data := make([]byte, clen)
			copy(data, im.local[cstart:cstart+int64(clen)])
			payload = blob.RealPayload(data)
		} else {
			// The tag stands in for the chunk's content identity, so it
			// must differ per chunk: blob, target version and chunk
			// index mixed (a tag without the index would alias every
			// synthetic chunk of the round under deduplication).
			payload = blob.SyntheticPayload(clen, uint64(id)<<44|(uint64(base)+1)<<24|uint64(ci))
		}
		writes = append(writes, blob.ChunkWrite{Index: ci, Payload: payload})
		im.stats.CommittedBytes += int64(clen)
		im.publishing[ci] = true
	}
	im.mu.Unlock()
	return &commitPlan{writes: writes, dirtyIdx: dirtyIdx}, nil
}

// publishCommit is COMMIT's fabric half: push the captured payloads,
// publish the new version, and close the publish window — clearing the
// dirty record only for chunks no write touched while the publish was
// in flight, and re-marking exactly the bytes written meanwhile on the
// ones a write did touch.
func (im *Image) publishCommit(ctx *cluster.Ctx, plan *commitPlan) (blob.Version, error) {
	im.mu.Lock()
	id, base := im.blobID, im.version
	im.mu.Unlock()
	v, keyOf, err := im.mod.client.WriteChunksKeyed(ctx, id, base, plan.writes)
	if err != nil {
		im.closeWindow(plan.dirtyIdx)
		return 0, err
	}
	// The image now mirrors the freshly published snapshot; move its
	// open-pin from the base to the new version. The new version is
	// the blob's latest, so the pin cannot fail.
	if err := im.mod.client.PinVersion(id, v); err != nil {
		im.closeWindow(plan.dirtyIdx)
		return 0, err
	}
	im.mod.client.UnpinVersion(id, base)
	sharing := im.mod.sharer != nil
	var retract []blob.ChunkKey
	im.mu.Lock()
	im.version = v
	im.stats.Commits++
	im.stats.CommittedChunks += int64(len(plan.writes))
	for _, ci := range plan.dirtyIdx {
		delete(im.publishing, ci)
		if d, wrote := im.during[ci]; wrote {
			// A write landed between payload capture and publication:
			// the published snapshot does not contain it. Keep exactly
			// those bytes dirty for the next commit instead of wiping
			// the record, and withdraw this node as a holder of the
			// committed key — the local chunk already diverged from it.
			delete(im.during, ci)
			im.chunks[ci].DirtyLo, im.chunks[ci].DirtyHi = d.Lo, d.Hi
			if sharing {
				retract = append(retract, keyOf[ci])
			}
			continue
		}
		im.chunks[ci].DirtyLo, im.chunks[ci].DirtyHi = 0, 0
		if sharing {
			// The client announced the committed keys; record them so
			// a later dirtying write retracts this node as a holder.
			im.announced[ci] = keyOf[ci]
		}
	}
	im.mu.Unlock()
	if len(retract) > 0 {
		im.mod.sharer.Retract(ctx, retract)
	}
	return v, nil
}

// closeWindow abandons an open publish window after a failed commit:
// the dirty hulls were never cleared (and already absorbed any writes
// that landed during the attempt), so the window records just fold
// away and every modification remains committed by the next attempt.
func (im *Image) closeWindow(dirtyIdx []int64) {
	im.mu.Lock()
	for _, ci := range dirtyIdx {
		delete(im.publishing, ci)
		delete(im.during, ci)
	}
	im.mu.Unlock()
}

// pinVersion pins (id, v) through the module's test seam.
func (im *Image) pinVersion(id blob.ID, v blob.Version) error {
	if hook := im.mod.pinHook; hook != nil {
		if err := hook(id, v); err != nil {
			return err
		}
	}
	return im.mod.client.PinVersion(id, v)
}

// Snapshot is the CLONE+COMMIT sequence as one primitive: with fork the
// image first redirects to a fresh clone of the mirrored snapshot, then
// commits its local modifications; without fork it is Commit. It
// returns the blob and version now mirrored. When the module runs with
// Config.BatchedCommit, the forking form pipelines the two phases: the
// clone's metadata round trips overlap the commit's local prepare
// phase (gap fill and payload capture), and the publish then lands on
// the clone — the paper's multisnapshot pattern with the serial
// per-instance latency folded away.
func (im *Image) Snapshot(ctx *cluster.Ctx, fork bool) (blob.ID, blob.Version, error) {
	if fork && im.mod.cfg.BatchedCommit {
		var cloneErr error
		ct := ctx.Go("clone", ctx.Node(), func(cc *cluster.Ctx) { cloneErr = im.Clone(cc) })
		plan, prepErr := im.prepareCommit(ctx)
		ctx.WaitAll([]cluster.Task{ct})
		if cloneErr != nil {
			if plan != nil {
				im.closeWindow(plan.dirtyIdx)
			}
			return 0, 0, cloneErr
		}
		if prepErr != nil {
			return 0, 0, prepErr
		}
		if plan == nil {
			return im.BlobID(), im.Version(), nil
		}
		v, err := im.publishCommit(ctx, plan)
		if err != nil {
			return 0, 0, err
		}
		return im.BlobID(), v, nil
	}
	if fork {
		if err := im.Clone(ctx); err != nil {
			return 0, 0, err
		}
	}
	v, err := im.Commit(ctx)
	if err != nil {
		return 0, 0, err
	}
	return im.BlobID(), v, nil
}

// ctxDiskWriteAsync charges an asynchronous local write, skipping
// no-ops.
func ctxDiskWriteAsync(ctx *cluster.Ctx, node cluster.NodeID, n int64) {
	if n > 0 {
		ctx.DiskWriteAsync(node, n)
	}
}
