package sync

import (
	"errors"
	"fmt"
	"io"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// ExportStats summarizes one exported archive: how much the delta
// shipped versus what shipping the full image would have cost.
type ExportStats struct {
	Image    blob.ID
	From, To blob.Version
	Seq      uint64

	Versions int // live versions shipped
	Retired  int // retired placeholders (version number only)
	Nodes    int // tree nodes shipped
	Chunks   int // chunk payloads shipped

	ChunkBytes   int64 // logical bytes of the shipped chunks
	NodeBytes    int64 // shipped metadata, at the modeled node wire size
	FullBytes    int64 // the full-image baseline: the image's logical size
	ArchiveBytes int64 // serialized archive length
}

// DeltaBytes is the headline delta cost: the logical chunk bytes plus
// metadata the archive ships, comparable against FullBytes. (It is
// deliberately not ArchiveBytes: synthetic payloads serialize as tiny
// descriptors, which would make simulation-scale reductions
// meaningless.)
func (s ExportStats) DeltaBytes() int64 { return s.ChunkBytes + s.NodeBytes }

// Export walks the segment trees of versions (from, to] of an image,
// marks everything reachable from the base version `from` the way the
// garbage collector's mark phase does, and streams the rest — the
// delta — into w as a portable archive. from 0 exports the full
// lineage up to `to` with no base. Versions of the range that were
// retired on this side ship as placeholder records so the importer's
// version numbering stays aligned.
//
// The base and target versions (and every live intermediate) are
// pinned for the duration of the stream, so a concurrent GC cannot
// reclaim chunks or tree nodes the archive still needs. The image's
// export sequence number is committed only after the stream completes
// — a failed export burns no sequence number.
func Export(ctx *cluster.Ctx, sys *blob.System, t *Tracker, w io.Writer, id blob.ID, from, to blob.Version) (ExportStats, error) {
	if from < 0 || to <= from {
		return ExportStats{}, fmt.Errorf("sync: export range (%d,%d] of image %d: %w", from, to, id, blob.ErrOutOfRange)
	}
	t.exportMu.Lock()
	defer t.exportMu.Unlock()

	info, err := sys.VM.Info(ctx, id)
	if err != nil {
		return ExportStats{}, err
	}

	// Pin the whole range before walking anything: the target and base
	// must be live; an intermediate that was already retired ships as
	// a placeholder.
	if err := sys.VM.Pin(id, to); err != nil {
		return ExportStats{}, fmt.Errorf("sync: export target %d@%d: %w", id, to, err)
	}
	defer sys.VM.Unpin(id, to)
	if from > 0 {
		if err := sys.VM.Pin(id, from); err != nil {
			return ExportStats{}, fmt.Errorf("sync: export base %d@%d: %w", id, from, err)
		}
		defer sys.VM.Unpin(id, from)
	}
	retiredAt := make(map[blob.Version]bool)
	for v := from + 1; v < to; v++ {
		err := sys.VM.Pin(id, v)
		switch {
		case err == nil:
			defer sys.VM.Unpin(id, v)
		case errors.Is(err, blob.ErrVersionRetired):
			retiredAt[v] = true
		default:
			return ExportStats{}, fmt.Errorf("sync: export intermediate %d@%d: %w", id, v, err)
		}
	}

	seq := t.nextExportSeq(id)
	h := Header{
		SourceUUID: t.uuid,
		Image:      id,
		From:       from,
		To:         to,
		Seq:        seq,
		ChunkSize:  int32(info.ChunkSize),
		ImageSize:  info.Size,
		Span:       info.Span,
	}
	enc := newEncoder(w)
	enc.header(h)

	// Mark phase A: everything reachable from the base version is
	// already on the importing side and must not ship.
	seen := make(map[blob.NodeRef]bool)
	baseChunks := make(map[blob.ChunkKey]bool)
	if from > 0 {
		baseRoot, err := sys.VM.Root(ctx, id, from)
		if err != nil {
			return ExportStats{}, fmt.Errorf("sync: export base %d@%d: %w", id, from, err)
		}
		err = walkFrontier(ctx, sys.Meta, baseRoot, info.Span,
			func(ref blob.NodeRef) bool {
				if seen[ref] {
					return false
				}
				seen[ref] = true
				return true
			},
			nil,
			func(key blob.ChunkKey) { baseChunks[key] = true })
		if err != nil {
			return ExportStats{}, err
		}
	}

	// Mark phase B: walk each live version of the range in ascending
	// order, pruning on the shared seen set — shadowing means each
	// version contributes only the nodes its commit created, and each
	// chunk ships at most once.
	var stats ExportStats
	var versions []VersionRecord
	var nodes []NodeRecord
	var keys []blob.ChunkKey
	shipped := make(map[blob.ChunkKey]bool)
	for v := from + 1; v <= to; v++ {
		if retiredAt[v] {
			versions = append(versions, VersionRecord{Version: v, Retired: true})
			stats.Retired++
			continue
		}
		root, err := sys.VM.Root(ctx, id, v)
		if err != nil {
			return ExportStats{}, fmt.Errorf("sync: export version %d@%d: %w", id, v, err)
		}
		err = walkFrontier(ctx, sys.Meta, root, info.Span,
			func(ref blob.NodeRef) bool {
				if seen[ref] {
					return false
				}
				seen[ref] = true
				return true
			},
			func(ref blob.NodeRef, n blob.TreeNode) {
				nodes = append(nodes, NodeRecord{Ref: ref, Node: n})
			},
			func(key blob.ChunkKey) {
				if baseChunks[key] || shipped[key] {
					return
				}
				shipped[key] = true
				keys = append(keys, key)
			})
		if err != nil {
			return ExportStats{}, err
		}
		versions = append(versions, VersionRecord{Version: v, Root: root})
		stats.Versions++
	}

	enc.versions(versions)
	enc.nodes(nodes)
	enc.flush()

	// The chunk payloads are fetched only now, after the header and
	// tree sections are on the wire — mid-stream, which is exactly the
	// window the pins protect against a concurrent GC.
	chunks := make([]ChunkRecord, 0, len(keys))
	for _, key := range keys {
		p, err := sys.Providers.Get(ctx, key)
		if err != nil {
			return ExportStats{}, fmt.Errorf("sync: export chunk %d: %w", key, err)
		}
		chunks = append(chunks, ChunkRecord{Key: key, Payload: p, Digest: chunkDigest(sys.Providers, key, p)})
		stats.ChunkBytes += int64(p.Size)
	}
	enc.chunks(chunks)

	n, err := enc.finish()
	if err != nil {
		return ExportStats{}, fmt.Errorf("sync: writing archive: %w", err)
	}

	stats.Image = id
	stats.From, stats.To, stats.Seq = from, to, seq
	stats.Nodes = len(nodes)
	stats.Chunks = len(chunks)
	stats.NodeBytes = int64(len(nodes)) * nodeWire
	stats.FullBytes = info.Size
	stats.ArchiveBytes = n
	t.commitExportSeq(id, seq)
	return stats, nil
}

// chunkDigest is the archive digest of a shipped payload. Real content
// stored under deduplication already has its fingerprint in the
// provider set's index — ContentHash of the same bytes, which is the
// digest — so only content without one is hashed here.
func chunkDigest(ps *blob.ProviderSet, key blob.ChunkKey, p blob.Payload) uint64 {
	if fp, ok := ps.StoredPrint(key); ok {
		return fp
	}
	return payloadDigest(p)
}

// walkFrontier is the batched twin of blob.WalkReachable: a
// level-order frontier descent that resolves each tree level in one
// MetaService.GetBatch round (the PR 7 read path), prunes subtrees
// whose root enter rejects, validates the range invariants as it
// goes, and reports every visited node and every reachable chunk.
func walkFrontier(ctx *cluster.Ctx, meta *blob.MetaService, root blob.NodeRef, span int64,
	enter func(blob.NodeRef) bool,
	visit func(blob.NodeRef, blob.TreeNode),
	chunk func(blob.ChunkKey)) error {

	type frame struct {
		ref      blob.NodeRef
		nlo, nhi int64
	}
	var frontier, next []frame
	push := func(fs []frame, ref blob.NodeRef, nlo, nhi int64) []frame {
		if ref == 0 || !enter(ref) {
			return fs
		}
		return append(fs, frame{ref, nlo, nhi})
	}
	frontier = push(frontier, root, 0, span)
	var refs []blob.NodeRef
	for len(frontier) > 0 {
		refs = refs[:0]
		for _, fr := range frontier {
			refs = append(refs, fr.ref)
		}
		nodes, err := meta.GetBatch(ctx, refs)
		if err != nil {
			return err
		}
		next = next[:0]
		for fi, fr := range frontier {
			n := nodes[fi]
			if n.Lo != fr.nlo || n.Hi != fr.nhi {
				return fmt.Errorf("blob: node %d covers [%d,%d), expected [%d,%d): %w",
					fr.ref, n.Lo, n.Hi, fr.nlo, fr.nhi, blob.ErrCorruptTree)
			}
			if visit != nil {
				visit(fr.ref, n)
			}
			if n.Leaf() {
				if n.Chunk != 0 && chunk != nil {
					chunk(n.Chunk)
				}
				continue
			}
			mid := (fr.nlo + fr.nhi) / 2
			next = push(next, n.Left, fr.nlo, mid)
			next = push(next, n.Right, mid, fr.nhi)
		}
		frontier, next = next, frontier
	}
	return nil
}
