package blobvfs_test

import (
	"bytes"
	"sync"
	"testing"

	"blobvfs"
	"blobvfs/internal/blob"
)

const (
	syncChunk = 4 << 10
	syncSize  = 64 << 10 // 16 chunks
)

// twoRepos deploys an upstream and a downstream repository on one
// fabric, dedup-enabled, with fixed sync identities.
func twoRepos(t *testing.T, opts ...blobvfs.Option) (*blobvfs.LiveCluster, *blobvfs.Repo, *blobvfs.Repo) {
	t.Helper()
	fab := blobvfs.NewLiveCluster(4)
	common := append([]blobvfs.Option{
		blobvfs.WithChunkSize(syncChunk),
		blobvfs.WithDedup(),
	}, opts...)
	up, err := blobvfs.Open(fab, append(common, blobvfs.WithSyncUUID(0xA))...)
	if err != nil {
		t.Fatal(err)
	}
	down, err := blobvfs.Open(fab, append(common, blobvfs.WithSyncUUID(0xB))...)
	if err != nil {
		t.Fatal(err)
	}
	if up.SyncUUID() != 0xA || down.SyncUUID() != 0xB {
		t.Fatalf("SyncUUID: got %#x/%#x, want 0xa/0xb", up.SyncUUID(), down.SyncUUID())
	}
	return fab, up, down
}

// buildLineage creates a 5-version lineage on the upstream repo: v1
// is the full image, v2..v5 each rewrite a few chunks in place
// (Commit without fork, so the lineage grows). Two of the rewrites
// carry identical content, so the delta dedups within the lineage.
// It returns the image and the expected full contents per version.
func buildLineage(t *testing.T, ctx *blobvfs.Ctx, up *blobvfs.Repo) (blobvfs.ImageID, map[blobvfs.Version][]byte) {
	t.Helper()
	base := img(syncSize, 1)
	ref, err := up.Create(ctx, "", base)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := up.OpenDisk(ctx, ctx.Node(), ref)
	if err != nil {
		t.Fatal(err)
	}
	want := map[blobvfs.Version][]byte{1: append([]byte(nil), base...)}
	cur := append([]byte(nil), base...)
	patches := []struct {
		off  int64
		data []byte
	}{
		{0, img(syncChunk, 50)},               // v2: rewrite chunk 0
		{3 * syncChunk, img(2*syncChunk, 60)}, // v3: rewrite chunks 3-4
		{8 * syncChunk, img(syncChunk, 50)},   // v4: same content as v2's chunk → dedups
		{15 * syncChunk, img(syncChunk, 70)},  // v5: rewrite the last chunk
	}
	for i, p := range patches {
		if _, err := disk.WriteAt(ctx, p.data, p.off); err != nil {
			t.Fatal(err)
		}
		snap, err := disk.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version != blobvfs.Version(i+2) {
			t.Fatalf("commit %d published v%d", i, snap.Version)
		}
		copy(cur[p.off:], p.data)
		want[snap.Version] = append([]byte(nil), cur...)
	}
	if err := disk.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return ref.Image, want
}

// leafKeys flattens a version's chunk map on a repo.
func leafKeys(t *testing.T, ctx *blobvfs.Ctx, r *blobvfs.Repo, id blobvfs.ImageID, v blobvfs.Version) []blob.ChunkKey {
	t.Helper()
	sys := r.System()
	info, err := sys.VM.Info(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	root, err := sys.VM.Root(ctx, id, v)
	if err != nil {
		t.Fatal(err)
	}
	getter := blob.GetterFunc(func(ref blob.NodeRef) (blob.TreeNode, error) {
		return sys.Meta.Get(ctx, ref)
	})
	leaves, err := blob.CollectLeaves(getter, root, info.Span, 0, info.Span)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]blob.ChunkKey, len(leaves))
	for i, l := range leaves {
		keys[i] = l.Chunk
	}
	return keys
}

// TestExportImportRoundTrip is the round-trip property test: a
// 5-version lineage (one version retired upstream mid-lineage) ships
// as a full archive plus a delta; every imported version must read
// byte-identical downstream, and shared chunks must land with the
// same refcounts as upstream.
func TestExportImportRoundTrip(t *testing.T) {
	fab, up, down := twoRepos(t)
	fab.Run(func(ctx *blobvfs.Ctx) {
		id, want := buildLineage(t, ctx, up)

		// Retire v4 upstream before the export: it must ship as a
		// placeholder and come out retired downstream too.
		if err := up.Retire(ctx, blobvfs.Snapshot{Image: id, Version: 4}); err != nil {
			t.Fatal(err)
		}

		var full bytes.Buffer
		est, err := up.Export(ctx, &full, id, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if est.Seq != 1 || est.Versions != 2 || est.Retired != 0 {
			t.Fatalf("full export stats %+v", est)
		}
		ist, err := down.Import(ctx, &full)
		if err != nil {
			t.Fatal(err)
		}
		localID := ist.Image
		if ist.Versions != 2 || ist.Chunks != est.Chunks {
			t.Fatalf("full import stats %+v", ist)
		}

		var delta bytes.Buffer
		est2, err := up.Export(ctx, &delta, id, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if est2.Seq != 2 || est2.Versions != 2 || est2.Retired != 1 {
			t.Fatalf("delta export stats %+v", est2)
		}
		// The delta rewrote 4 chunks across v3..v5 (v4 is retired but
		// its surviving chunks ride with v5's tree); far fewer than
		// the 16 a full ship would carry.
		if est2.Chunks >= est.Chunks/2 {
			t.Fatalf("delta shipped %d chunks, full %d", est2.Chunks, est.Chunks)
		}
		ist2, err := down.Import(ctx, &delta)
		if err != nil {
			t.Fatal(err)
		}
		if ist2.Image != localID || ist2.Retired != 1 {
			t.Fatalf("delta import stats %+v", ist2)
		}
		// v4's rewritten chunk repeats v2's content, already imported
		// with the full archive — it must dedup to zero new storage.
		if ist2.DedupedChunks == 0 {
			t.Fatal("identical shipped content did not dedup downstream")
		}

		// Byte-identical reads for every live version, both via the
		// whole-image download and via a mounted disk.
		vsUp, err := up.Versions(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		vsDown, err := down.Versions(ctx, localID)
		if err != nil {
			t.Fatal(err)
		}
		if len(vsUp) != 4 || len(vsDown) != len(vsUp) {
			t.Fatalf("live versions up %v down %v", vsUp, vsDown)
		}
		for i := range vsUp {
			if vsUp[i] != vsDown[i] {
				t.Fatalf("version sets diverge: up %v down %v", vsUp, vsDown)
			}
			v := vsDown[i]
			buf := make([]byte, syncSize)
			if err := down.Download(ctx, blobvfs.Snapshot{Image: localID, Version: v}, buf); err != nil {
				t.Fatalf("download v%d: %v", v, err)
			}
			if !bytes.Equal(buf, want[v]) {
				t.Fatalf("v%d differs after import", v)
			}
		}
		disk, err := down.OpenDisk(ctx, ctx.Node(), blobvfs.Snapshot{Image: localID, Version: 5})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, syncSize)
		if _, err := disk.ReadAt(ctx, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[5]) {
			t.Fatal("disk ReadAt differs from upstream contents")
		}
		if err := disk.Close(ctx); err != nil {
			t.Fatal(err)
		}

		// RefCount parity for the newest version's chunk map: the
		// shared-content aliases upstream (v4's chunk deduping v2's)
		// must reproduce downstream.
		ku := leafKeys(t, ctx, up, id, 5)
		kd := leafKeys(t, ctx, down, localID, 5)
		if len(ku) != len(kd) {
			t.Fatalf("chunk maps differ in length: %d vs %d", len(ku), len(kd))
		}
		for i := range ku {
			if (ku[i] == 0) != (kd[i] == 0) {
				t.Fatalf("sparseness differs at index %d", i)
			}
			if ku[i] == 0 {
				continue
			}
			rcU := up.System().Providers.RefCount(ku[i])
			rcD := down.System().Providers.RefCount(kd[i])
			if rcU != rcD {
				t.Fatalf("refcount at index %d: up %d down %d", i, rcU, rcD)
			}
		}

		// The retired-then-imported edge: v4 is unreadable on both
		// sides, and downstream GC can run over the imported lineage.
		for _, r := range []*blobvfs.Repo{up, down} {
			rid := id
			if r == down {
				rid = localID
			}
			if _, err := r.System().VM.Root(ctx, rid, 4); err == nil {
				t.Fatal("retired v4 still resolvable")
			}
		}
		if _, err := down.GC(ctx); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, syncSize)
		if err := down.Download(ctx, blobvfs.Snapshot{Image: localID, Version: 5}, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[5]) {
			t.Fatal("v5 differs after downstream GC")
		}
	})
}

// TestExportCloneSharedLineage covers the cross-lineage sharing edge:
// a clone's tree shares every node below its root with the source
// image, so a full export of the clone lineage must ship the shared
// subtrees and the importer must accept leaf chunks it has never seen
// under that image.
func TestExportCloneSharedLineage(t *testing.T) {
	fab, up, down := twoRepos(t)
	fab.Run(func(ctx *blobvfs.Ctx) {
		base := img(syncSize, 9)
		ref, err := up.Create(ctx, "", base)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := up.Clone(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := up.Export(ctx, &buf, clone.Image, 0, 1); err != nil {
			t.Fatal(err)
		}
		ist, err := down.Import(ctx, &buf)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, syncSize)
		if err := down.Download(ctx, blobvfs.Snapshot{Image: ist.Image, Version: 1}, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatal("imported clone differs from source image")
		}
	})
}

// TestImportReusedDigestDedupsRightContent: the importer hands each
// verified archive digest to the dedup index as the chunk's
// fingerprint instead of hashing the bytes again. Shipped content the
// downstream already holds (stored through its own upload, so
// fingerprinted by hashing) must still dedup, new content must not,
// and every version must read back the shipped bytes.
func TestImportReusedDigestDedupsRightContent(t *testing.T) {
	fab, up, down := twoRepos(t)
	chunks := func(seeds ...byte) []byte {
		var b []byte
		for _, s := range seeds {
			b = append(b, img(syncChunk, s)...)
		}
		return b
	}
	fab.Run(func(ctx *blobvfs.Ctx) {
		if _, err := down.Create(ctx, "", chunks(50, 51)); err != nil {
			t.Fatal(err)
		}
		storedBefore := down.System().Providers.StoredBytes()

		want := chunks(50, 60, 61, 50)
		ref, err := up.Create(ctx, "", want)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := up.Export(ctx, &buf, ref.Image, 0, 1); err != nil {
			t.Fatal(err)
		}
		ist, err := down.Import(ctx, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if ist.Chunks != 4 || ist.DedupedChunks != 2 {
			t.Fatalf("imported %d chunks, %d deduplicated; want 4, the 2 copies of held content", ist.Chunks, ist.DedupedChunks)
		}
		if grew := down.System().Providers.StoredBytes() - storedBefore; grew != 2*syncChunk {
			t.Fatalf("downstream storage grew %d bytes, want %d (the 2 new chunks)", grew, 2*syncChunk)
		}
		got := make([]byte, len(want))
		if err := down.Download(ctx, blobvfs.Snapshot{Image: ist.Image, Version: 1}, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("imported image differs from the shipped bytes")
		}
	})
}

// gateWriter runs fire exactly once, on the first Write — mid-export,
// after the header hits the stream but before the chunk payloads are
// fetched.
type gateWriter struct {
	bytes.Buffer
	once sync.Once
	fire func()
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(w.fire)
	return w.Buffer.Write(p)
}

// TestExportPinsAgainstConcurrentGC is the regression test for the
// export pinning: retirement plus a GC cycle racing a slow export
// must not reclaim chunks the archive still needs.
func TestExportPinsAgainstConcurrentGC(t *testing.T) {
	fab, up, down := twoRepos(t)
	fab.Run(func(ctx *blobvfs.Ctx) {
		id, want := buildLineage(t, ctx, up)

		// Seed the downstream at v2.
		var seed bytes.Buffer
		if _, err := up.Export(ctx, &seed, id, 0, 2); err != nil {
			t.Fatal(err)
		}
		ist, err := down.Import(ctx, &seed)
		if err != nil {
			t.Fatal(err)
		}

		// Export (2,5] through a writer that, mid-stream, retires
		// everything below v5 and runs a GC cycle. The export holds
		// pins on v2..v5, so only v1 — which the archive does not
		// need — may actually retire.
		w := &gateWriter{fire: func() {
			n, err := up.RetireUpTo(ctx, id, 4)
			if err != nil {
				t.Errorf("mid-export retire: %v", err)
			}
			if n != 1 {
				t.Errorf("mid-export retire reclaimed %d versions, want 1 (just the unpinned v1)", n)
			}
			if _, err := up.GC(ctx); err != nil {
				t.Errorf("mid-export GC: %v", err)
			}
		}}
		if _, err := up.Export(ctx, w, id, 2, 5); err != nil {
			t.Fatal(err)
		}

		// The archive must be whole: the downstream import succeeds
		// and serves v5 byte-identical.
		ist2, err := down.Import(ctx, bytes.NewReader(w.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if ist2.Image != ist.Image {
			t.Fatalf("delta landed on image %d, want %d", ist2.Image, ist.Image)
		}
		got := make([]byte, syncSize)
		if err := down.Download(ctx, blobvfs.Snapshot{Image: ist.Image, Version: 5}, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[5]) {
			t.Fatal("v5 differs after GC-racing export")
		}

		// Once the export's pins are gone, the same retirement works.
		if n, err := up.RetireUpTo(ctx, id, 4); err != nil || n != 3 {
			t.Fatalf("post-export retire: n=%d err=%v, want v2..v4 retired", n, err)
		}
		if _, err := up.GC(ctx); err != nil {
			t.Fatal(err)
		}
	})
}
