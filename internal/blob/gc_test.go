package blob

import (
	"errors"
	"testing"

	"blobvfs/internal/cluster"
)

// TestRetireUnpublishesFromLatest: a retired version disappears from
// Latest and Root immediately, and Latest falls back to the newest
// surviving version.
func TestRetireUnpublishesFromLatest(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 400, 100)
		v1, _ := c.WriteAt(ctx, id, 0, pattern(400, 1), 0)
		v2, err := c.WriteAt(ctx, id, v1, pattern(100, 2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.VM.Retire(ctx, id, v2); err != nil {
			t.Fatalf("Retire(v2): %v", err)
		}
		if latest, _ := c.Latest(ctx, id); latest != v1 {
			t.Fatalf("Latest after retiring v2 = %d, want %d", latest, v1)
		}
		if _, err := sys.VM.Root(ctx, id, v2); err == nil {
			t.Fatal("Root of retired version resolved")
		}
		if err := sys.VM.Retire(ctx, id, v2); !errors.Is(err, ErrVersionRetired) {
			t.Fatalf("double Retire = %v, want ErrVersionRetired", err)
		}
		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatal(err)
		}
		if latest, _ := c.Latest(ctx, id); latest != 0 {
			t.Fatalf("Latest with all versions retired = %d, want 0", latest)
		}
		// A write on an empty Latest builds over an empty tree again.
		v3, err := c.WriteAt(ctx, id, 0, pattern(400, 3), 0)
		if err != nil {
			t.Fatal(err)
		}
		if latest, _ := c.Latest(ctx, id); latest != v3 {
			t.Fatalf("Latest after fresh write = %d, want %d", latest, v3)
		}
	})
}

// TestRetirePinnedFails: a pinned version refuses to retire and
// RetireUpTo skips it; after unpinning it retires normally.
func TestRetirePinnedFails(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 400, 100)
		v1, _ := c.WriteAt(ctx, id, 0, pattern(400, 1), 0)
		v2, _ := c.WriteAt(ctx, id, v1, pattern(100, 2), 0)
		if err := c.PinVersion(id, v1); err != nil {
			t.Fatal(err)
		}
		var pinned *PinnedError
		if err := sys.VM.Retire(ctx, id, v1); !errors.As(err, &pinned) {
			t.Fatalf("Retire of pinned = %v, want PinnedError", err)
		}
		if n, _ := sys.VM.RetireUpTo(ctx, id, v2); n != 1 {
			t.Fatalf("RetireUpTo retired %d versions, want 1 (v2 only)", n)
		}
		if latest, _ := c.Latest(ctx, id); latest != v1 {
			t.Fatalf("Latest = %d, want pinned %d", latest, v1)
		}
		c.UnpinVersion(id, v1)
		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatalf("Retire after unpin: %v", err)
		}
		// Pinning a retired version must fail: it may already be swept.
		if err := c.PinVersion(id, v1); err == nil {
			t.Fatal("Pin of retired version succeeded")
		}
	})
}

// TestGCReclaimsRetiredVersions: after retiring the old version of a
// two-version blob, exactly the chunks it held exclusively (those the
// newer version overwrote) and its exclusive tree nodes are freed, and
// the surviving version reads back intact.
func TestGCReclaimsRetiredVersions(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 800, 100) // 8 chunks
		base := pattern(800, 1)
		v1, _ := c.WriteAt(ctx, id, 0, base, 0)
		patch := pattern(200, 9) // overwrites chunks 2 and 3
		v2, err := c.WriteAt(ctx, id, v1, patch, 200)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Providers.ChunkCount(); got != 10 {
			t.Fatalf("chunks before GC = %d, want 10", got)
		}

		gc := NewCollector(sys)
		rep, err := gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedChunks != 0 || rep.FreedNodes != 0 {
			t.Fatalf("GC with all versions live freed %+v, want nothing", rep)
		}

		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatal(err)
		}
		rep, err = gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedChunks != 2 {
			t.Fatalf("FreedChunks = %d, want 2 (the overwritten originals)", rep.FreedChunks)
		}
		if rep.FreedNodes == 0 {
			t.Fatal("no tree nodes freed for the retired version")
		}
		if got := sys.Providers.ChunkCount(); got != 8 {
			t.Fatalf("chunks after GC = %d, want 8", got)
		}
		want := append([]byte(nil), base...)
		copy(want[200:], patch)
		got := make([]byte, 800)
		if err := c.ReadAt(ctx, id, v2, got, 0); err != nil {
			t.Fatalf("read of surviving version: %v", err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("surviving version corrupted at byte %d", i)
			}
		}
	})
}

// TestGCKeepsClonedShares: retiring the clone source must not free
// anything the clone still shares — only the source's root node, which
// the clone copied rather than referenced, becomes unreachable.
func TestGCKeepsClonedShares(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 800, 100)
		base := pattern(800, 4)
		v1, _ := c.WriteAt(ctx, id, 0, base, 0)
		clone, err := c.Clone(ctx, id, v1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.VM.Retire(ctx, id, v1); err != nil {
			t.Fatal(err)
		}
		gc := NewCollector(sys)
		rep, err := gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedChunks != 0 {
			t.Fatalf("FreedChunks = %d, want 0 (all shared with the clone)", rep.FreedChunks)
		}
		if rep.FreedNodes != 1 {
			t.Fatalf("FreedNodes = %d, want 1 (the source root)", rep.FreedNodes)
		}
		got := make([]byte, 800)
		if err := c.ReadAt(ctx, clone, 1, got, 0); err != nil {
			t.Fatalf("clone read after source retirement: %v", err)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("clone corrupted at byte %d", i)
			}
		}
	})
}

// TestGCDedupAliases: under deduplication, reclaiming one of two
// identical snapshots must keep the shared content alive until the
// last reference goes.
func TestGCDedupAliases(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	sys.Providers.EnableDedup()
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		data := pattern(400, 6)
		idA, _ := c.Create(ctx, 400, 100)
		vA, _ := c.WriteAt(ctx, idA, 0, data, 0)
		idB, _ := c.Create(ctx, 400, 100)
		vB, _ := c.WriteAt(ctx, idB, 0, data, 0)
		if hits := sys.Providers.DedupHits.Load(); hits != 4 {
			t.Fatalf("DedupHits = %d, want 4", hits)
		}

		gc := NewCollector(sys)
		if err := sys.VM.Retire(ctx, idA, vA); err != nil {
			t.Fatal(err)
		}
		rep, err := gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedChunks != 0 {
			t.Fatalf("FreedChunks = %d, want 0 (content shared through aliases)", rep.FreedChunks)
		}
		if rep.FreedKeys != 4 {
			t.Fatalf("FreedKeys = %d, want 4 (A's references released)", rep.FreedKeys)
		}
		got := make([]byte, 400)
		if err := c.ReadAt(ctx, idB, vB, got, 0); err != nil {
			t.Fatalf("read of surviving duplicate: %v", err)
		}
		for i := range got {
			if got[i] != data[i] {
				t.Fatalf("surviving duplicate corrupted at byte %d", i)
			}
		}

		if err := sys.VM.Retire(ctx, idB, vB); err != nil {
			t.Fatal(err)
		}
		rep, err = gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FreedChunks != 4 {
			t.Fatalf("FreedChunks = %d, want 4 (last reference gone)", rep.FreedChunks)
		}
		if got := sys.Providers.ChunkCount(); got != 0 {
			t.Fatalf("chunks after final GC = %d, want 0", got)
		}
	})
}

// TestReleaseIdempotent: releasing the same key twice is a no-op the
// second time, and RefCount tracks the content references.
func TestReleaseIdempotent(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		key := sys.Providers.AllocKey()
		if err := sys.Providers.PutBatch(ctx, []ChunkPut{{Key: key, Payload: RealPayload(pattern(100, 1))}}); err != nil {
			t.Fatal(err)
		}
		if rc := sys.Providers.RefCount(key); rc != 1 {
			t.Fatalf("RefCount = %d, want 1", rc)
		}
		released, bytes := sys.Providers.Release(ctx, []ChunkKey{key})
		if len(released) != 1 || bytes != 100 {
			t.Fatalf("Release = (%v, %d), want 1 key, 100 bytes", released, bytes)
		}
		released, bytes = sys.Providers.Release(ctx, []ChunkKey{key})
		if len(released) != 0 || bytes != 0 {
			t.Fatalf("second Release = (%v, %d), want no-op", released, bytes)
		}
	})
}

// TestReleaseChargesEveryLiveHolder: releasing a chunk sends its delete
// RPC to every live provider holding the content — the ring members
// that stored it plus the substitutes of a degraded put — and not to a
// ring member that was down at write time and never got its copy.
func TestReleaseChargesEveryLiveHolder(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(5))
	ps := NewProviderSet([]cluster.NodeID{1, 2, 3, 4}, 2)
	const del = 24 + 16 // one holder's delete RPC for one key: request + response

	fab.Run(func(ctx *cluster.Ctx) {
		release := func(key ChunkKey) int64 {
			t.Helper()
			before := fab.NetTraffic()
			if released, _ := ps.Release(ctx, []ChunkKey{key}); len(released) != 1 {
				t.Fatalf("Release(%d) released %v, want the key", key, released)
			}
			return fab.NetTraffic() - before
		}
		put := func() ChunkKey {
			t.Helper()
			key := ps.AllocKey()
			if err := ps.PutBatch(ctx, []ChunkPut{{Key: key, Payload: SyntheticPayload(1024, uint64(key))}}); err != nil {
				t.Fatal(err)
			}
			return key
		}

		if got := release(put()); got != 2*del {
			t.Fatalf("healthy release moved %d bytes, want %d (both ring members)", got, 2*del)
		}

		// The home is down at write time: the put leaves a void there and
		// writes around it onto a substitute.
		key := ps.AllocKey()
		home := ps.Replicas(key)[0]
		ps.Kill(home)
		if err := ps.PutBatch(ctx, []ChunkPut{{Key: key, Payload: SyntheticPayload(1024, 9)}}); err != nil {
			t.Fatal(err)
		}
		if got := release(key); got != 2*del {
			t.Fatalf("release of a degraded put moved %d bytes, want %d (surviving member + substitute)", got, 2*del)
		}
		if n := ps.Reclaimed.Load(); n != 2 {
			t.Fatalf("Reclaimed = %d, want 2", n)
		}
	})
}

// TestCollectorSkipsOverlappingCycle: the second of two overlapping
// Collect calls reports Skipped instead of blocking or double-freeing.
func TestCollectorSkipsOverlappingCycle(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	gc := NewCollector(sys)
	gc.running.Store(true) // simulate a cycle in progress
	fab.Run(func(ctx *cluster.Ctx) {
		rep, err := gc.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Skipped {
			t.Fatal("overlapping Collect did not skip")
		}
	})
	gc.running.Store(false)
}
