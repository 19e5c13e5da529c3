package blob

import (
	"bytes"
	"runtime"
	"testing"

	"blobvfs/internal/cluster"
)

// TestDedupStoresIdenticalContentOnce: N instances committing the
// same contextualization data (the multisnapshotting scenario of
// §5.3) store it once under deduplication — the storage-reduction
// extension §7 proposes.
func TestDedupStoresIdenticalContentOnce(t *testing.T) {
	fab, sys := liveSystem(4, 1)
	sys.Providers.EnableDedup()
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		common := pattern(4096, 9) // identical config written by all
		var blobs []ID
		for i := 0; i < 8; i++ {
			id, _ := c.Create(ctx, 16<<10, 4<<10)
			v, err := c.WriteAt(ctx, id, 0, common, 0)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, id)
			_ = v
		}
		if got := sys.Providers.DedupHits.Load(); got != 7 {
			t.Fatalf("dedup hits = %d, want 7 (first stores, rest alias)", got)
		}
		if got := sys.Providers.ChunkCount(); got != 1 {
			t.Fatalf("stored chunks = %d, want 1", got)
		}
		// Every blob still reads the right content through its alias.
		buf := make([]byte, 4096)
		for _, id := range blobs {
			if err := c.ReadAt(ctx, id, 1, buf, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, common) {
				t.Fatal("aliased chunk read wrong content")
			}
		}
	})
}

// TestDedupAliasesDuplicatesWithinOneBatch: one commit carrying the
// same real payload at several indices stores it once — the
// fingerprints are hashed in parallel before the store lock, then
// resolved in batch order, so every later occurrence aliases the first
// — and every alias reads the content back.
func TestDedupAliasesDuplicatesWithinOneBatch(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const chunk, n = 4 << 10, 6
	fab, sys := liveSystem(4, 1)
	sys.Providers.EnableDedup()
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, err := c.Create(ctx, n*chunk, chunk)
		if err != nil {
			t.Fatal(err)
		}
		common := pattern(chunk, 5)
		writes := make([]ChunkWrite, n)
		for i := range writes {
			writes[i] = ChunkWrite{Index: int64(i), Payload: RealPayload(common)}
		}
		v, err := c.WriteChunks(ctx, id, 0, writes)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Providers.ChunkCount(); got != 1 {
			t.Fatalf("stored chunks = %d, want 1", got)
		}
		if got := sys.Providers.DedupHits.Load(); got != n-1 {
			t.Fatalf("dedup hits = %d, want %d", got, n-1)
		}
		buf := make([]byte, chunk)
		for i := 0; i < n; i++ {
			if err := c.ReadAt(ctx, id, v, buf, int64(i)*chunk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, common) {
				t.Fatalf("chunk %d read wrong content through its alias", i)
			}
		}
	})
}

func TestDedupDistinguishesContent(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	sys.Providers.EnableDedup()
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 8<<10, 4<<10)
		v1, err := c.WriteAt(ctx, id, 0, pattern(4096, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := c.WriteAt(ctx, id, v1, pattern(4096, 2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if sys.Providers.DedupHits.Load() != 0 {
			t.Fatal("distinct contents were deduplicated")
		}
		buf := make([]byte, 4096)
		if err := c.ReadAt(ctx, id, v2, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pattern(4096, 2)) {
			t.Fatal("v2 content wrong")
		}
		if err := c.ReadAt(ctx, id, v1, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pattern(4096, 1)) {
			t.Fatal("v1 content wrong after v2 write")
		}
	})
}

func TestDedupSyntheticPayloadsByTag(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	sys.Providers.EnableDedup()
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		id, _ := c.Create(ctx, 1<<20, 256<<10)
		// All chunks share tag 7: the image stores one chunk.
		if _, err := c.WriteFull(ctx, id, 0, 7); err != nil {
			t.Fatal(err)
		}
		if got := sys.Providers.ChunkCount(); got != 1 {
			t.Fatalf("stored chunks = %d, want 1 (tag-identical)", got)
		}
		// Tag 0 payloads are never deduplicated.
		id2, _ := c.Create(ctx, 1<<20, 256<<10)
		if _, err := c.WriteFull(ctx, id2, 0, 0); err != nil {
			t.Fatal(err)
		}
		if got := sys.Providers.ChunkCount(); got != 5 {
			t.Fatalf("stored chunks = %d, want 5 (1 + 4 undeduped)", got)
		}
	})
}

func TestDedupDisabledByDefault(t *testing.T) {
	fab, sys := liveSystem(2, 1)
	fab.Run(func(ctx *cluster.Ctx) {
		c := NewClient(sys)
		common := pattern(4096, 3)
		for i := 0; i < 3; i++ {
			id, _ := c.Create(ctx, 4096, 4096)
			if _, err := c.WriteAt(ctx, id, 0, common, 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := sys.Providers.ChunkCount(); got != 3 {
			t.Fatalf("stored chunks = %d, want 3 (no dedup by default)", got)
		}
	})
}
