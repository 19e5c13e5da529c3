package blobvfs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"blobvfs"
)

// goldenArchive is the length and SHA-256 of one exported archive.
type goldenArchive struct {
	n   int
	sha string
}

// archiveGolden pins the bytes Export writes for the lineages of
// exportGoldenLineages. Any change here is a wire-format change: the
// archive codec must stay byte-identical across refactors, and a real
// format change bumps formatVersion instead of editing these values.
var archiveGolden = map[string]goldenArchive{
	"dedup-off/real/full":       {42480, "9686e5924d9e564bb14c4b4f57e7294268a524c51c2ff2ca18c92987989a8ecb"},
	"dedup-off/real/delta":      {8747, "50f20554487cb59dcb72c3817951a88f6ac8a05498bf547cee4b838a6f7edd3d"},
	"dedup-off/synthetic/full":  {1424, "6060422ac4b43ae3eddf2749a6f114aecbb6fe22c94c5a07b895480ca04aa5db"},
	"dedup-off/synthetic/delta": {459, "4319015733b6048d0d71337ec8ce667de9c9c99f6a6a51e3df46f2a8d1dc4b8d"},
	"dedup-on/real/full":        {42480, "9686e5924d9e564bb14c4b4f57e7294268a524c51c2ff2ca18c92987989a8ecb"},
	"dedup-on/real/delta":       {8747, "50f20554487cb59dcb72c3817951a88f6ac8a05498bf547cee4b838a6f7edd3d"},
	"dedup-on/synthetic/full":   {1424, "6060422ac4b43ae3eddf2749a6f114aecbb6fe22c94c5a07b895480ca04aa5db"},
	"dedup-on/synthetic/delta":  {459, "4319015733b6048d0d71337ec8ce667de9c9c99f6a6a51e3df46f2a8d1dc4b8d"},
}

// exportGoldenLineages builds two fixed two-version lineages on a live
// fabric and returns, per lineage, its full archive (0,2] and its delta
// (1,2]. The real lineage is an 8-chunk image whose v2 rewrites two
// chunks, one of them with content v1 already holds (a dedup alias
// when dedup is on). The synthetic lineage is an 8-chunk synthetic
// image whose v2 writes two chunks through a synthetic disk.
func exportGoldenLineages(t *testing.T, dedup bool) map[string][]byte {
	t.Helper()
	const chunk = 4 << 10
	opts := []blobvfs.Option{blobvfs.WithChunkSize(chunk), blobvfs.WithSyncUUID(0x5EED)}
	if dedup {
		opts = append(opts, blobvfs.WithDedup())
	}
	fab := blobvfs.NewLiveCluster(4)
	up, err := blobvfs.Open(fab, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	fab.Run(func(ctx *blobvfs.Ctx) {
		export := func(name string, id blobvfs.ImageID) {
			// In this order: the header stamps the export sequence.
			for from, kind := range []string{"full", "delta"} {
				var buf bytes.Buffer
				if _, err := up.Export(ctx, &buf, id, blobvfs.Version(from), 2); err != nil {
					t.Fatal(err)
				}
				out[name+"/"+kind] = buf.Bytes()
			}
		}
		commit := func(disk *blobvfs.Disk) {
			if snap, err := disk.Commit(ctx); err != nil || snap.Version != 2 {
				t.Fatalf("commit: %+v, %v", snap, err)
			}
			if err := disk.Close(ctx); err != nil {
				t.Fatal(err)
			}
		}

		base := img(8*chunk, 9)
		real, err := up.Create(ctx, "", base)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := up.OpenDisk(ctx, ctx.Node(), real)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := disk.WriteAt(ctx, img(chunk, 40), 2*chunk); err != nil {
			t.Fatal(err)
		}
		if _, err := disk.WriteAt(ctx, base[:chunk], 6*chunk); err != nil {
			t.Fatal(err)
		}
		commit(disk)
		export("real", real.Image)

		synth, err := up.CreateSynthetic(ctx, "", 8*chunk)
		if err != nil {
			t.Fatal(err)
		}
		disk, err = up.OpenDisk(ctx, ctx.Node(), synth, blobvfs.Synthetic())
		if err != nil {
			t.Fatal(err)
		}
		if err := disk.Write(ctx, 4*chunk, 2*chunk); err != nil {
			t.Fatal(err)
		}
		commit(disk)
		export("synthetic", synth.Image)
	})
	return out
}

// TestArchiveBytesGolden pins the exact bytes of full and delta
// archives of a real and a synthetic lineage, dedup off and on, by
// length and SHA-256.
func TestArchiveBytesGolden(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		mode := "dedup-off/"
		if dedup {
			mode = "dedup-on/"
		}
		for name, raw := range exportGoldenLineages(t, dedup) {
			sum := sha256.Sum256(raw)
			got := goldenArchive{len(raw), hex.EncodeToString(sum[:])}
			if want := archiveGolden[mode+name]; got != want {
				t.Errorf("%s: archive is %s, want %s", mode+name, fmtGolden(got), fmtGolden(want))
			}
		}
	}
}

func fmtGolden(g goldenArchive) string { return fmt.Sprintf("{%d, %q}", g.n, g.sha) }
