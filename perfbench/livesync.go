package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"time"

	"blobvfs"
	"blobvfs/internal/vmmodel"
)

// live-sync sizes. The image is small enough that one iteration's
// repositories, mirrors, archives and expected copies stay well under a
// gigabyte of resident memory.
const (
	liveImage    = 32 << 20
	liveChunk    = 256 << 10
	liveReadSize = 64 << 10 // one verified ReadAt
	liveDisks    = 2
	liveRounds   = 4
	livePatches  = 16       // WriteAt calls per disk per round
	livePatch    = 32 << 10 // bytes per WriteAt
)

// Live-cluster layout: upstream providers and manager, downstream
// (disjoint) providers and manager, then one node per disk.
const (
	upProviders   = 4
	downProviders = 4
	upManager     = upProviders
	downFirst     = upManager + 1
	downManager   = downFirst + downProviders
	diskFirst     = downManager + 1
	liveNodes     = diskFirst + liveDisks
)

// liveInputs is everything live-sync feeds the program, generated from
// the seed: the image (a quarter of its chunks duplicate another chunk),
// the CRC of every read block, and each disk's patches per round.
type liveInputs struct {
	image   []byte
	crcs    []uint32
	patches [liveDisks][liveRounds][]patch
}

type patch struct {
	off  int64
	data []byte
}

// liveCache keeps the inputs of the run's seed: every iteration of a
// run feeds the program the same bytes, generated once.
var liveCache struct {
	seed int64
	in   *liveInputs
}

func genLiveInputs(seed int64) *liveInputs {
	if liveCache.in != nil && liveCache.seed == seed {
		return liveCache.in
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6c697665))
	in := &liveInputs{image: make([]byte, liveImage)}
	fill := func(b []byte) {
		for i := 0; i+8 <= len(b); i += 8 {
			binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
		}
	}
	chunks := liveImage / liveChunk
	perm := rng.Perm(chunks)
	dup, orig := perm[:chunks/4], perm[chunks/4:]
	for _, c := range orig {
		fill(in.image[c*liveChunk : (c+1)*liveChunk])
	}
	for _, c := range dup {
		src := orig[rng.IntN(len(orig))]
		copy(in.image[c*liveChunk:(c+1)*liveChunk], in.image[src*liveChunk:(src+1)*liveChunk])
	}
	for off := 0; off < liveImage; off += liveReadSize {
		in.crcs = append(in.crcs, crc32.ChecksumIEEE(in.image[off:off+liveReadSize]))
	}
	for d := range liveDisks {
		for round := range liveRounds {
			for range livePatches {
				p := patch{off: rng.Int64N(liveImage - livePatch), data: make([]byte, livePatch)}
				fill(p.data)
				in.patches[d][round] = append(in.patches[d][round], p)
			}
		}
	}
	liveCache.seed, liveCache.in = seed, in
	return in
}

// tally counts one disk's checked operations; merged into the run
// after the disk's activity has finished.
type tally struct {
	attempted int
	errs      []error
}

func (t *tally) check(err error) bool {
	t.attempted++
	if err != nil {
		t.errs = append(t.errs, err)
	}
	return err == nil
}

// lineage is one disk's state across the timed section.
type lineage struct {
	tally
	disk     *blobvfs.Disk
	root     int    // the disk's root span
	want     []byte // the bytes its latest snapshot must hold
	archive  bytes.Buffer
	synced   blobvfs.Version  // last upstream version shipped downstream
	down     blobvfs.Snapshot // its downstream copy
	download []byte

	committed        int64 // bytes committed (mirror accounting)
	exportS, importS float64
	archiveBytes     int64
	shipped, deduped int
	ok               bool
}

// runLiveSync is the live-sync workload on the live fabric with real
// bytes: two disks concurrently read a deterministic image end to end,
// verifying every read; then run patch+snapshot rounds, and after each
// round ship their lineage to a second repository (disjoint providers,
// dedup on) through Export/Import. The downstream copy is downloaded
// and compared byte for byte at the end.
func runLiveSync(r *run) {
	in := genLiveInputs(r.seed)
	ls := make([]*lineage, liveDisks)
	for k := range ls {
		ls[k] = &lineage{want: bytes.Clone(in.image), download: make([]byte, liveImage), ok: true}
	}
	r.t0 = time.Now() // the benchmark's own inputs and buffers are not set-up

	fab := blobvfs.NewLiveCluster(liveNodes)
	open := func(first, n, manager int) (*blobvfs.Repo, error) {
		var nodes []blobvfs.NodeID
		for i := range n {
			nodes = append(nodes, blobvfs.NodeID(first+i))
		}
		return blobvfs.Open(fab, blobvfs.WithProviders(nodes...), blobvfs.WithManager(blobvfs.NodeID(manager)),
			blobvfs.WithChunkSize(liveChunk), blobvfs.WithDedup())
	}
	up, err := open(0, upProviders, upManager)
	if err != nil {
		r.check(err)
		return
	}
	down, err := open(downFirst, downProviders, downManager)
	if err != nil {
		r.check(err)
		return
	}
	var base blobvfs.Snapshot
	fab.Run(func(ctx *blobvfs.Ctx) { base, err = up.Create(ctx, "base", in.image) })
	if err != nil {
		r.check(fmt.Errorf("upload: %w", err))
		return
	}
	fab.ResetTraffic()
	c0 := blobCounters(up.System(), down.System())

	var spans *spanLog
	if r.traced {
		spans = newSpanLog()
	}
	// phase runs fn for every disk still healthy, concurrently, each on
	// its own node, and returns the phase's host seconds.
	phase := func(ctx *blobvfs.Ctx, fn func(cc *blobvfs.Ctx, k int, l *lineage)) float64 {
		t := time.Now()
		var tasks []blobvfs.Task
		for k, l := range ls {
			if l.ok {
				tasks = append(tasks, ctx.Go("disk", blobvfs.NodeID(diskFirst+k), func(cc *blobvfs.Ctx) { fn(cc, k, l) }))
			}
		}
		ctx.WaitAll(tasks)
		return time.Since(t).Seconds()
	}

	var readS, commitS, syncS float64
	if !r.begin() {
		return
	}
	fab.Run(func(ctx *blobvfs.Ctx) {
		readS = phase(ctx, func(cc *blobvfs.Ctx, k int, l *lineage) {
			l.root = spans.start("disk", k, -1)
			sp := spans.start("OpenDisk", k, l.root)
			disk, err := up.OpenDisk(cc, cc.Node(), base)
			spans.end(sp)
			l.disk = disk
			if l.ok = l.check(err); !l.ok {
				return
			}
			buf := make([]byte, liveReadSize)
			for b, off := 0, int64(0); off < liveImage; b, off = b+1, off+liveReadSize {
				sp := spans.start("ReadAt", k, l.root)
				n, err := l.disk.ReadAt(cc, buf, off)
				spans.end(sp)
				if err == nil && (n != liveReadSize || crc32.ChecksumIEEE(buf) != in.crcs[b]) {
					err = fmt.Errorf("disk %d read at %d: %d bytes, CRC mismatch", k, off, n)
				}
				if l.ok = l.check(err); !l.ok {
					return
				}
			}
		})
		for round := range liveRounds {
			commitS += phase(ctx, func(cc *blobvfs.Ctx, k int, l *lineage) {
				before := l.disk.Stats().CommittedBytes
				for _, p := range in.patches[k][round] {
					sp := spans.start("WriteAt", k, l.root)
					_, err := l.disk.WriteAt(cc, p.data, p.off)
					spans.end(sp)
					if l.ok = l.check(err); !l.ok {
						return
					}
					copy(l.want[p.off:], p.data)
				}
				sp := spans.start("Snapshot", k, l.root)
				_, err := up.Snapshot(cc, l.disk, round == 0)
				spans.end(sp)
				l.ok = l.check(err)
				l.committed += l.disk.Stats().CommittedBytes - before
			})
			syncS += phase(ctx, func(cc *blobvfs.Ctx, k int, l *lineage) {
				cur := l.disk.Current()
				l.archive.Reset()
				sp := spans.start("Export", k, l.root)
				t := time.Now()
				es, err := up.Export(cc, &l.archive, cur.Image, l.synced, cur.Version)
				l.exportS += time.Since(t).Seconds()
				spans.end(sp)
				if l.ok = l.check(err); !l.ok {
					return
				}
				sp = spans.start("Import", k, l.root)
				t = time.Now()
				is, err := down.Import(cc, bytes.NewReader(l.archive.Bytes()))
				l.importS += time.Since(t).Seconds()
				spans.end(sp)
				if l.ok = l.check(err); !l.ok {
					return
				}
				l.synced, l.down = cur.Version, blobvfs.Snapshot{Image: is.Image, Version: is.To}
				l.archiveBytes += es.ArchiveBytes + is.ArchiveBytes
				l.shipped += es.Chunks
				l.deduped += is.DedupedChunks
			})
		}
		phase(ctx, func(cc *blobvfs.Ctx, k int, l *lineage) {
			sp := spans.start("Download", k, l.root)
			err := down.Download(cc, l.down, l.download)
			spans.end(sp)
			if err == nil && !bytes.Equal(l.download, l.want) {
				err = fmt.Errorf("disk %d: downstream snapshot %d@%d differs from upstream bytes", k, l.down.Image, l.down.Version)
			}
			l.check(err)
			spans.end(l.root)
		})
	})
	r.end()

	var disks []vmmodel.VirtualDisk
	var committed, archive int64
	var exportS, importS float64
	var shipped, deduped int
	for _, l := range ls {
		r.checkN(l.attempted-len(l.errs), nil)
		for _, err := range l.errs {
			r.check(err)
		}
		if l.disk != nil {
			disks = append(disks, l.disk)
			fab.Run(func(ctx *blobvfs.Ctx) { r.check(l.disk.Close(ctx)) })
		}
		committed += l.committed
		archive += l.archiveBytes
		exportS += l.exportS
		importS += l.importS
		shipped += l.shipped
		deduped += l.deduped
	}

	d, h := r.s.det, r.s.host
	recordDisks(r, disks)
	d["traffic_mb"] = float64(fab.NetTraffic()) / 1e6
	recordCounts(r, c0, blobCounters(up.System(), down.System()), up.System(), down.System())
	// The two disks race for shared metadata and chunks, so which of
	// them pays for a fetch varies from run to run.
	for _, k := range []string{"blob.hottest_provider_reads", "blob.meta_gets", "blob.meta_nodes_per_get"} {
		h[k] = d[k]
		delete(d, k)
	}
	d["sync.archive_mb"] = float64(archive) / 1e6
	d["sync.chunks_shipped"] = float64(shipped)
	h["sync.chunks_deduped"] = float64(deduped)
	h["e2e.read_mb_s"] = float64(liveDisks*liveImage) / readS / 1e6
	h["e2e.commit_mb_s"] = float64(committed) / commitS / 1e6
	h["e2e.sync_mb_s"] = float64(archive) / syncS / 1e6
	h["sync.export_s"] = exportS
	h["sync.import_s"] = importS

	if spans != nil {
		r.s.spans = spans
		readAt := spans.durations("ReadAt")
		h["blobvfs.readat_p50_us"] = quantile(readAt, 0.5) * 1e6
		h["blobvfs.readat_p99_us"] = quantile(readAt, 0.99) * 1e6
		h["blobvfs.snapshot_p50_ms"] = quantile(spans.durations("Snapshot"), 0.5) * 1e3
		h["blobvfs.opendisk_ms"] = quantile(spans.durations("OpenDisk"), 0.5) * 1e3
		h["blobvfs.download_s"] = quantile(spans.durations("Download"), 0.5)
	}
}
