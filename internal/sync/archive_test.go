package sync

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
)

// encodeArchive serializes an archive the way Export does, for codec
// tests that need the bytes without a fabric.
func encodeArchive(a *Archive) []byte {
	var buf bytes.Buffer
	enc := newEncoder(&buf)
	enc.header(a.Header)
	enc.versions(a.Versions)
	enc.nodes(a.Nodes)
	enc.chunks(a.Chunks)
	if _, err := enc.finish(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func sampleArchive() *Archive {
	data := []byte("delta payload bytes")
	real := blob.RealPayload(data)
	synth := blob.SyntheticPayload(4096, 77)
	return &Archive{
		Header: Header{
			SourceUUID: 0xA11CE,
			Image:      3,
			From:       2,
			To:         4,
			Seq:        7,
			ChunkSize:  4096,
			ImageSize:  8192,
			Span:       2,
		},
		Versions: []VersionRecord{
			{Version: 3, Retired: true},
			{Version: 4, Root: 101},
		},
		Nodes: []NodeRecord{
			{Ref: 101, Node: blob.TreeNode{Lo: 0, Hi: 2, Left: 102, Right: 55}},
			{Ref: 102, Node: blob.TreeNode{Lo: 0, Hi: 1, Chunk: 201}},
		},
		Chunks: []ChunkRecord{
			{Key: 201, Payload: real, Digest: payloadDigest(real)},
			{Key: 202, Payload: synth, Digest: payloadDigest(synth)},
		},
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	a := sampleArchive()
	raw := encodeArchive(a)
	got, err := DecodeArchive(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != int64(len(raw)) {
		t.Fatalf("Size = %d, want %d", got.Size, len(raw))
	}
	got.Size = 0
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, a)
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	raw := encodeArchive(sampleArchive())
	for n := 0; n < len(raw); n++ {
		if _, err := DecodeArchive(bytes.NewReader(raw[:n])); !errors.Is(err, ErrArchiveCorrupt) {
			t.Fatalf("truncation at %d of %d: err = %v, want ErrArchiveCorrupt", n, len(raw), err)
		}
	}
}

func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	raw := encodeArchive(sampleArchive())
	for off := 0; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		if _, err := DecodeArchive(bytes.NewReader(mut)); !errors.Is(err, ErrArchiveCorrupt) {
			t.Fatalf("bit flip at offset %d: err = %v, want ErrArchiveCorrupt", off, err)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	raw := encodeArchive(sampleArchive())
	raw = append(raw, 0xEE)
	if _, err := DecodeArchive(bytes.NewReader(raw)); !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("err = %v, want ErrArchiveCorrupt", err)
	}
}

// endless serves prefix and then an unending run of filler bytes,
// counting what it served. Past 64 MiB it fails instead, so a decoder
// that buffers its whole input errors out before it can exhaust the
// test's memory; the test then fails on the bytes read.
type endless struct {
	prefix []byte
	served int64
}

func (e *endless) Read(p []byte) (int, error) {
	if e.served > 64<<20 {
		return 0, errors.New("endless stream: reader gave up")
	}
	n := 0
	if e.served < int64(len(e.prefix)) {
		n = copy(p, e.prefix[e.served:])
	}
	for i := n; i < len(p); i++ {
		p[i] = 0xEE
	}
	e.served += int64(len(p))
	return len(p), nil
}

// TestDecodeBoundedOnEndlessStream: an endless stream after a valid
// header, or after a whole valid archive, fails as corrupt promptly,
// having read little more than the valid prefix.
func TestDecodeBoundedOnEndlessStream(t *testing.T) {
	raw := encodeArchive(sampleArchive())
	for name, prefix := range map[string][]byte{
		"after header":  raw[:headerLen+sumLen],
		"after trailer": raw,
	} {
		t.Run(name, func(t *testing.T) {
			src := &endless{prefix: prefix}
			done := make(chan error, 1)
			go func() {
				_, err := DecodeArchive(src)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrArchiveCorrupt) {
					t.Fatalf("err = %v, want ErrArchiveCorrupt", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("DecodeArchive still reading an endless stream after 10s")
			}
			if limit := int64(len(prefix)) + 1<<20; src.served > limit {
				t.Fatalf("decoder read %d bytes of an endless stream, want at most %d", src.served, limit)
			}
		})
	}
}

// TestDecodeLargePayload: a real payload longer than bodyStep arrives
// through the growing buffer intact, and a cut inside it is a
// truncation.
func TestDecodeLargePayload(t *testing.T) {
	a := sampleArchive()
	data := make([]byte, 3*bodyStep+5)
	for i := range data {
		data[i] = byte(i * 7)
	}
	big := blob.RealPayload(data)
	a.Chunks[0] = ChunkRecord{Key: 201, Payload: big, Digest: payloadDigest(big)}
	raw := encodeArchive(a)
	got, err := DecodeArchive(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Chunks[0].Payload.Data, data) {
		t.Fatal("large payload differs after the round trip")
	}
	if _, err := DecodeArchive(bytes.NewReader(raw[:len(raw)/2])); !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("cut inside the payload: err = %v, want ErrArchiveCorrupt", err)
	}
}

// TestFusedFoldsMatchFNV: fold2 and fold3 continue each state exactly
// as hash/fnv's FNV-64a would.
func TestFusedFoldsMatchFNV(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 7, 4096, 100_003} {
		prefix, data := make([]byte, 13), make([]byte, n)
		for i := range prefix {
			prefix[i] = byte(rng.Uint32())
		}
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		ref := func(parts ...[]byte) uint64 {
			h := fnv.New64a()
			for _, p := range parts {
				h.Write(p)
			}
			return h.Sum64()
		}
		mid := blob.ContentHash(prefix)
		if mid != ref(prefix) {
			t.Fatalf("ContentHash differs from hash/fnv")
		}
		a, b := fold2(mid, blob.FNVOffset64, data)
		if a != ref(prefix, data) || b != ref(data) {
			t.Fatalf("fold2 over %d bytes differs from hash/fnv", n)
		}
		a, b, c := fold3(blob.FNVOffset64, mid, blob.FNVOffset64, data)
		if a != ref(data) || b != ref(prefix, data) || c != ref(data) {
			t.Fatalf("fold3 over %d bytes differs from hash/fnv", n)
		}
	}
}

// TestPayloadDigestIsDedupFingerprint pins what digest reuse rests
// on: a real payload's archive digest equals the fingerprint the
// provider set's dedup index stores for it, also through an alias,
// and synthetic content offers none.
func TestPayloadDigestIsDedupFingerprint(t *testing.T) {
	ps := blob.NewProviderSet([]cluster.NodeID{0, 1}, 1)
	ps.EnableDedup()
	real := blob.RealPayload([]byte("content both sides hash alike"))
	cluster.NewLive(2).Run(func(ctx *cluster.Ctx) {
		err := ps.PutBatch(ctx, []blob.ChunkPut{
			{Key: 1, Payload: real},
			{Key: 2, Payload: blob.RealPayload(bytes.Clone(real.Data))}, // an alias of key 1
			{Key: 3, Payload: blob.SyntheticPayload(4096, 5)},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, key := range []blob.ChunkKey{1, 2} {
		if fp, ok := ps.StoredPrint(key); !ok || fp != payloadDigest(real) {
			t.Fatalf("key %d: stored print %#x (%v), archive digest %#x", key, fp, ok, payloadDigest(real))
		}
	}
	if _, ok := ps.StoredPrint(3); ok {
		t.Fatal("synthetic content reported a real-content fingerprint")
	}
}

func TestPayloadDigestDistinguishes(t *testing.T) {
	a := payloadDigest(blob.RealPayload([]byte("aaaa")))
	b := payloadDigest(blob.RealPayload([]byte("aaab")))
	if a == b {
		t.Fatal("distinct real payloads share a digest")
	}
	s1 := payloadDigest(blob.SyntheticPayload(4096, 1))
	s2 := payloadDigest(blob.SyntheticPayload(4096, 2))
	if s1 == s2 {
		t.Fatal("distinct synthetic payloads share a digest")
	}
}

func TestTrackerSequenceRules(t *testing.T) {
	up := NewTracker(0xA)
	down := NewTracker(0xB)
	h := func(image blob.ID, from, to blob.Version, seq uint64) Header {
		return Header{SourceUUID: up.uuid, Image: image, From: from, To: to, Seq: seq}
	}

	// Self-import is refused.
	if _, err := up.admit(h(1, 0, 1, 1)); !errors.Is(err, ErrSourceMismatch) {
		t.Fatalf("self-import: %v", err)
	}
	// A delta for an unknown image has no base.
	if _, err := down.admit(h(1, 1, 2, 2)); !errors.Is(err, ErrBaseMissing) {
		t.Fatalf("delta without base: %v", err)
	}
	// Full archive admits and latches the source.
	if _, err := down.admit(h(1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	down.commitImport(h(1, 0, 1, 1), 11)
	if _, err := down.admit(Header{SourceUUID: 0xC, Image: 9, From: 0, To: 1, Seq: 1}); !errors.Is(err, ErrSourceMismatch) {
		t.Fatalf("foreign source: %v", err)
	}
	// Replaying the full archive is a sequence violation.
	if _, err := down.admit(h(1, 0, 1, 1)); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("full replay: %v", err)
	}
	// Skipping seq 2 is a gap; the exact successor admits.
	if _, err := down.admit(h(1, 2, 3, 3)); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("seq skip: %v", err)
	}
	local, err := down.admit(h(1, 1, 2, 2))
	if err != nil || local != 11 {
		t.Fatalf("successor: local=%d err=%v", local, err)
	}
	// Base/seq must both line up: right seq, wrong base.
	if _, err := down.admit(h(1, 2, 3, 2)); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("base mismatch: %v", err)
	}

	if _, ok := down.Local(1); !ok {
		t.Fatal("Local lost the cursor")
	}
	if _, ok := down.Local(42); ok {
		t.Fatal("Local invented a cursor")
	}
}
