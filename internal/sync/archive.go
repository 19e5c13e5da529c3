package sync

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"blobvfs/internal/blob"
)

// The archive wire format, little-endian throughout:
//
//	magic          8 bytes "BVFSYNC1"
//	header         formatVersion u32, sourceUUID u64, image i32,
//	               from i32, to i32, seq u64, chunkSize i32,
//	               imageSize i64, span i64, headerSum u64
//	section ×3     kind u32, length u64, body, bodySum u64
//	               (kinds in strict order: versions, nodes, chunks)
//	trailer        archiveSum u64
//
// Every checksum is FNV-64a: headerSum covers magic through span,
// each bodySum covers its section body, and archiveSum covers every
// byte before the trailer — so a flipped bit anywhere in the stream
// is caught before any record is acted on. Section bodies are
// length-prefixed and the decoder bounds every count against its
// section length, so a corrupted or adversarial archive fails with
// ErrArchiveCorrupt instead of an over-allocation or a panic (see
// FuzzImportArchive).
//
// Both directions stream in one pass. The encoder writes records
// straight to the writer, section lengths computed up front; the
// decoder reads envelope by envelope, never past the largest legal
// archive, into buffers that grow only as bytes arrive. Every byte
// feeds all the sums that cover it in one fused loop (fold2, fold3),
// so each payload byte is hashed once per side.

const (
	formatVersion = 1

	sectionVersions = 1
	sectionNodes    = 2
	sectionChunks   = 3

	// maxSectionLen bounds a section body; anything larger is treated
	// as corruption before allocation, not after.
	maxSectionLen = 1 << 30

	headerLen     = 8 + 4 + 8 + 4 + 4 + 4 + 8 + 4 + 8 + 8 // magic through span
	envelopeLen   = 4 + 8                                 // section kind, length
	sumLen        = 8
	versionRecLen = 4 + 1 + 8
	nodeRecLen    = 6 * 8
	chunkRecLen   = 8 + 4 + 8 + 1 + 8 // real payloads append their bytes

	// maxArchiveLen is the largest archive the format admits: header,
	// three sections of maxSectionLen, trailer. The decoder reads no
	// further, whatever the stream holds.
	maxArchiveLen = headerLen + sumLen + 3*(envelopeLen+maxSectionLen+sumLen) + sumLen

	// bodyStep bounds how far ahead of the arrived bytes the decoder
	// allocates a payload buffer, so a forged size costs no more
	// memory than the stream actually carries.
	bodyStep = 1 << 20

	// maxPrealloc caps the record slices allocated from a declared
	// count; past it they grow as records arrive.
	maxPrealloc = 1 << 12

	// nodeWire mirrors the blob package's modeled on-wire size of a
	// metadata node; stats use it to price shipped tree nodes.
	nodeWire = 64
)

var magic = [8]byte{'B', 'V', 'F', 'S', 'Y', 'N', 'C', '1'}

var le = binary.LittleEndian

// Header is the archive's self-description: which source repository,
// which image, which version range the archive carries, and where it
// sits in the source's export sequence for that image.
type Header struct {
	SourceUUID uint64
	Image      blob.ID
	From, To   blob.Version
	Seq        uint64
	ChunkSize  int32
	ImageSize  int64
	Span       int64
}

// VersionRecord is one version of the range (From, To]. A retired
// record is a placeholder: the version was retired on the source
// before the export, its tree was not shipped, and the importer
// re-publishes and immediately retires it so version numbers stay
// aligned between the repositories.
type VersionRecord struct {
	Version blob.Version
	Retired bool
	Root    blob.NodeRef // source-side ref; 0 for retired placeholders
}

// NodeRecord is one shipped segment-tree node, under its source-side
// ref; child refs that name nodes outside the archive resolve against
// the importer's base tree.
type NodeRecord struct {
	Ref  blob.NodeRef
	Node blob.TreeNode
}

// ChunkRecord is one shipped chunk under its source-side key, with
// its payloadDigest. Real payloads carry their bytes, and their digest
// is blob.ContentHash of them — the dedup fingerprint, which is what
// lets an import hand a verified digest to PutBatch. Synthetic
// payloads carry only the (size, tag) descriptor.
type ChunkRecord struct {
	Key     blob.ChunkKey
	Payload blob.Payload
	Digest  uint64
}

// Archive is a fully decoded (and checksum-verified) delta archive.
type Archive struct {
	Header   Header
	Versions []VersionRecord
	Nodes    []NodeRecord
	Chunks   []ChunkRecord
	Size     int64 // serialized length in bytes
}

// payloadDigest is a chunk payload's per-chunk integrity digest:
// ContentHash over the bytes for real payloads, over the (tag, size)
// descriptor for synthetic ones.
func payloadDigest(p blob.Payload) uint64 {
	if p.Real() {
		return blob.ContentHash(p.Data)
	}
	var buf [12]byte
	le.PutUint64(buf[0:], p.Tag)
	le.PutUint32(buf[8:], uint32(p.Size))
	return blob.ContentHash(buf[:])
}

// fold2 and fold3 continue two and three FNV-64a states over the same
// bytes. FNV-64a is bound by the latency of its multiply, not by
// throughput, so one loop folding independent states runs about as
// fast as blob.ContentHash folding one: a byte feeds every sum that
// covers it (archive, section, chunk digest) in a single pass.
func fold2(a, b uint64, p []byte) (uint64, uint64) {
	for _, c := range p {
		x := uint64(c)
		a = (a ^ x) * blob.FNVPrime64
		b = (b ^ x) * blob.FNVPrime64
	}
	return a, b
}

func fold3(a, b, d uint64, p []byte) (uint64, uint64, uint64) {
	for _, c := range p {
		x := uint64(c)
		a = (a ^ x) * blob.FNVPrime64
		b = (b ^ x) * blob.FNVPrime64
		d = (d ^ x) * blob.FNVPrime64
	}
	return a, b, d
}

// encoder streams an archive into a writer in one pass: header, then
// each section's envelope, records and sum, then the trailer. Every
// byte it writes feeds the running archive sum and, inside a section,
// the section sum. Errors stick.
type encoder struct {
	w        *bufio.Writer
	arc, sec uint64
	n        int64
	err      error
	scratch  [headerLen + sumLen]byte
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: bufio.NewWriterSize(w, 64<<10), arc: blob.FNVOffset64}
}

// put writes b and folds it into the running sums.
func (e *encoder) put(b []byte) {
	if e.err != nil {
		return
	}
	e.arc, e.sec = fold2(e.arc, e.sec, b)
	n, err := e.w.Write(b)
	e.n += int64(n)
	e.err = err
}

func (e *encoder) header(h Header) {
	b := append(e.scratch[:0], magic[:]...)
	b = le.AppendUint32(b, formatVersion)
	b = le.AppendUint64(b, h.SourceUUID)
	b = le.AppendUint32(b, uint32(h.Image))
	b = le.AppendUint32(b, uint32(h.From))
	b = le.AppendUint32(b, uint32(h.To))
	b = le.AppendUint64(b, h.Seq)
	b = le.AppendUint32(b, uint32(h.ChunkSize))
	b = le.AppendUint64(b, uint64(h.ImageSize))
	b = le.AppendUint64(b, uint64(h.Span))
	e.put(b)
	// The header sum covers exactly the bytes the archive sum has
	// folded so far, from the same offset basis: the two are equal.
	e.put(le.AppendUint64(e.scratch[:0], e.arc))
}

// beginSection writes a section envelope and restarts the section
// sum; the body follows through put and endSection closes it.
func (e *encoder) beginSection(kind uint32, length int64) {
	b := le.AppendUint32(e.scratch[:0], kind)
	e.put(le.AppendUint64(b, uint64(length)))
	e.sec = blob.FNVOffset64
}

func (e *encoder) endSection() {
	e.put(le.AppendUint64(e.scratch[:0], e.sec))
}

func (e *encoder) count(n int) {
	e.put(le.AppendUint32(e.scratch[:0], uint32(n)))
}

func (e *encoder) versions(recs []VersionRecord) {
	e.beginSection(sectionVersions, 4+int64(len(recs))*versionRecLen)
	e.count(len(recs))
	for _, r := range recs {
		b := le.AppendUint32(e.scratch[:0], uint32(r.Version))
		flags := byte(0)
		if r.Retired {
			flags = 1
		}
		b = append(b, flags)
		e.put(le.AppendUint64(b, uint64(r.Root)))
	}
	e.endSection()
}

func (e *encoder) nodes(recs []NodeRecord) {
	e.beginSection(sectionNodes, 4+int64(len(recs))*nodeRecLen)
	e.count(len(recs))
	for _, r := range recs {
		b := le.AppendUint64(e.scratch[:0], uint64(r.Ref))
		b = le.AppendUint64(b, uint64(r.Node.Lo))
		b = le.AppendUint64(b, uint64(r.Node.Hi))
		b = le.AppendUint64(b, uint64(r.Node.Left))
		b = le.AppendUint64(b, uint64(r.Node.Right))
		e.put(le.AppendUint64(b, uint64(r.Node.Chunk)))
	}
	e.endSection()
}

// chunks streams the chunk section record by record, real payload
// bytes going from the record straight to the writer.
func (e *encoder) chunks(recs []ChunkRecord) {
	length := int64(4)
	for _, r := range recs {
		length += chunkRecLen + int64(len(r.Payload.Data))
	}
	e.beginSection(sectionChunks, length)
	e.count(len(recs))
	for _, r := range recs {
		b := le.AppendUint64(e.scratch[:0], uint64(r.Key))
		b = le.AppendUint32(b, uint32(r.Payload.Size))
		b = le.AppendUint64(b, r.Payload.Tag)
		flags := byte(0)
		if r.Payload.Real() {
			flags = 1
		}
		b = append(b, flags)
		e.put(le.AppendUint64(b, r.Digest))
		if r.Payload.Real() {
			e.put(r.Payload.Data)
		}
	}
	e.endSection()
}

// flush hands everything encoded so far to the writer.
func (e *encoder) flush() {
	if e.err == nil {
		e.err = e.w.Flush()
	}
}

// finish writes the whole-archive checksum trailer, flushes, and
// returns the total byte count.
func (e *encoder) finish() (int64, error) {
	e.put(le.AppendUint64(e.scratch[:0], e.arc))
	e.flush()
	return e.n, e.err
}

// corrupt builds an ErrArchiveCorrupt with positional context.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("sync: "+format+": %w", append(args, ErrArchiveCorrupt)...)
}

// decoder reads an archive from a stream in one pass. Fixed-size
// fields land in a scratch buffer, real payloads in buffers of their
// own, and every byte feeds the running archive and section sums as it
// is read.
type decoder struct {
	r        *bufio.Reader
	off      int64 // bytes consumed
	arc, sec uint64
	scratch  [headerLen + sumLen]byte
}

// fill reads exactly len(b) bytes into b; a short stream is a
// truncated archive.
func (d *decoder) fill(b []byte) error {
	n, err := io.ReadFull(d.r, b)
	d.off += int64(n)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return corrupt("truncated at offset %d (need %d bytes, got %d)", d.off-int64(n), len(b), n)
	case err != nil:
		return corrupt("reading archive at offset %d: %v", d.off, err)
	}
	return nil
}

// take reads n fixed-size bytes into the scratch buffer and folds them
// into the running sums. The result is valid until the next take.
func (d *decoder) take(n int) ([]byte, error) {
	b := d.scratch[:n]
	if err := d.fill(b); err != nil {
		return nil, err
	}
	d.arc, d.sec = fold2(d.arc, d.sec, b)
	return b, nil
}

// sum reads a stored checksum and compares it with want, the running
// sum over the bytes it covers.
func (d *decoder) sum(want uint64, what string) error {
	b, err := d.take(sumLen)
	if err != nil {
		return err
	}
	if le.Uint64(b) != want {
		return corrupt("%s checksum mismatch", what)
	}
	return nil
}

// DecodeArchive reads and structurally validates a complete archive:
// magic, format version, all four checksums, section order, record
// counts against section lengths, and per-chunk payload digests. It
// does not touch any repository state — every failure is reported
// before an import acts on a single record. It reads at most one byte
// past the largest legal archive, so an endless or oversized stream
// fails as corrupt instead of being buffered.
func DecodeArchive(src io.Reader) (*Archive, error) {
	d := &decoder{
		r:   bufio.NewReaderSize(io.LimitReader(src, maxArchiveLen+1), 64<<10),
		arc: blob.FNVOffset64,
	}
	var a Archive
	var err error
	if a.Header, err = d.header(); err != nil {
		return nil, err
	}
	if a.Versions, err = d.versions(); err != nil {
		return nil, err
	}
	if a.Nodes, err = d.nodes(); err != nil {
		return nil, err
	}
	if a.Chunks, err = d.chunks(); err != nil {
		return nil, err
	}
	if err := d.sum(d.arc, "archive"); err != nil {
		return nil, err
	}
	// Nothing may follow the trailer; one more byte tells.
	switch _, err := d.r.ReadByte(); err {
	case io.EOF:
	case nil:
		return nil, corrupt("trailing bytes after the trailer at offset %d", d.off)
	default:
		return nil, corrupt("reading archive at offset %d: %v", d.off, err)
	}
	a.Size = d.off
	return &a, nil
}

func (d *decoder) header() (Header, error) {
	b, err := d.take(len(magic))
	if err != nil {
		return Header{}, err
	}
	if !bytes.Equal(b, magic[:]) {
		return Header{}, corrupt("bad magic %q", b)
	}
	if b, err = d.take(headerLen - len(magic)); err != nil {
		return Header{}, err
	}
	if ver := le.Uint32(b); ver != formatVersion {
		return Header{}, corrupt("unsupported format version %d", ver)
	}
	h := Header{
		SourceUUID: le.Uint64(b[4:]),
		Image:      blob.ID(le.Uint32(b[12:])),
		From:       blob.Version(le.Uint32(b[16:])),
		To:         blob.Version(le.Uint32(b[20:])),
		Seq:        le.Uint64(b[24:]),
		ChunkSize:  int32(le.Uint32(b[32:])),
		ImageSize:  int64(le.Uint64(b[36:])),
		Span:       int64(le.Uint64(b[44:])),
	}
	// The archive sum so far covers exactly the header sum's bytes.
	return h, d.sum(d.arc, "header")
}

// openSection reads a section envelope of the expected kind, whose
// body is a u32 record count and then records of recLen bytes each
// (at least recLen, when variable). It checks the count against the
// section length before any record is read, restarts the section
// sum, and returns the count and the body bytes after it.
func (d *decoder) openSection(kind uint32, what string, recLen int64, variable bool) (int, int64, error) {
	b, err := d.take(envelopeLen)
	if err != nil {
		return 0, 0, err
	}
	if got := le.Uint32(b); got != kind {
		return 0, 0, corrupt("section kind %d, expected %d", got, kind)
	}
	n := le.Uint64(b[4:])
	if n > maxSectionLen {
		return 0, 0, corrupt("section %d length %d exceeds limit", kind, n)
	}
	if n < 4 {
		return 0, 0, corrupt("section %d length %d cannot hold its record count", kind, n)
	}
	d.sec = blob.FNVOffset64
	if b, err = d.take(4); err != nil {
		return 0, 0, err
	}
	count, rest := int64(le.Uint32(b)), int64(n)-4
	if need := count * recLen; need > rest || !variable && need != rest {
		return 0, 0, corrupt("%s count %d disagrees with section length %d", what, count, n)
	}
	return int(count), rest, nil
}

func (d *decoder) versions() ([]VersionRecord, error) {
	count, _, err := d.openSection(sectionVersions, "version", versionRecLen, false)
	if err != nil {
		return nil, err
	}
	recs := make([]VersionRecord, 0, min(count, maxPrealloc))
	for i := range count {
		b, err := d.take(versionRecLen)
		if err != nil {
			return nil, err
		}
		flags := b[4]
		if flags > 1 {
			return nil, corrupt("version record %d: unknown flags %#x", i, flags)
		}
		r := VersionRecord{Version: blob.Version(le.Uint32(b)), Retired: flags == 1, Root: blob.NodeRef(le.Uint64(b[5:]))}
		if r.Retired && r.Root != 0 {
			return nil, corrupt("retired version %d carries a root", r.Version)
		}
		recs = append(recs, r)
	}
	return recs, d.sum(d.sec, "versions section")
}

func (d *decoder) nodes() ([]NodeRecord, error) {
	count, _, err := d.openSection(sectionNodes, "node", nodeRecLen, false)
	if err != nil {
		return nil, err
	}
	recs := make([]NodeRecord, 0, min(count, maxPrealloc))
	for i := range count {
		b, err := d.take(nodeRecLen)
		if err != nil {
			return nil, err
		}
		ref := le.Uint64(b)
		n := blob.TreeNode{
			Lo: int64(le.Uint64(b[8:])), Hi: int64(le.Uint64(b[16:])),
			Left: blob.NodeRef(le.Uint64(b[24:])), Right: blob.NodeRef(le.Uint64(b[32:])),
			Chunk: blob.ChunkKey(le.Uint64(b[40:])),
		}
		if ref == 0 || n.Lo < 0 || n.Hi <= n.Lo {
			return nil, corrupt("node record %d: invalid ref %d or range [%d,%d)", i, ref, n.Lo, n.Hi)
		}
		if n.Leaf() && (n.Left != 0 || n.Right != 0) {
			return nil, corrupt("node record %d: leaf with children", i)
		}
		if !n.Leaf() && n.Chunk != 0 {
			return nil, corrupt("node record %d: inner node with chunk", i)
		}
		recs = append(recs, NodeRecord{Ref: blob.NodeRef(ref), Node: n})
	}
	return recs, d.sum(d.sec, "nodes section")
}

// chunks reads the chunk section record by record. Chunk records are
// variable-length (real payloads inline their bytes), so the count is
// sanity-bounded by the fixed record size, every record is bounded by
// what is left of the section, and the exact fit is checked after the
// last one.
func (d *decoder) chunks() ([]ChunkRecord, error) {
	count, rest, err := d.openSection(sectionChunks, "chunk", chunkRecLen, true)
	if err != nil {
		return nil, err
	}
	recs := make([]ChunkRecord, 0, min(count, maxPrealloc))
	for i := range count {
		if rest < chunkRecLen {
			return nil, corrupt("chunk record %d overruns the section", i)
		}
		b, err := d.take(chunkRecLen)
		if err != nil {
			return nil, err
		}
		rest -= chunkRecLen
		key, size, tag := le.Uint64(b), int32(le.Uint32(b[8:])), le.Uint64(b[12:])
		flags, digest := b[20], le.Uint64(b[21:])
		if flags > 1 {
			return nil, corrupt("chunk record %d: unknown flags %#x", i, flags)
		}
		if key == 0 || size < 0 {
			return nil, corrupt("chunk record %d: invalid key %d or size %d", i, key, size)
		}
		p := blob.Payload{Size: size, Tag: tag}
		var got uint64
		if flags == 1 {
			if int64(size) > rest {
				return nil, corrupt("chunk record %d: %d payload bytes overrun the section", i, size)
			}
			if p.Data, got, err = d.payload(int(size)); err != nil {
				return nil, err
			}
			rest -= int64(size)
		} else {
			got = payloadDigest(p)
		}
		if got != digest {
			return nil, corrupt("chunk record %d (key %d): payload digest mismatch", i, key)
		}
		recs = append(recs, ChunkRecord{Key: blob.ChunkKey(key), Payload: p, Digest: digest})
	}
	if rest != 0 {
		return nil, corrupt("%d trailing bytes in chunk section", rest)
	}
	return recs, d.sum(d.sec, "chunks section")
}

// payload reads an n-byte real payload into a buffer of its own and
// folds it into the archive sum, the section sum and its own digest in
// one pass. The buffer is allocated at most bodyStep ahead of the
// bytes that have arrived. A zero-length payload comes back as a
// non-nil empty slice: Real() is Data != nil.
func (d *decoder) payload(n int) ([]byte, uint64, error) {
	b := make([]byte, 0, min(n, bodyStep))
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), len(b)))
		}
		m := min(cap(b), n)
		if err := d.fill(b[len(b):m]); err != nil {
			return nil, 0, err
		}
		b = b[:m]
	}
	var digest uint64
	d.arc, d.sec, digest = fold3(d.arc, d.sec, blob.FNVOffset64, b)
	return b, digest, nil
}
