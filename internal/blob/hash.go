package blob

// FNV-64a is the repository's one content hash. The dedup index keys
// real payloads by it, and the sync codec uses it for every checksum of
// an archive, including the per-chunk digest — which is why an import
// can hand a verified archive digest to PutBatch as the payload's
// fingerprint instead of hashing the bytes again.
const (
	FNVOffset64 uint64 = 14695981039346656037
	FNVPrime64  uint64 = 1099511628211
)

// ContentHash returns the FNV-64a hash of b: the content fingerprint
// of a real payload with these bytes.
func ContentHash(b []byte) uint64 {
	h := FNVOffset64
	for _, c := range b {
		h ^= uint64(c)
		h *= FNVPrime64
	}
	return h
}
