// Package p2p implements peer-to-peer chunk sharing for concurrent
// multideployment — the scaling direction §7 of the paper names as
// avoiding provider hot-spots when N mirroring modules deploy the same
// image at once.
//
// Without sharing, every demand fetch of a hot chunk lands on the same
// small replica set, so per-provider load scales linearly with N. With
// sharing, a module that has already mirrored a chunk (by demand fetch,
// prefetch or commit) becomes an alternate source for its cohort
// siblings, and provider load per chunk drops to O(1): the first few
// fetches seed the cohort, everything after is peer traffic spread over
// the deployment's own NICs and disks.
//
// The design is tracker-based, like a registry-scale mirror fan-out
// (cf. oc-mirror's mirror-to-disk-then-redistribute flow):
//
//   - A Registry lives on a tracker node (the version-manager/service
//     node in the experiments). Per deployed image it keeps a Cohort:
//     the member nodes plus a chunk-key → holders location map.
//   - Members announce freshly mirrored chunks with one small RPC to
//     the tracker. Announcements are deduplicated per (member, chunk),
//     so a chunk fetched twice concurrently is only recorded once.
//   - Locate asks the tracker, with one small RPC, for the chunk's
//     live holders — the way a BitTorrent tracker returns a peer list —
//     and picks the nearest one, load breaking ties within a locality
//     tier (on a flat cluster every holder is equidistant, so the pick
//     is the least-loaded), reserving one of its Config.MaxUploads
//     upload slots. If every holder is saturated the caller falls back
//     to the providers — hot peers shed load instead of becoming the
//     new hot-spot.
//   - Members keep no location state, so nothing is ever pushed to
//     them: registration, a member's death and a GC reclaim only
//     change the tracker's map, and the control plane costs O(1)
//     messages per announcement or lookup whatever the cohort size.
//   - A member whose local copy diverges from the published content
//     (a mirrored chunk dirtied by a guest write) retracts itself.
//
// Cohort implements blob.ChunkSharer; the blob client consults it on
// every chunk read and mirror modules announce through it. State is
// shared memory guarded by a mutex that is never held across fabric
// operations, so the same code runs on the live fabric (real
// goroutines) and the discrete-event simulation.
package p2p
