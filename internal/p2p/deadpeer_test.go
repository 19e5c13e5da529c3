package p2p

import (
	"testing"

	"blobvfs/internal/blob"
	"blobvfs/internal/cluster"
	"blobvfs/internal/sim"
)

// TestLocateNeverSelectsDeadPeer: randomized member deaths against an
// announcing cohort. The tracker must retract every location record a
// dead member held, Locate must never return a dead uploader, and a
// dead member's own announcements must be ignored.
func TestLocateNeverSelectsDeadPeer(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := sim.NewRNG(int64(9000 + trial))
		nMembers := 4 + rng.Intn(8)
		nKeys := 8 + rng.Intn(24)
		fab := cluster.NewSim(cluster.DefaultConfig(nMembers + 1))
		tracker := cluster.NodeID(0)
		members := make([]cluster.NodeID, nMembers)
		for i := range members {
			members[i] = cluster.NodeID(i + 1)
		}
		reg := NewRegistry(tracker, DefaultConfig())
		lv := cluster.NewLiveness(nMembers + 1)
		reg.SetLiveness(lv)
		lv.OnChange(reg.NodeChanged)

		fab.Run(func(ctx *cluster.Ctx) {
			co := reg.Register(ctx, 1, members)
			keys := make([]blob.ChunkKey, nKeys)
			for i := range keys {
				keys[i] = blob.ChunkKey(i + 1)
			}
			// Every member announces a random subset.
			for _, m := range members {
				var mine []blob.ChunkKey
				for _, k := range keys {
					if rng.Intn(2) == 0 {
						mine = append(mine, k)
					}
				}
				m := m
				ctx.Wait(ctx.Go("announce", m, func(cc *cluster.Ctx) {
					co.Announce(cc, mine)
				}))
			}
			// Kill members one at a time, asserting after each death
			// that no Locate from any surviving member returns a dead
			// peer.
			perm := rng.Perm(nMembers)
			for _, vi := range perm[:nMembers/2] {
				victim := members[vi]
				lv.Kill(ctx, victim)
				for _, m := range members {
					if !lv.Alive(m) {
						continue
					}
					m := m
					ctx.Wait(ctx.Go("locate", m, func(cc *cluster.Ctx) {
						for _, k := range keys {
							peer, release, ok := co.Locate(cc, k)
							if !ok {
								continue
							}
							if !lv.Alive(peer) {
								t.Errorf("Locate(%d) from %d returned dead peer %d", k, m, peer)
							}
							release()
						}
					}))
				}
				// A dead member's announcements must be dropped.
				st := co.Stats()
				if st.DeadDropped == 0 {
					t.Fatal("death retracted no location records")
				}
				// ... and its re-announcements ignored.
				victimKeys := keys[:2]
				ctx.Wait(ctx.Go("dead-announce", victim, func(cc *cluster.Ctx) {
					co.Announce(cc, victimKeys)
				}))
				for _, k := range victimKeys {
					for _, h := range co.holders[k] {
						if h == victim {
							t.Fatalf("dead member %d re-registered as holder of %d", victim, k)
						}
					}
				}
			}
			// Revived members start clean and may announce again.
			revived := members[perm[0]]
			lv.Revive(ctx, revived)
			ctx.Wait(ctx.Go("re-announce", revived, func(cc *cluster.Ctx) {
				co.Announce(cc, keys[:1])
			}))
			found := false
			for _, h := range co.holders[keys[0]] {
				if h == revived {
					found = true
				}
			}
			if !found {
				t.Fatalf("revived member %d could not re-announce", revived)
			}
		})
	}
}
