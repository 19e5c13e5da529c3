package broadcast

import (
	"math"
	"testing"

	"blobvfs/internal/cluster"
)

func nodes(from, to int) []cluster.NodeID {
	var out []cluster.NodeID
	for i := from; i < to; i++ {
		out = append(out, cluster.NodeID(i))
	}
	return out
}

func TestAllTargetsReceive(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(16))
	var results []Result
	fab.Run(func(ctx *cluster.Ctx) {
		results = Binomial(ctx, 0, nodes(1, 16), 100<<20, DefaultEffRate)
	})
	if len(results) != 15 {
		t.Fatalf("results = %d, want 15", len(results))
	}
	seen := map[cluster.NodeID]bool{}
	for _, r := range results {
		if r.Done <= 0 {
			t.Fatalf("node %d done at %v, want > 0", r.Node, r.Done)
		}
		seen[r.Node] = true
	}
	for _, n := range nodes(1, 16) {
		if !seen[n] {
			t.Fatalf("node %d never received the image", n)
		}
	}
}

func TestLogarithmicRounds(t *testing.T) {
	// Store-and-forward binomial: completion grows ~log2(N) hops, so
	// doubling N adds roughly one hop time, far from doubling.
	run := func(n int) float64 {
		fab := cluster.NewSim(cluster.DefaultConfig(n + 1))
		var done float64
		fab.Run(func(ctx *cluster.Ctx) {
			done = Completion(Binomial(ctx, 0, nodes(1, n+1), 1<<30, DefaultEffRate))
		})
		return done
	}
	t8, t64 := run(8), run(64)
	if t64 >= 3*t8 {
		t.Fatalf("t(64)=%v vs t(8)=%v: broadcast not logarithmic", t64, t8)
	}
	if t64 <= t8 {
		t.Fatalf("t(64)=%v <= t(8)=%v: more targets cannot be faster", t64, t8)
	}
}

func TestHopRateThrottle(t *testing.T) {
	// One hop of 300 MB at 30 MB/s effective rate ≈ 10 s transfer plus
	// the receiver's disk write (300 MB at 55 MB/s ≈ 5.45 s) plus the
	// source's initial read.
	cfg := cluster.DefaultConfig(2)
	fab := cluster.NewSim(cfg)
	var done float64
	fab.Run(func(ctx *cluster.Ctx) {
		done = Completion(Binomial(ctx, 0, nodes(1, 2), 300e6, 30e6))
	})
	srcRead := 300e6/cfg.DiskBandwidth + cfg.DiskSeek
	transfer := 300e6 / 30e6
	recvWrite := 300e6/cfg.DiskBandwidth + cfg.DiskSeek
	want := srcRead + transfer + recvWrite
	if math.Abs(done-want) > 0.1 {
		t.Fatalf("one-hop completion %v, want ~%v", done, want)
	}
}

func TestCalibratedScaleMatchesPaper(t *testing.T) {
	// The calibration target from Fig. 4(b): ~2 GB to 110 nodes lands
	// in the many-hundreds of seconds (the paper shows ≈700-800 s).
	fab := cluster.NewSim(cluster.DefaultConfig(111))
	var done float64
	fab.Run(func(ctx *cluster.Ctx) {
		done = Completion(Binomial(ctx, 0, nodes(1, 111), 2<<30, DefaultEffRate))
	})
	if done < 400 || done > 1100 {
		t.Fatalf("broadcast of 2 GB to 110 nodes took %.0f s, want 400-1100 (paper ~750)", done)
	}
}

func TestDegenerateBroadcasts(t *testing.T) {
	fab := cluster.NewSim(cluster.DefaultConfig(4))
	fab.Run(func(ctx *cluster.Ctx) {
		if got := Binomial(ctx, 0, nil, 1<<20, DefaultEffRate); len(got) != 0 {
			t.Errorf("broadcast to no targets returned %d results", len(got))
		}
		if got := Binomial(ctx, 0, nodes(1, 4), 0, DefaultEffRate); len(got) != 0 {
			t.Errorf("zero-byte broadcast returned %d results", len(got))
		}
	})
	if Completion(nil) != 0 {
		t.Error("Completion(nil) != 0")
	}
}

func TestLiveFabricFallback(t *testing.T) {
	// On the live fabric the broadcast must still deliver (at zero
	// cost) and count traffic: N transfers of the full image.
	fab := cluster.NewLive(8)
	fab.Run(func(ctx *cluster.Ctx) {
		rs := Binomial(ctx, 0, nodes(1, 8), 1000, 0)
		if len(rs) != 7 {
			t.Fatalf("results = %d, want 7", len(rs))
		}
	})
	if tr := fab.NetTraffic(); tr < 7*1000 {
		t.Fatalf("traffic = %d, want >= 7000", tr)
	}
}
