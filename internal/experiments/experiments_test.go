package experiments

import (
	"strings"
	"testing"

	"blobvfs/internal/workloads"
)

// TestFig4ShapesQuick verifies the qualitative claims of §5.2 on the
// scaled-down parameter set: prepropagation's flat per-instance boot
// but enormous completion time; our approach beating qcow2-over-PVFS;
// ~90% traffic reduction for the lazy schemes.
func TestFig4ShapesQuick(t *testing.T) {
	p := Quick()
	p.MaxInstances = 24
	sweep := []int{4, 24}
	res := RunFig4(p, sweep)

	ours := res.Series[OurApproach]
	qcow := res.Series[QcowOverPVFS]
	prep := res.Series[TaktukPreprop]

	for i := range sweep {
		// Fig 4(a): prepropagation boots locally; at the scaled-down
		// working set it is comparable to the lazy schemes (the local
		// advantage needs the full 110 MB boot footprint, asserted at
		// paper scale in TestFig4PaperScalePoint).
		if prep[i].AvgBoot > 2*ours[i].AvgBoot {
			t.Errorf("n=%d: preprop avg boot %.2f ≫ ours %.2f", sweep[i], prep[i].AvgBoot, ours[i].AvgBoot)
		}
		// Fig 4(a): our lazy boot beats qcow2's (chunk prefetch).
		if ours[i].AvgBoot >= qcow[i].AvgBoot {
			t.Errorf("n=%d: ours avg boot %.2f >= qcow2 %.2f", sweep[i], ours[i].AvgBoot, qcow[i].AvgBoot)
		}
		// Fig 4(b): completion: ours < qcow2 < preprop.
		if !(ours[i].Completion < qcow[i].Completion && qcow[i].Completion < prep[i].Completion) {
			t.Errorf("n=%d: completion ordering wrong: ours=%.1f qcow=%.1f prep=%.1f",
				sweep[i], ours[i].Completion, qcow[i].Completion, prep[i].Completion)
		}
		// Fig 4(d): lazy traffic is a small fraction of prepropagation's.
		if ours[i].TrafficGB > 0.5*prep[i].TrafficGB {
			t.Errorf("n=%d: ours traffic %.2f GB not ≪ preprop %.2f GB",
				sweep[i], ours[i].TrafficGB, prep[i].TrafficGB)
		}
	}
	// Fig 4(a): preprop flat; the lazy schemes' boots grow with n.
	flatDelta := prep[1].AvgBoot - prep[0].AvgBoot
	if flatDelta < -1 || flatDelta > 1 {
		t.Errorf("preprop avg boot not flat: %.2f -> %.2f", prep[0].AvgBoot, prep[1].AvgBoot)
	}
	if ours[1].AvgBoot <= ours[0].AvgBoot {
		t.Errorf("ours avg boot did not grow with contention: %.2f -> %.2f", ours[0].AvgBoot, ours[1].AvgBoot)
	}
	// Fig 4(c): the speedup table renders and speedups exceed 1.
	tables := res.Tables()
	if len(tables) != 4 {
		t.Fatalf("Tables() = %d tables, want 4", len(tables))
	}
	sp := tables[2].String()
	if !strings.Contains(sp, "speedup") {
		t.Fatalf("speedup table malformed:\n%s", sp)
	}
	// Traffic scales ~linearly with n for preprop (n × image).
	wantRatio := float64(sweep[1]) / float64(sweep[0])
	gotRatio := prep[1].TrafficGB / prep[0].TrafficGB
	if gotRatio < 0.7*wantRatio || gotRatio > 1.3*wantRatio {
		t.Errorf("preprop traffic ratio %.2f, want ~%.2f (linear in n)", gotRatio, wantRatio)
	}
}

// TestFig4PaperScalePoint runs the flagship configuration (110
// instances, full parameters) and checks the headline numbers of the
// paper's abstract: multideployment speedup in the ~20-25× range vs
// prepropagation, ~2-3× vs qcow2-over-PVFS, and ≥85% bandwidth
// reduction.
func TestFig4PaperScalePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale point in -short mode")
	}
	p := Default()
	ours := runFig4Point(p, 110, OurApproach)
	qcow := runFig4Point(p, 110, QcowOverPVFS)
	prep := runFig4Point(p, 110, TaktukPreprop)

	vsPrep := prep.Completion / ours.Completion
	if vsPrep < 15 || vsPrep > 35 {
		t.Errorf("speedup vs preprop = %.1f, want 15-35 (paper: up to 25)", vsPrep)
	}
	vsQcow := qcow.Completion / ours.Completion
	if vsQcow < 1.5 || vsQcow > 4 {
		t.Errorf("speedup vs qcow2 = %.1f, want 1.5-4 (paper: ~2)", vsQcow)
	}
	// Fig 4(a) at full scale: local boot is fastest and ours beats qcow2.
	if !(prep.AvgBoot < ours.AvgBoot && ours.AvgBoot < qcow.AvgBoot) {
		t.Errorf("avg boot ordering wrong: prep=%.1f ours=%.1f qcow=%.1f",
			prep.AvgBoot, ours.AvgBoot, qcow.AvgBoot)
	}
	reduction := 1 - ours.TrafficGB/prep.TrafficGB
	if reduction < 0.85 {
		t.Errorf("traffic reduction = %.0f%%, want >= 85%% (paper: ~90%%)", reduction*100)
	}
	// Absolute sanity: per-instance traffic ≈ the touched working set.
	perInstanceMB := ours.TrafficGB * 1e3 / 110
	if perInstanceMB < 80 || perInstanceMB > 250 {
		t.Errorf("ours traffic/instance = %.0f MB, want 80-250 (boot touches ~110 MB)", perInstanceMB)
	}
}

// TestFig5ShapesQuick verifies §5.3: our asynchronous COMMIT starts
// faster than the qcow2 file copy and both stay within a few seconds,
// with our average degrading toward the baseline as write pressure
// grows.
func TestFig5ShapesQuick(t *testing.T) {
	p := Quick()
	p.MaxInstances = 24
	// A tight write-back buffer recreates, at this scale, the write
	// pressure that degrades BlobSeer's acknowledgement latency.
	p.WriteBuffer = 512 << 10
	sweep := []int{4, 24}
	res := RunFig5(p, sweep)
	ours := res.Series[OurApproach]
	qcow := res.Series[QcowOverPVFS]
	for i := range sweep {
		if ours[i].AvgTime >= qcow[i].AvgTime {
			t.Errorf("n=%d: ours avg snapshot %.3f >= qcow2 %.3f", sweep[i], ours[i].AvgTime, qcow[i].AvgTime)
		}
		if ours[i].Completion <= 0 || qcow[i].Completion <= 0 {
			t.Errorf("n=%d: non-positive completion", sweep[i])
		}
		if ours[i].AvgTime > ours[i].Completion+1e-9 {
			t.Errorf("n=%d: avg > completion", sweep[i])
		}
	}
	// Write pressure degrades our average as n grows.
	if ours[1].AvgTime <= ours[0].AvgTime {
		t.Errorf("ours avg snapshot did not degrade: %.3f -> %.3f", ours[0].AvgTime, ours[1].AvgTime)
	}
	if len(res.Tables()) != 2 {
		t.Fatal("Fig5 must render two panels")
	}
}

// TestFig67Shapes verifies §5.4's claims end to end through the
// harness: equal reads, ~2× writes, lower ops/s for the mirror path.
func TestFig67Shapes(t *testing.T) {
	res := RunFig67(workloads.DefaultBonnieConfig())
	if res.Ours.BlockWriteKBps < res.Local.BlockWriteKBps*3/2 {
		t.Errorf("mirror write %d not ~2x local %d", res.Ours.BlockWriteKBps, res.Local.BlockWriteKBps)
	}
	rr := float64(res.Ours.BlockReadKBps) / float64(res.Local.BlockReadKBps)
	if rr < 0.85 || rr > 1.15 {
		t.Errorf("read ratio %.2f, want ~1", rr)
	}
	if res.Ours.SeeksPerSec >= res.Local.SeeksPerSec || res.Ours.DeletesPerSec >= res.Local.DeletesPerSec {
		t.Error("mirror metadata ops not slower than local")
	}
	tables := res.Tables()
	if len(tables) != 2 {
		t.Fatal("Fig67 must render two tables")
	}
	if !strings.Contains(tables[0].String(), "BlockW") || !strings.Contains(tables[1].String(), "RndSeek") {
		t.Fatal("Fig6/7 tables missing rows")
	}
}

// TestFig8ShapesQuick verifies §5.5 on the scaled-down setup:
// uninterrupted completion ordering (ours < qcow2 < preprop) and a
// modest advantage for ours in the suspend/resume setting.
func TestFig8ShapesQuick(t *testing.T) {
	p := Quick()
	p.MaxInstances = 16
	res := RunFig8(p, 16)
	u := res.Completion[Uninterrupted]
	if !(u[OurApproach] < u[QcowOverPVFS] && u[QcowOverPVFS] < u[TaktukPreprop]) {
		t.Errorf("uninterrupted ordering wrong: ours=%.1f qcow=%.1f prep=%.1f",
			u[OurApproach], u[QcowOverPVFS], u[TaktukPreprop])
	}
	// Compute dominates: completions exceed the pure compute time.
	if u[OurApproach] < p.MonteCarlo.ComputeSeconds {
		t.Errorf("ours completion %.1f < compute %.1f", u[OurApproach], p.MonteCarlo.ComputeSeconds)
	}
	s := res.Completion[SuspendResume]
	if s[OurApproach] >= s[QcowOverPVFS] {
		t.Errorf("suspend/resume: ours %.1f not faster than qcow2 %.1f", s[OurApproach], s[QcowOverPVFS])
	}
	// Suspend/resume costs more than uninterrupted for both.
	for _, a := range []Approach{OurApproach, QcowOverPVFS} {
		if s[a] <= u[a] {
			t.Errorf("%v: suspend/resume %.1f <= uninterrupted %.1f", a, s[a], u[a])
		}
	}
	out := res.Table().String()
	if !strings.Contains(out, "Uninterrupted") || !strings.Contains(out, "Suspend/Resume") {
		t.Fatalf("Fig8 table malformed:\n%s", out)
	}
}

// TestDeterministicExperiments: identical parameters produce identical
// results bit for bit.
func TestDeterministicExperiments(t *testing.T) {
	p := Quick()
	p.MaxInstances = 8
	a := runFig4Point(p, 8, OurApproach)
	b := runFig4Point(p, 8, OurApproach)
	if a != b {
		t.Fatalf("nondeterministic fig4 point: %+v vs %+v", a, b)
	}
	sa := runFig5Point(p, 8, QcowOverPVFS)
	sb := runFig5Point(p, 8, QcowOverPVFS)
	if sa != sb {
		t.Fatalf("nondeterministic fig5 point: %+v vs %+v", sa, sb)
	}
	// The degraded scenario must be deterministic fault injection and
	// all: same seed, same victims, same kill times, same counters.
	dc := Degraded(8, 2)
	dc.Providers = 6
	da := RunCrowd(p, dc)
	db := RunCrowd(p, dc)
	if da != db {
		t.Fatalf("nondeterministic degraded point: %+v vs %+v", da, db)
	}
}

// TestSeedSensitivity: a different seed changes details but not the
// qualitative outcome.
func TestSeedSensitivity(t *testing.T) {
	p := Quick()
	p.MaxInstances = 8
	p.Seed = 4242
	ours := runFig4Point(p, 8, OurApproach)
	qcow := runFig4Point(p, 8, QcowOverPVFS)
	if ours.Completion >= qcow.Completion {
		t.Fatalf("seed 4242 flipped the outcome: ours %.2f >= qcow %.2f", ours.Completion, qcow.Completion)
	}
}
