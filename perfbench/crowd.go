package main

import (
	"fmt"

	"blobvfs"
	"blobvfs/internal/cluster"
	"blobvfs/internal/middleware"
	"blobvfs/internal/p2p"
	"blobvfs/internal/vmmodel"
)

// runCrowd is the crowd1k workload: 1024 instances of one image boot
// concurrently against 8 providers with p2p sharing on (multideployment,
// §5.2 of the paper). Nothing is committed and no byte is real: the sim
// core, flownet, the blob read path, the mirror and the p2p/broadcast
// digest push carry the work.
func runCrowd(r *run) {
	const instances, providers = 1024, 8
	p, err := newPool(r.seed, instances, providers, blobvfs.WithP2P(p2p.DefaultConfig()))
	if err != nil {
		r.check(err)
		return
	}
	c0 := p.counters()
	if !r.begin() {
		return
	}
	var dep *middleware.DeployResult
	p.fab.Run(func(ctx *cluster.Ctx) {
		dep, err = p.orch.Deploy(ctx)
	})
	r.end()
	if err != nil {
		r.checkN(instances, fmt.Errorf("deploy: %w", err))
		return
	}

	p.record(r, c0)
	d := r.s.det
	var boot, provision []float64
	disks := make([]vmmodel.VirtualDisk, 0, instances)
	for i, inst := range dep.Instances {
		if inst == nil || inst.BootDoneAt <= 0 {
			r.check(fmt.Errorf("instance %d did not boot", i))
			continue
		}
		r.check(nil)
		boot = append(boot, inst.BootTime)
		provision = append(provision, inst.ProvisionTime)
		disks = append(disks, inst.Disk)
	}
	if n := d["sim.procs_left"]; n != 0 {
		r.check(fmt.Errorf("%v simulator processes never finished", n))
	}
	d["e2e.completion_s"] = dep.Completion
	d["e2e.boot_p50_s"] = quantile(boot, 0.5)
	d["e2e.boot_p99_s"] = quantile(boot, 0.99)
	d["middleware.provision_p50_s"] = quantile(provision, 0.5)
	d["middleware.prepare_s"] = dep.PrepareTime
	recordDisks(r, disks)

	st, ok := p.repo.SharingStats(p.base.Image)
	if !ok {
		r.check(fmt.Errorf("no sharing cohort registered for the base image"))
		return
	}
	d["p2p.peer_hits"] = float64(st.PeerHits)
	if locates := st.PeerHits + st.Misses + st.Saturated; locates > 0 {
		d["p2p.peer_hit_ratio"] = float64(st.PeerHits) / float64(locates)
	}
	d["p2p.digest_pushes"] = float64(st.DigestPushes)
	d["p2p.announce_mb"] = float64(st.Announced) * float64(p2p.DefaultConfig().AnnounceBytes) / 1e6
	d["p2p.saturated"] = float64(st.Saturated)
}
