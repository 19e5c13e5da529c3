// Command perfbench is blobvfs's end-to-end benchmark. One invocation
// runs one workload for a fixed host-time budget and prints, as the
// last line of standard output, a JSON object with the keys correct,
// attempted, failed and metrics:
//
//	go run . --workload crowd1k --seed 42 --seconds 40 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host set-up and
// timed-section seconds, peak RSS, network traffic). With --trace 1 the
// run spends half the budget on untraced iterations, then runs one
// iteration under a CPU profile (and, on live-sync, with spans around
// every façade call) and reports the per-layer metrics. README.md
// explains the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"
)

// workloads maps a workload name to its driver and GOMAXPROCS. The
// simulator runs one process at a time, so the simulated workloads run
// on one thread (a second only adds goroutine hand-off cost); live-sync
// runs its two disks on two.
var workloads = map[string]struct {
	fn    func(*run)
	procs int
}{
	"crowd1k":    {runCrowd, 1},
	"snapherd1k": {runSnapHerd, 1},
	"live-sync":  {runLiveSync, 2},
}

// setupReps is how many extra set-ups, with no timed section, a run
// makes so that setup_s is a median of several. They count against the
// run's budget.
const setupReps = 8

// endToEnd lists the metrics of an untraced run, defined on every
// workload.
var endToEnd = []string{"setup_s", "wall_s", "peak_rss_mb", "traffic_mb"}

// perLayer lists the metrics of a traced run, in print order. A layer
// a workload leaves idle reports 0.
var perLayer = []string{
	"e2e.completion_s", "e2e.boot_p50_s", "e2e.boot_p99_s",
	"e2e.snapshot_p50_s", "e2e.snapshot_p99_s",
	"e2e.read_mb_s", "e2e.commit_mb_s", "e2e.sync_mb_s",
	"sim.steps", "sim.ns_per_step", "sim.procs_left", "sim.self_s",
	"flownet.flows", "flownet.self_s",
	"cluster.self_s",
	"blob.provider_reads", "blob.hottest_provider_reads", "blob.meta_gets", "blob.meta_nodes_per_get",
	"blob.chunk_writes", "blob.chunk_put_rpcs", "blob.meta_puts", "blob.dedup_hits", "blob.self_s",
	"mirror.remote_fetches", "mirror.useful_fetch_ratio", "mirror.fetch_retries",
	"mirror.committed_chunks", "mirror.self_s",
	"p2p.peer_hits", "p2p.peer_hit_ratio", "p2p.digest_pushes", "p2p.announce_mb",
	"p2p.saturated", "p2p.self_s", "broadcast.self_s",
	"middleware.provision_p50_s", "middleware.prepare_s", "middleware.self_s", "vmmodel.self_s",
	"sync.export_s", "sync.import_s", "sync.archive_mb", "sync.chunks_shipped",
	"sync.chunks_deduped", "sync.self_s",
	"blobvfs.readat_p50_us", "blobvfs.readat_p99_us", "blobvfs.snapshot_p50_ms",
	"blobvfs.opendisk_ms", "blobvfs.download_s", "blobvfs.self_s",
	"runtime.alloc_mb", "runtime.gc_cycles", "runtime.self_s",
	"bench.self_s", "other.self_s",
	"trace.profile_s", "trace.overhead_frac",
}

// units gives every metric's unit; a metric missing here is a bug.
var units = map[string]string{
	"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "traffic_mb": "MB",

	"e2e.completion_s": "s", "e2e.boot_p50_s": "s", "e2e.boot_p99_s": "s",
	"e2e.snapshot_p50_s": "s", "e2e.snapshot_p99_s": "s",
	"e2e.read_mb_s": "MB/s", "e2e.commit_mb_s": "MB/s", "e2e.sync_mb_s": "MB/s",

	"sim.steps": "count", "sim.ns_per_step": "ns", "sim.procs_left": "count",
	"flownet.flows":       "count",
	"blob.provider_reads": "count", "blob.hottest_provider_reads": "count",
	"blob.meta_gets": "count", "blob.meta_nodes_per_get": "ratio",
	"blob.chunk_writes": "count", "blob.chunk_put_rpcs": "count",
	"blob.meta_puts": "count", "blob.dedup_hits": "count",
	"mirror.remote_fetches": "count", "mirror.useful_fetch_ratio": "ratio",
	"mirror.fetch_retries": "count", "mirror.committed_chunks": "count",
	"p2p.peer_hits": "count", "p2p.peer_hit_ratio": "ratio", "p2p.digest_pushes": "count",
	"p2p.announce_mb": "MB", "p2p.saturated": "count",
	"middleware.provision_p50_s": "s", "middleware.prepare_s": "s",
	"sync.export_s": "s", "sync.import_s": "s", "sync.archive_mb": "MB",
	"sync.chunks_shipped": "count", "sync.chunks_deduped": "count",
	"blobvfs.readat_p50_us": "us", "blobvfs.readat_p99_us": "us",
	"blobvfs.snapshot_p50_ms": "ms", "blobvfs.opendisk_ms": "ms", "blobvfs.download_s": "s",
	"runtime.alloc_mb": "MB", "runtime.gc_cycles": "count", "runtime.gomaxprocs": "count",
	"trace.profile_s": "s", "trace.overhead_frac": "ratio", "trace.spans": "count",
}

func init() {
	for _, l := range layers {
		units[l+".self_s"] = "s"
	}
}

// sample is one iteration of a workload: a fresh set-up followed by the
// timed section and the checks of its outputs.
type sample struct {
	setup, wall float64 // host seconds
	cpu         float64 // host CPU seconds (user+system) of the timed section
	// det holds simulated metrics and program counts. For one seed they
	// repeat bit for bit in every iteration; any drift fails the run.
	det map[string]float64
	// host holds metrics measured on the host clock or from spans.
	host              map[string]float64
	attempted, failed int
	errs              []string
	alloc             runtimeCounters // runtime counters across the timed section
	profile           []byte          // CPU profile of the timed section (traced only)
	spans             *spanLog        // façade spans (traced live-sync only)
}

// run is the state one workload iteration reports through.
type run struct {
	seed      int64
	traced    bool
	setupOnly bool
	t0        time.Time
	tBegin    time.Time
	cpu0      float64
	rc0       runtimeCounters
	s         *sample
	prof      *bytes.Buffer // CPU profile being recorded (traced only)
}

// begin ends set-up and starts the timed section. It reports false on
// a set-up-only run, which must then return.
func (r *run) begin() bool {
	r.s.setup = time.Since(r.t0).Seconds()
	if r.setupOnly {
		return false
	}
	runtime.GC()
	r.rc0 = readRuntimeCounters()
	if r.traced {
		r.prof = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(r.prof); err != nil {
			r.check(fmt.Errorf("start CPU profile: %w", err))
			r.prof = nil
		}
	}
	r.cpu0 = cpuSeconds()
	r.tBegin = time.Now()
	return true
}

// end closes the timed section.
func (r *run) end() {
	r.s.wall = time.Since(r.tBegin).Seconds()
	r.s.cpu = cpuSeconds() - r.cpu0
	if r.prof != nil {
		pprof.StopCPUProfile()
		r.s.profile = r.prof.Bytes()
	}
	r.s.alloc = readRuntimeCounters().sub(r.rc0)
}

// check records one checked operation; a non-nil error marks it failed.
func (r *run) check(err error) { r.checkN(1, err) }

// checkN records n checked operations that share one outcome.
func (r *run) checkN(n int, err error) {
	r.s.attempted += n
	if err != nil {
		r.s.failed += n
		if len(r.s.errs) < 20 {
			r.s.errs = append(r.s.errs, err.Error())
		}
	}
}

// iterate runs the workload until the budget, counted from start, is
// spent: at least once, and never starting an iteration the rest of the
// budget cannot hold.
func iterate(fn func(*run), seed int64, start time.Time, budget float64, traced bool) []*sample {
	var out []*sample
	last := 0.0
	for len(out) == 0 || time.Since(start).Seconds()+last <= budget {
		t := time.Now()
		out = append(out, once(fn, &run{seed: seed, traced: traced}))
		last = time.Since(t).Seconds()
	}
	return out
}

// once runs one iteration and frees its memory before the next.
func once(fn func(*run), r *run) *sample {
	r.t0 = time.Now()
	r.s = &sample{det: map[string]float64{}, host: map[string]float64{}}
	fn(r)
	runtime.GC()
	debug.FreeOSMemory()
	return r.s
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: crowd1k, snapherd1k or live-sync")
	seed := flag.Int64("seed", 42, "input seed")
	seconds := flag.Float64("seconds", 40, "host-time budget of the measurement")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *workload, *trace, *seconds)
		flag.Usage()
		os.Exit(2)
	}
	procs := min(w.procs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	start := time.Now()
	var setups []float64
	for range setupReps {
		setups = append(setups, once(w.fn, &run{seed: *seed, setupOnly: true}).setup)
	}
	var samples []*sample
	var traced *sample
	if *trace == 0 {
		samples = iterate(w.fn, *seed, start, *seconds, false)
	} else {
		samples = iterate(w.fn, *seed, start, *seconds/2, false)
		traced = once(w.fn, &run{seed: *seed, traced: true})
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	all := append([]*sample(nil), samples...)
	if traced != nil {
		all = append(all, traced)
	}
	for _, s := range all {
		res.Attempted += s.attempted
		res.Failed += s.failed
		for _, e := range s.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
	}
	if drift := determinismDrift(all); len(drift) > 0 {
		res.Failed += len(drift)
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "perfbench: determinism guard:", d)
		}
	}

	vals := map[string]float64{
		"setup_s":     median(append(setups, pick(samples, func(s *sample) float64 { return s.setup })...)),
		"wall_s":      median(pick(samples, func(s *sample) float64 { return s.wall })),
		"peak_rss_mb": peakRSSMB(),
	}
	for k, v := range samples[0].det {
		vals[k] = v
	}
	for k := range samples[0].host {
		vals[k] = median(pick(samples, func(s *sample) float64 { return s.host[k] }))
	}
	vals["runtime.alloc_mb"] = median(pick(samples, func(s *sample) float64 { return s.alloc.allocBytes / 1e6 }))
	vals["runtime.gc_cycles"] = median(pick(samples, func(s *sample) float64 { return s.alloc.gcCycles }))
	vals["runtime.gomaxprocs"] = float64(procs)
	if steps := vals["sim.steps"]; steps > 0 {
		vals["sim.ns_per_step"] = vals["wall_s"] * 1e9 / steps
	}

	names := endToEnd
	if traced != nil {
		names = perLayer
		if err := attributeTraced(traced, vals, *workload, *seed); err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	fmt.Printf("workload %s  seed %d  iterations %d  GOMAXPROCS %d  traced %v\n",
		*workload, *seed, len(samples), procs, traced != nil)
	for i, s := range samples {
		fmt.Printf("  iteration %d: setup %.4f s, timed %.4f s wall, %.4f s CPU\n", i+1, s.setup, s.wall, s.cpu)
	}
	printTable(vals)
	for _, n := range names {
		v := vals[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printTable prints every measured metric, end-to-end first, one per
// line with its unit.
func printTable(vals map[string]float64) {
	var rest []string
	for k := range vals {
		if !slices.Contains(endToEnd, k) {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range append(slices.Clone(endToEnd), rest...) {
		fmt.Printf("  %-30s %16.6g %s\n", k, vals[k], units[k])
	}
}

// determinismDrift compares every sample's deterministic metrics with
// the first sample's and describes each mismatch.
func determinismDrift(samples []*sample) []string {
	var out []string
	ref := samples[0].det
	for i, s := range samples[1:] {
		for k, v := range ref {
			if w, ok := s.det[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				out = append(out, fmt.Sprintf("iteration %d: %s = %v, first iteration %v", i+2, k, w, v))
			}
		}
	}
	return out
}

func pick(samples []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile: for 1024 samples, p99 leaves
// ten samples above it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (getrusage maxrss, KiB
// on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
