// Command benchjson distills `go test -bench` output into small
// machine-readable artifacts, one per benchmark family of the families
// table: each keeps its family's benchmark lines with their ns/op and
// custom metrics, plus the family's headline summary. scripts/bench.sh
// pipes the benchmark run into bench.txt and then invokes this command
// once, which writes every family.
//
// Usage:
//
//	benchjson [-in bench.txt]                       write every family
//	benchjson [-in bench.txt] -family F [-out file] write one family
//	benchjson -list                                 print every family's output file
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// benchLine is one parsed benchmark result: the iteration count and
// every "value unit" pair, ns/op and custom metrics alike, keyed by
// unit.
type benchLine struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// crossZone is the headline summary the topology work is judged by:
// bytes that crossed a zone interconnect, flat policy vs aware, and
// the reduction factor (cpu=1 rows; the simulation is deterministic,
// so scripts/bench.sh runs it at -cpu 1 only).
type crossZone struct {
	FlatBytes      float64 `json:"flat_bytes"`
	AwareBytes     float64 `json:"aware_bytes"`
	ReductionX     float64 `json:"reduction_x"`
	FlatProvReads  float64 `json:"flat_provider_reads"`
	AwareProvReads float64 `json:"aware_provider_reads"`
}

// multisnapshot is the headline summary of the write-path batching:
// the write RPCs per commit round a per-chunk protocol would issue
// (chunk writes + metadata puts), the write RPCs actually issued
// (chunk-put + metadata-put RPCs), the reduction factor, and
// wall-clock ns/op (cpu=1 row; the simulation is deterministic).
type multisnapshot struct {
	PerChunkWriteRPCs float64 `json:"per_chunk_write_rpcs"`
	WriteRPCs         float64 `json:"write_rpcs"`
	ReductionX        float64 `json:"reduction_x"`
	NsOp              float64 `json:"ns_op"`
}

// multisnapshotSummary distills the cpu=1 BenchmarkMultisnapshot1024
// line (unsuffixed: go test only appends -N for GOMAXPROCS > 1).
func multisnapshotSummary(benches map[string]benchLine) (*multisnapshot, error) {
	bl, ok := benches["BenchmarkMultisnapshot1024"]
	if !ok {
		return nil, fmt.Errorf("no BenchmarkMultisnapshot1024 line (run it with -cpu 1)")
	}
	ms := &multisnapshot{
		PerChunkWriteRPCs: bl.Metrics["per-chunk-write-RPCs/round"],
		WriteRPCs:         bl.Metrics["write-RPCs/round"],
		NsOp:              bl.Metrics["ns/op"],
	}
	if ms.WriteRPCs > 0 {
		ms.ReductionX = ms.PerChunkWriteRPCs / ms.WriteRPCs
	}
	return ms, nil
}

// exportSummary is the headline summary of the differential-sync
// subsystem: bytes an average delta round ships vs re-shipping the
// full image, the reduction factor (gated at 5x by the benchmark
// itself), and how many shipped chunks the importing side deduplicated
// into storage it already had — plus the host cost of the live codec
// (cpu=1 BenchmarkExportImportLive: archive MB/s and bytes allocated
// per export/import round).
type exportSummary struct {
	DeltaBytes    float64 `json:"delta_bytes"`
	FullBytes     float64 `json:"full_bytes"`
	ReductionX    float64 `json:"reduction_x"`
	ShippedChunks float64 `json:"shipped_chunks"`
	DedupedChunks float64 `json:"deduped_chunks"`
	LiveMBPerS    float64 `json:"live_mb_s"`
	LiveBytesOp   float64 `json:"live_bytes_op"`
}

// scalePoint is one instance-count point of the flash-crowd scale
// sweep; scaleSummary orders them by crowd size so the trajectory is
// directly plottable.
type scalePoint struct {
	Instances   float64 `json:"instances"`
	Booted      float64 `json:"booted"`
	NsOp        float64 `json:"ns_op"`
	AllocsOp    float64 `json:"allocs_op"`
	BytesOp     float64 `json:"bytes_op"`
	SimSteps    float64 `json:"sim_steps"`
	CompletionS float64 `json:"completion_s"`
}

type scaleSummary struct {
	Points []scalePoint `json:"points"`
}

// metaOutage is the headline summary of control-plane resilience,
// over the benchmark's seeds: the paired per-seed completion delta of
// a flash crowd that lost half its metadata providers plus a compute
// rack mid-run against the same seed healthy (median, min and max),
// the median completions of both arms, the median descents the outage
// forced down the replica ring and tree nodes the repair sweep
// restored. Failed descents have no field: the benchmark fails on any
// (the outage costs time, never a lookup).
type metaOutage struct {
	Seeds                    float64 `json:"seeds"`
	CompletionDeltaMedianS   float64 `json:"completion_delta_median_s"`
	CompletionDeltaMinS      float64 `json:"completion_delta_min_s"`
	CompletionDeltaMaxS      float64 `json:"completion_delta_max_s"`
	HealthyCompletionMedianS float64 `json:"healthy_completion_median_s"`
	OutageCompletionMedianS  float64 `json:"outage_completion_median_s"`
	MetaFailoversMedian      float64 `json:"meta_failovers_median"`
	MetaRereplicatedMedian   float64 `json:"meta_rereplicated_median"`
}

// artifact is the document one family writes: its benchmark lines
// plus the family's headline summary (the other summaries stay
// omitted).
type artifact struct {
	Benchmarks    map[string]benchLine `json:"benchmarks"`
	CrossZone     *crossZone           `json:"cross_zone,omitempty"`
	Multisnapshot *multisnapshot       `json:"multisnapshot,omitempty"`
	MetaOutage    *metaOutage          `json:"meta_outage,omitempty"`
	Export        *exportSummary       `json:"export,omitempty"`
	Scale         *scaleSummary        `json:"scale,omitempty"`
}

// family is one artifact: the benchmark lines it keeps (names starting
// with a prefix and with no exclude) and the summary it derives from
// them. Summary benchmark names are unsuffixed on the cpu=1 run (go
// test only appends -N for GOMAXPROCS > 1).
type family struct {
	name, out          string
	prefixes, excludes []string
	summarize          func(benches map[string]benchLine, doc *artifact) error
}

var families = []family{
	// The flash-crowd family (flash, degraded, crosszone), summarized by
	// the flat and aware interconnect bytes and the reduction factor
	// topology awareness achieved.
	{
		name: "flashcrowd", out: "BENCH_flashcrowd.json",
		prefixes: []string{"BenchmarkFlashCrowd"},
		// The outage and scale sweeps are their own families.
		excludes:  []string{"BenchmarkFlashCrowdMetaOutage", "BenchmarkFlashCrowdScale", "BenchmarkFlashCrowd10k"},
		summarize: crossZoneSummary,
	},
	// The multisnapshot write path: per-chunk vs actual write RPCs per
	// commit round, the reduction factor and ns/op. The family fails
	// when the benchmark line is missing rather than writing a file
	// without its summary.
	{
		name: "multisnapshot", out: "BENCH_multisnapshot.json",
		prefixes: []string{"BenchmarkMultisnapshot"},
		summarize: func(benches map[string]benchLine, doc *artifact) (err error) {
			doc.Multisnapshot, err = multisnapshotSummary(benches)
			return err
		},
	},
	// Flash-crowd completion healthy vs through a metadata outage over
	// five seeds: the paired completion delta's median, min and max,
	// with the median failover and re-replication counts.
	{
		name: "metaoutage", out: "BENCH_metaoutage.json",
		prefixes:  []string{"BenchmarkFlashCrowdMetaOutage"},
		summarize: metaOutageSummary,
	},
	// Differential sync: average delta vs full-image bytes, the
	// reduction factor, the shipped and deduplicated chunk counts, and
	// the live codec's MB/s (the prefix keeps BenchmarkExportImportLive
	// too).
	{
		name: "export", out: "BENCH_export.json",
		prefixes:  []string{"BenchmarkExportImport"},
		summarize: exportSummaryOf,
	},
	// The flash-crowd scale sweep: instances vs wall-clock ns/op and
	// allocs/op — whether the simulator itself keeps up with
	// paper-scale ×100 crowds.
	{
		name: "scale", out: "BENCH_scale.json",
		prefixes:  []string{"BenchmarkFlashCrowdScale", "BenchmarkFlashCrowd10k"},
		summarize: scaleSummaryOf,
	},
}

func crossZoneSummary(benches map[string]benchLine, doc *artifact) error {
	flat, okF := benches["BenchmarkFlashCrowdCrossZone/flat"]
	aware, okA := benches["BenchmarkFlashCrowdCrossZone/aware"]
	if !okF || !okA {
		return nil
	}
	cz := &crossZone{
		FlatBytes:      flat.Metrics["cross-zone-MB"] * 1e6,
		AwareBytes:     aware.Metrics["cross-zone-MB"] * 1e6,
		FlatProvReads:  flat.Metrics["provider-reads"],
		AwareProvReads: aware.Metrics["provider-reads"],
	}
	if cz.AwareBytes > 0 {
		cz.ReductionX = cz.FlatBytes / cz.AwareBytes
	}
	doc.CrossZone = cz
	return nil
}

// metaOutageSummary distills the cpu=1 BenchmarkFlashCrowdMetaOutage
// line; the family fails without it rather than writing a file
// without its summary.
func metaOutageSummary(benches map[string]benchLine, doc *artifact) error {
	bl, ok := benches["BenchmarkFlashCrowdMetaOutage"]
	if !ok {
		return fmt.Errorf("no BenchmarkFlashCrowdMetaOutage line (run it with -cpu 1)")
	}
	m := bl.Metrics
	doc.MetaOutage = &metaOutage{
		Seeds:                    m["seeds"],
		CompletionDeltaMedianS:   m["completion-delta-median-s"],
		CompletionDeltaMinS:      m["completion-delta-min-s"],
		CompletionDeltaMaxS:      m["completion-delta-max-s"],
		HealthyCompletionMedianS: m["healthy-completion-median-s"],
		OutageCompletionMedianS:  m["outage-completion-median-s"],
		MetaFailoversMedian:      m["meta-failovers-median"],
		MetaRereplicatedMedian:   m["meta-re-replicated-median"],
	}
	return nil
}

func exportSummaryOf(benches map[string]benchLine, doc *artifact) error {
	if exp, ok := benches["BenchmarkExportImport"]; ok {
		live := benches["BenchmarkExportImportLive"]
		doc.Export = &exportSummary{
			DeltaBytes:    exp.Metrics["delta-MB"] * 1e6,
			FullBytes:     exp.Metrics["full-MB"] * 1e6,
			ReductionX:    exp.Metrics["reduction-x"],
			ShippedChunks: exp.Metrics["shipped-chunks"],
			DedupedChunks: exp.Metrics["deduped-chunks"],
			LiveMBPerS:    live.Metrics["MB/s"],
			LiveBytesOp:   live.Metrics["B/op"],
		}
	}
	return nil
}

// scaleSummaryOf collects the cpu=1 rows in crowd-size order. The 10k
// point is absent from -short (CI) runs, so the summary simply holds
// the points that ran.
func scaleSummaryOf(benches map[string]benchLine, doc *artifact) error {
	sum := &scaleSummary{}
	for _, name := range []string{
		"BenchmarkFlashCrowdScale/inst-256",
		"BenchmarkFlashCrowdScale/inst-1024",
		"BenchmarkFlashCrowd10k",
	} {
		bl, ok := benches[name]
		if !ok {
			continue
		}
		sum.Points = append(sum.Points, scalePoint{
			Instances:   bl.Metrics["instances"],
			Booted:      bl.Metrics["booted"],
			NsOp:        bl.Metrics["ns/op"],
			AllocsOp:    bl.Metrics["allocs/op"],
			BytesOp:     bl.Metrics["B/op"],
			SimSteps:    bl.Metrics["sim-steps"],
			CompletionS: bl.Metrics["completion-s"],
		})
	}
	doc.Scale = sum
	return nil
}

func main() {
	in := flag.String("in", "bench.txt", "benchmark output to parse")
	only := flag.String("family", "", "write only this family (default: every family)")
	out := flag.String("out", "", "artifact to write with -family (default: the family's own file)")
	list := flag.Bool("list", false, "print every family's output file, one per line, and exit")
	flag.Parse()
	if *list {
		writeList(os.Stdout)
		return
	}
	fams := families
	if *only != "" {
		i := slices.IndexFunc(families, func(f family) bool { return f.name == *only })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "benchjson: unknown family %q\n", *only)
			os.Exit(2)
		}
		fams = []family{families[i]}
		if *out != "" {
			fams[0].out = *out
		}
	} else if *out != "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out needs -family")
		os.Exit(2)
	}
	if err := run(*in, fams); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// writeList prints every family's output file, one per line.
func writeList(w io.Writer) {
	for _, f := range families {
		fmt.Fprintln(w, f.out)
	}
}

// run parses the benchmark output once and writes each family's
// artifact, stopping at the first family that fails.
func run(in string, fams []family) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	all := map[string]benchLine{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if name, bl, ok := parseLine(sc.Text()); ok {
			all[name] = bl
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, fam := range fams {
		benches := map[string]benchLine{}
		for name, bl := range all {
			if matches(name, fam.prefixes, fam.excludes) {
				benches[name] = bl
			}
		}
		if len(benches) == 0 {
			return fmt.Errorf("no %s benchmark lines in %s", fam.name, in)
		}
		doc := artifact{Benchmarks: benches}
		if err := fam.summarize(benches, &doc); err != nil {
			return fmt.Errorf("%s: %v", in, err)
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(fam.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", fam.out, len(benches))
	}
	return nil
}

// matches reports whether name starts with any of the prefixes and
// none of the excludes.
func matches(name string, prefixes, excludes []string) bool {
	for _, x := range excludes {
		if strings.HasPrefix(name, x) {
			return false
		}
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// parseLine parses one `BenchmarkName   N   v1 unit1   v2 unit2 ...`
// result line; anything else (headers, PASS, ok) reports !ok.
func parseLine(line string) (string, benchLine, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", benchLine{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", benchLine{}, false
	}
	bl := benchLine{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", benchLine{}, false
		}
		bl.Metrics[fields[i+1]] = v
	}
	return fields[0], bl, true
}
