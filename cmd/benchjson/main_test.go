package main

import (
	"bufio"
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// multisnapFixture is a trimmed `go test -bench BenchmarkMultisnapshot1024
// -benchmem -cpu 1,8` transcript: headers, both result lines, trailer.
const multisnapFixture = `goos: linux
goarch: amd64
pkg: blobvfs
BenchmarkMultisnapshot1024 	       1	6134745434 ns/op	       115.7 completion-s	      4608 meta-put-RPCs/round	     68194 per-chunk-write-RPCs/round	     63586 chunk-writes/round	      4096 chunk-put-RPCs/round	         7.835 write-RPC-reduction-x	      8704 write-RPCs/round	1148472056 B/op	 2019231 allocs/op
BenchmarkMultisnapshot1024-8 	       1	6428831102 ns/op	       115.7 completion-s	      4608 meta-put-RPCs/round	     68194 per-chunk-write-RPCs/round	     63586 chunk-writes/round	      4096 chunk-put-RPCs/round	         7.835 write-RPC-reduction-x	      8704 write-RPCs/round	1148474152 B/op	 2019253 allocs/op
PASS
ok  	blobvfs	12.563s
`

func parseAll(t *testing.T, text string) map[string]benchLine {
	t.Helper()
	benches := map[string]benchLine{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if name, bl, ok := parseLine(sc.Text()); ok {
			benches[name] = bl
		}
	}
	return benches
}

func TestParseLine(t *testing.T) {
	name, bl, ok := parseLine("BenchmarkFoo/bar-8   \t  12\t  345.6 ns/op\t  7 widgets")
	if !ok || name != "BenchmarkFoo/bar-8" {
		t.Fatalf("parseLine = %q, %v", name, ok)
	}
	if bl.Iterations != 12 || bl.Metrics["ns/op"] != 345.6 || bl.Metrics["widgets"] != 7 {
		t.Fatalf("parsed %+v", bl)
	}
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tblobvfs\t12.563s",
		"BenchmarkFoo",                     // too few fields
		"BenchmarkFoo  x  1 ns/op",         // non-numeric iteration count
		"BenchmarkFoo  1  fast ns/op  2 B", // non-numeric value
		"--- BENCH: BenchmarkFoo 1 2 ns/op",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted a non-result line", line)
		}
	}
}

func TestMultisnapshotSummary(t *testing.T) {
	benches := parseAll(t, multisnapFixture)
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmark lines, want 2", len(benches))
	}
	ms, err := multisnapshotSummary(benches)
	if err != nil {
		t.Fatal(err)
	}
	want := multisnapshot{PerChunkWriteRPCs: 68194, WriteRPCs: 8704, ReductionX: 68194.0 / 8704, NsOp: 6134745434}
	if *ms != want {
		t.Fatalf("summary %+v, want %+v (the cpu=1 row)", *ms, want)
	}

	// Only the cpu=8 row: the summary must fail, not come out empty.
	delete(benches, "BenchmarkMultisnapshot1024")
	if _, err := multisnapshotSummary(benches); err == nil {
		t.Fatal("summary without the cpu=1 line succeeded")
	}
}

// metaOutageFixture is a trimmed `go test -bench
// BenchmarkFlashCrowdMetaOutage -benchmem -cpu 1` result line.
const metaOutageFixture = `BenchmarkFlashCrowdMetaOutage 	       1	12884901888 ns/op	         5.000 seeds	        -1.250 completion-delta-median-s	        -5.340 completion-delta-min-s	         3.100 completion-delta-max-s	        17.20 healthy-completion-median-s	        16.90 outage-completion-median-s	     16012 meta-failovers-median	      2790 meta-re-replicated-median	1073741824 B/op	 4194304 allocs/op
`

func TestMetaOutageSummary(t *testing.T) {
	benches := parseAll(t, metaOutageFixture)
	var doc artifact
	if err := metaOutageSummary(benches, &doc); err != nil {
		t.Fatal(err)
	}
	want := metaOutage{
		Seeds:                  5,
		CompletionDeltaMedianS: -1.25, CompletionDeltaMinS: -5.34, CompletionDeltaMaxS: 3.1,
		HealthyCompletionMedianS: 17.2, OutageCompletionMedianS: 16.9,
		MetaFailoversMedian: 16012, MetaRereplicatedMedian: 2790,
	}
	if *doc.MetaOutage != want {
		t.Fatalf("summary %+v, want %+v", *doc.MetaOutage, want)
	}
	if err := metaOutageSummary(map[string]benchLine{}, &doc); err == nil {
		t.Fatal("summary without the benchmark line succeeded")
	}
}

// TestListMatchesCheckedInArtifacts: -list (which the CI artifact
// check loops over) names exactly the BENCH_*.json files checked in at
// the repository root, so a family cannot be added or dropped without
// its artifact following.
func TestListMatchesCheckedInArtifacts(t *testing.T) {
	var buf bytes.Buffer
	writeList(&buf)
	listed := strings.Fields(buf.String())
	slices.Sort(listed)
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var checkedIn []string
	for _, p := range paths {
		checkedIn = append(checkedIn, filepath.Base(p))
	}
	slices.Sort(checkedIn)
	if len(checkedIn) != 5 || !slices.Equal(listed, checkedIn) {
		t.Fatalf("-list = %v, checked-in artifacts = %v (want the same five)", listed, checkedIn)
	}
}
