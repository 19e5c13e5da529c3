package main

import (
	"bufio"
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
