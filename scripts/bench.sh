#!/usr/bin/env sh
# bench.sh runs the repository's key benchmarks — the paper-scale
# figure regenerations, the metadata hot-path microbenchmarks and the
# live sync codec — with allocation reporting, and writes the raw
# output to bench.txt (the artifact CI uploads, and the input
# `benchstat old.txt new.txt` compares across commits). It then distills the families via one
# cmd/benchjson run (`go run ./cmd/benchjson -list` names the files)
# for dashboards that don't want to parse Go benchmark output: the
# flash-crowd family (flash, degraded, crosszone) into
# BENCH_flashcrowd.json — provider reads, cross-zone bytes (flat vs
# topology-aware, with the reduction factor) and ns/op — and the
# multisnapshot write path into BENCH_multisnapshot.json — provider
# write RPCs per commit round, per-chunk vs batched, with the
# reduction factor and ns/op — and the metadata-outage family into
# BENCH_metaoutage.json — flash-crowd completion healthy vs with half
# the metadata providers and a compute rack down, with the failover,
# re-replication and failed-descent counts, as the median, min and max
# over five seeds of the paired completion delta — and the
# differential-sync family into BENCH_export.json — average delta vs
# full-image bytes shipped per sync round, with the reduction factor
# (gated at 5x) and the shipped/deduplicated chunk counts, plus the
# live export/import MB/s — and the scale sweep into
# BENCH_scale.json — instances vs ns/op and allocs/op across
# 256/1k/10k, the curve that shows the simulator itself scales.
#
# Usage: scripts/bench.sh [output-file]
set -eu

out="${1:-bench.txt}"

# The simulation benches are deterministic: a -cpu 8 rerun repeats the
# same work for the same result, so they run once, at -cpu 1 (the 10k
# crowd included; it takes about a minute and a half).
go test -run '^$' \
  -bench '^(BenchmarkFig4PaperScale|BenchmarkFlashCrowd256|BenchmarkFlashCrowdDegraded|BenchmarkFlashCrowdCrossZone|BenchmarkFlashCrowdMetaOutage|BenchmarkFlashCrowdScale|BenchmarkFlashCrowd10k|BenchmarkMultisnapshot1024|BenchmarkChurn|BenchmarkExportImport|BenchmarkMaxMinRecompute)$' \
  -benchmem -count=1 -cpu 1 -timeout 30m . | tee "$out"

# The live-fabric benches run real goroutines, so -cpu 1,8 shows lock
# contention.
go test -run '^$' \
  -bench '^(BenchmarkExportImportLive|BenchmarkCommitDataStructures|BenchmarkMetadataHotPath|BenchmarkMetadataColdDescent)$' \
  -benchmem -count=1 -cpu 1,8 -timeout 30m . | tee -a "$out"

go run ./cmd/benchjson -in "$out"
