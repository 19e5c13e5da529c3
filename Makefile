# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make check` locally means a
# green pipeline — except the staticcheck job, which needs the tool
# installed (see the staticcheck target below).

.PHONY: build test race check fmt vet perfbench-build bench fuzz examples staticcheck

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

fmt:
	gofmt -l .

vet:
	go vet ./...

# perfbench is a module of its own, so `go build ./...` at the root
# skips it; build and vet it explicitly so an API change that breaks
# the benchmark fails here. -o /dev/null keeps the binary out of the
# tree.
perfbench-build:
	go build -C perfbench -o /dev/null ./...
	go vet -C perfbench ./...

# race already executes the examples once via the root package's
# TestExamplesBuildAndRun smoke, so check does not repeat them.
check: vet build perfbench-build race

# examples builds and runs every examples/* program — executable
# documentation of the public blobvfs API. Each must exit cleanly.
examples:
	go build ./examples/...
	go run ./examples/quickstart
	go run ./examples/debugclone
	go run ./examples/webfarm -servers 4 -requests 50
	go run ./examples/multideploy -n 8

# staticcheck keeps the public façade lint-clean. The tool is not
# vendored; install with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not installed; go install honnef.co/go/tools/cmd/staticcheck@latest"; exit 1; }
	staticcheck ./...

# bench records the perf trajectory: paper-scale figure regenerations,
# the metadata hot-path microbenchmarks and the live sync codec. The
# live-fabric benchmarks run at -cpu 1,8 so lock contention regressions
# show up; the deterministic simulation ones run once, at -cpu 1.
# Output lands in bench.txt; compare two runs with
# `benchstat old.txt new.txt`.
bench:
	sh scripts/bench.sh

fuzz:
	go test -run '^$$' -fuzz FuzzBuildVersion -fuzztime 20s ./internal/blob
	go test -run '^$$' -fuzz FuzzCollectLeaves -fuzztime 20s ./internal/blob
	go test -run '^$$' -fuzz FuzzImportArchive -fuzztime 20s .
