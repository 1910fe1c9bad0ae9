# dynshap build targets. Everything is stdlib-only; no tool downloads.

GO ?= go

.PHONY: all build test lint vet cover fuzz-short bench bench-diff bench-large bench-mem loadgen-smoke profile examples experiments clean

all: build lint test

build:
	$(GO) build ./...

# lint first, then the full suite, then a race pass over the packages with
# concurrent internals: the parallel estimators, the sharded coalition
# cache, the distance kernel's parallel column fill and its in-place and
# compacting appends off a shared buffer, the exact k-NN estimator's
# column-striped workers, the fused k-NN evaluators built per walker
# goroutine, the write coalescer, the HTTP server, and the root package's
# versioned session store (non-blocking reads racing live updates). Last,
# the benchmark: perfbench is its own module, so `go test ./...` above
# never compiles it.
test: lint
	$(GO) test ./...
	$(GO) test -race . ./internal/core/... ./internal/dataset/... ./internal/exact/... \
		./internal/game/... ./internal/utility/... ./internal/coalesce/... ./internal/serve/...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# go vet and gofmt always run: lint fails, listing the files, when gofmt
# would reformat any tracked .go file (perfbench/ included). gofmt is the
# one from $(GO)'s GOROOT, so it formats as that toolchain does; lint also
# fails when the tracked files cannot be listed or gofmt fails. staticcheck
# and govulncheck run when installed (the build stays tool-download-free,
# so they are optional extras, not gates).
lint:
	$(GO) vet ./...
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { \
		echo "gofmt check: cannot list the tracked .go files"; exit 1; }; \
	unformatted=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$files) || { \
		echo "gofmt check failed"; exit 1; }; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo govulncheck ./...; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

vet:
	$(GO) vet ./...

# Short guided-fuzzing pass: every fuzz target in the repo runs for 10s.
# `go test -fuzz` accepts one target per invocation, so each runs alone
# against its package. Seeds already run under `make test`; this buys a
# little corpus exploration on every CI run without a dedicated fuzz farm.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzReadSnapshot -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzKernelScratchEquality -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzKNNWalkRoutes -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzExactKNNEquality -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzSemivalueHeadEquality -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzBatchSequentialEquality -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzBatchDeleteSequentialEquality -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzStoreBackendEquality -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime 10s ./internal/dataset/

cover:
	$(GO) test ./... -cover

# One testing.B target per paper table/figure plus micro-benchmarks,
# including the session update-path latencies (Add/Delete per algorithm).
# Streams results and records a dated BENCH_<YYYY-MM-DD>.json snapshot
# (ns/op, allocations, engine fill throughput) for regression diffing.
bench:
	$(GO) run ./cmd/benchsnap

# Compare two benchmark snapshots per benchmark on ns/op; exits non-zero
# when any shared benchmark regressed by more than 10%. Usage:
#   make bench-diff OLD=BENCH_2026-07-01.json NEW=BENCH_2026-08-06.json
bench-diff:
	$(GO) run ./cmd/benchsnap diff $(OLD) $(NEW)

# Large-n deletion-store benchmarks (n = 1000–5000, candidate-restricted
# YNN-NNN shape) across the storage backends, with allocation stats. The
# store-bytes / heap-bytes metrics these report are what benchsnap diffs
# for memory regressions.
bench-large:
	$(GO) test -run '^$$' -bench 'BenchmarkDeletionStoreN[0-9]+' -benchmem -benchtime 100x ./internal/core/

# Memory smoke gate for CI: asserts a multi-MB spill-backed store keeps its
# heap-resident share under the fixed byte ceiling (and merges bit-identically
# to the in-heap float32 tiles), that a Pivot-s batch's pipeline slots hold
# only the final permutation (n + k ids, not k evolved copies), and that a
# session's distance kernel stays within twice the live training set's bytes
# over 2,000 add/delete pairs on the exact and the sampled path. Small n,
# seconds to run, blocking.
bench-mem:
	$(GO) test -run 'TestSpillStoreMemorySmoke|TestPivotAddSlotsHoldFinalPermutation' -count=1 -v ./internal/core/
	$(GO) test -run TestSessionKernelChurnBound -count=1 -v .

# Serving smoke for CI (~6s): boot dynshapd on a local port, drive it over
# HTTP with three short closed-loop loadgen runs — adds-only, then mixed
# add/delete churn (-deletes 0.25, exercising the coalescer's delete
# windows and the del-p50/p99 schema), then the same churn on an exact
# soft k-NN session (-algo exact: multi-point windows through the
# maintained closed-form estimator) — then round-trip each snapshot
# through `benchsnap diff` against itself — proving the server binary
# boots, the HTTP session lifecycle works end to end for both update kinds
# on the sampled and exact paths, and the latency/throughput schema still
# parses and gates. Blocking, seconds to run.
loadgen-smoke:
	$(GO) build -o /tmp/dynshapd-smoke ./cmd/dynshapd
	@set -e; \
	/tmp/dynshapd-smoke -addr 127.0.0.1:18089 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18089/healthz >/dev/null 2>&1 && break; \
		sleep 0.1; \
	done; \
	$(GO) run ./cmd/loadgen -addr 127.0.0.1:18089 -duration 1s \
		-n 60 -samples 60 -update-samples 30 -writers 4 -readers 1 \
		-o /tmp/loadgen-smoke.json; \
	$(GO) run ./cmd/loadgen -addr 127.0.0.1:18089 -duration 1s \
		-n 60 -samples 60 -update-samples 30 -writers 4 -readers 1 \
		-deletes 0.25 -o /tmp/loadgen-smoke-churn.json; \
	$(GO) run ./cmd/loadgen -addr 127.0.0.1:18089 -duration 1s \
		-n 60 -samples 60 -update-samples 30 -writers 4 -readers 1 \
		-algo exact -deletes 0.25 -o /tmp/loadgen-smoke-exact.json; \
	$(GO) run ./cmd/benchsnap diff /tmp/loadgen-smoke.json /tmp/loadgen-smoke.json; \
	$(GO) run ./cmd/benchsnap diff /tmp/loadgen-smoke-churn.json /tmp/loadgen-smoke-churn.json; \
	$(GO) run ./cmd/benchsnap diff /tmp/loadgen-smoke-exact.json /tmp/loadgen-smoke-exact.json

# Capture a CPU profile of the n = 300 KNN preprocessing walk
# (BenchmarkPreprocessDeletionKNNN300) into cpu.out for hot-path analysis.
# Read it with `go tool pprof cpu.out`; see CONTRIBUTING for a walkthrough.
profile:
	$(GO) test -run NONE -bench BenchmarkPreprocessDeletionKNNN300 -benchtime 10x -cpuprofile cpu.out .
	@echo "wrote cpu.out — inspect with: $(GO) tool pprof -top cpu.out"

# Regenerate the paper's tables and figures at laptop scale.
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/games
	$(GO) run ./examples/convergence

clean:
	$(GO) clean ./...
