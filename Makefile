# Build/verify entry points. `make check` is the CI gate: vet plus the
# short test suite under the race detector (the internal/server pool and
# cache tests are written to exercise their locking under -race), the
# benchmark module's vet and tests, and the advisory benchmark diff.

GO ?= go

.PHONY: build vet test test-short race bench-test bench bench-diff check serve

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -short -race ./...

# bench/ is its own module (see BENCHMARK.json), so the root `go test
# ./...` never builds it; a root API change that breaks it shows up here.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench sweeps every benchmark once (1x keeps the full-corpus pipeline
# benchmarks tractable) and converts the output into $(BENCH_OUT):
# per-phase medians (including the per-detector PhaseDetection/<name>
# split), deep counters, and the traced-vs-untraced pair. $(BENCH_OUT) is
# git-ignored; committed BENCH_pr*.json files are the recorded baselines.
BENCH_OUT := BENCH_local.json
# The baseline is the newest committed BENCH_pr*.json (version-sorted,
# so a pr10 would outrank a pr9).
BENCH_BASE = $(shell ls BENCH_pr*.json 2>/dev/null | sort -V | tail -1)

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# bench-diff compares the fresh sweep against the newest committed
# baseline. Advisory because 1x benchmarks are noisy; read the per-line
# percentages, not just the exit status.
bench-diff: bench
	@if [ -z "$(BENCH_BASE)" ]; then echo "bench-diff: no committed BENCH_pr*.json baseline, skipping"; \
	else $(GO) run ./cmd/benchjson diff -advisory $(BENCH_BASE) $(BENCH_OUT); fi

check: build vet race bench-test bench-diff

serve: build
	$(GO) run ./cmd/nadroid-serve
