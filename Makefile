# Build/verify entry points. `make check` is the CI gate: the gofmt
# check of CI's lint job, vet, the short test suite under the race
# detector (the internal/server pool and cache tests are written to
# exercise their locking under -race), a run of every example program,
# the benchmark module's vet and tests, and a one-second run of every
# benchmark workload, plain and traced.

GO ?= go

.PHONY: build fmt-check vet test test-short race examples bench-test bench bench-smoke bench-trace-smoke check serve

build:
	$(GO) build ./...

# fmt-check fails when gofmt would rewrite any file, as CI's lint job
# does.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -short -race ./...

# examples runs every program under examples/ and fails on the first
# that exits non-zero; no test builds or runs them.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# bench/ is its own module (see BENCHMARK.json), so the root `go test
# ./...` never builds it; a root API change that breaks it shows up here.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench runs the repository benchmark as BENCHMARK.json declares it:
# all four workloads, 20 s each (see bench/README.md).
bench:
	bash bench/run.sh

# bench-smoke runs every workload over its full app set for one second
# (each still runs at least 200 ops). bench/run.sh exits 1 when any op's
# report, CSV, counts, harmful total or disposition misses its golden.
bench-smoke:
	bash bench/run.sh -seconds 1

# bench-trace-smoke runs every workload through the traced replay for
# one second: each app's report is rebuilt stage by stage from
# detect.BuildContext plus one detect.Run per detector, and checked
# against the same goldens.
bench-trace-smoke:
	bash bench/run.sh -seconds 1 -trace 1

check: build fmt-check vet race examples bench-test bench-smoke bench-trace-smoke

serve: build
	$(GO) run ./cmd/nadroid-serve
