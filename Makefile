# Build/verify entry points. `make check` is the CI gate: vet plus the
# short test suite under the race detector (the internal/server pool and
# cache tests are written to exercise their locking under -race), the
# benchmark module's vet and tests, and a one-second run of every
# benchmark workload.

GO ?= go

.PHONY: build vet test test-short race bench-test bench bench-smoke check serve

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

# bench runs the repository benchmark as BENCHMARK.json declares it:
# all four workloads, 20 s each (see bench/README.md).
bench:
	bash bench/run.sh

# bench-smoke runs every workload over its full app set for one second
# (each still runs at least 200 ops). bench/run.sh exits 1 when any op's
# report, CSV, counts, harmful total or disposition misses its golden.
bench-smoke:
	bash bench/run.sh -seconds 1

check: build vet race bench-test bench-smoke

serve: build
	$(GO) run ./cmd/nadroid-serve
