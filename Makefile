GO ?= go

.PHONY: all build vet test race perfbench-test bench bench-fault bench-recovery bench-solver bench-solver-smoke bench-degraded bench-virtual-check bench-lint bench-serve figures fmt lint lint-audit ci-lint check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository benchmark's own tests (perfbench is a separate module,
# outside ./...): a reduced-size run of every workload, and a check
# that a corrupted answer fails the run.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Every root benchmark once, without rewriting committed files: the two
# that record BENCH_fault.json and BENCH_lint.json run only through
# their own targets, bench-fault and bench-lint.
bench:
	$(GO) test -run '^$$' -bench . -skip 'BenchmarkFaultScatter|BenchmarkLint' -benchtime 1x .

# Regenerate BENCH_fault.json (fault-tolerant scatter makespans under
# no faults / one transient drop / one permanent crash).
bench-fault:
	$(GO) test -run '^$$' -bench BenchmarkFaultScatter -benchtime 1x .

# Regenerate BENCH_recovery.json (failover recovery overhead of the
# chaos pipeline vs its fault-free baseline on the Table 1 grid).
bench-recovery:
	$(GO) run ./cmd/scatterbench -recovery BENCH_recovery.json

# Regenerate BENCH_solver.json (incremental solver engine vs the
# from-scratch DP at the paper's full 817,101-item scale: cold solves,
# the worker-pool scaling curve, the certified exact solve, warm crash
# re-solves, plan-cache hits). Takes a few minutes.
bench-solver:
	$(GO) run ./cmd/scatterbench -solver BENCH_solver.json

# Smoke variant for CI: the same measurement matrix (scaling curve and
# bit-identity checks — the certified solve's included, which must
# certify and match Algorithm 2) at a reduced item count, so a
# regression in any verified invariant — not the wall-clock numbers —
# fails fast on shared runners. Output is discarded on purpose: only
# the committed BENCH_solver.json carries published numbers.
bench-solver-smoke:
	$(GO) run ./cmd/scatterbench -solver /tmp/BENCH_solver_smoke.json -items 120000

# Regenerate BENCH_degraded.json (degraded-network recovery on routed
# ring platforms: exact-DP re-solves vs the diffusion fallback under a
# site partition plus degraded trunk links, at three graph sizes).
bench-degraded:
	$(GO) run ./cmd/scatterbench -degraded BENCH_degraded.json

# Fail if a virtual-time benchmark document no longer matches the code:
# BENCH_fault.json, BENCH_recovery.json and BENCH_degraded.json are
# deterministic in virtual time, so regenerating them must leave the
# committed files byte-identical.
bench-virtual-check: bench-fault bench-recovery bench-degraded
	git diff --exit-code BENCH_fault.json BENCH_recovery.json BENCH_degraded.json

# Regenerate BENCH_serve.json (scatterd under a seeded 120k-request
# load: throughput, latency percentiles, store/cache hit rates, shed
# rate, and cold-vs-warm crash-restart economics).
bench-serve:
	$(GO) run ./cmd/scatterbench -serve BENCH_serve.json

# Regenerate BENCH_lint.json (scatterlint runtime over this module:
# the loader, each analyzer on its own, the full suite, and the full
# suite over the generated synthetic fixture, with the host's
# GOMAXPROCS and Go version).
bench-lint:
	$(GO) test -run '^$$' -bench BenchmarkLint -benchtime 1x .

# Regenerate figures/fault.svg alongside the demo's console report.
figures:
	$(GO) run ./examples/faultdemo

# Fail if any file needs gofmt. Fixture packages under
# internal/lint/testdata/*/ are exempt — they pin layouts (trailing
# directives, want comments) on purpose. The generator files directly
# under testdata are gated by `make lint` instead.
fmt:
	@out=$$(gofmt -l . | grep -v '^internal/lint/testdata/[^/]*/' || true); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

bin/scatterlint: $(wildcard cmd/scatterlint/*.go internal/lint/*.go)
	$(GO) build -o $@ ./cmd/scatterlint

# Run the domain-invariant analyzers (internal/lint) over the whole
# module, test files included. Suppress a finding with
#   //scatterlint:ignore <analyzer> <reason>
lint: bin/scatterlint
	./bin/scatterlint ./...
	@out=$$(gofmt -l internal/lint/testdata/*.go); \
	if [ -n "$$out" ]; then \
		echo "fixture generators need gofmt:"; echo "$$out"; exit 1; \
	fi

# Stale-suppression gate: fail if any //scatterlint:ignore directive
# suppresses nothing or names an unknown analyzer — e.g. a rule moved
# to another analyzer while a directive still names the old one.
lint-audit: bin/scatterlint
	./bin/scatterlint -ignoreaudit ./...

# Determinism gate: run scatterlint twice from scratch and fail if the
# two findings streams differ by a byte.
ci-lint: bin/scatterlint
	./bin/scatterlint -json ./... > bin/lint-run1.json
	./bin/scatterlint -json ./... > bin/lint-run2.json
	cmp bin/lint-run1.json bin/lint-run2.json

# Umbrella gate: everything CI enforces, in one target.
check: build vet lint lint-audit race

ci: fmt check ci-lint
