GO ?= go

.PHONY: all build vet test race perfbench-test bench bench-recovery bench-solver bench-solver-smoke bench-degraded bench-virtual-check bench-lint bench-serve figures fmt lint lint-audit ci-lint check ci

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

# Every root benchmark once, without rewriting committed files: the one
# that records BENCH_lint.json runs only through its own target,
# bench-lint.
bench:
	$(GO) test -run '^$$' -bench . -skip 'BenchmarkLint' -benchtime 1x .

# The committed BENCH_*.json documents below, BENCH_lint.json aside, are
# each written by one scatterbench experiment: `-exp ID -json FILE`.

# Regenerate BENCH_recovery.json (the chaos pipeline on the Table 1
# grid against its fault-free baseline: a transient link drop with its
# retries and timeouts, a worker crash, and early and late root
# crashes with their failovers).
bench-recovery:
	$(GO) run ./cmd/scatterbench -exp recovery -json BENCH_recovery.json

# Regenerate BENCH_solver.json (incremental solver engine vs the
# from-scratch DP at the paper's full 817,101-item scale: cold solves,
# the GOMAXPROCS scaling curve, the certified exact solve, warm crash
# re-solves, plan-cache hits). Takes a few seconds.
bench-solver:
	$(GO) run ./cmd/scatterbench -exp solver -items 817101 -json BENCH_solver.json

# Smoke variant for CI: the same measurement matrix (scaling curve and
# bit-identity checks — the certified solve's included, which must
# certify and match Algorithm 2) at a reduced item count, so a
# regression in any verified invariant — not the wall-clock numbers —
# fails fast on shared runners. Output is discarded on purpose: only
# the committed BENCH_solver.json carries published numbers.
bench-solver-smoke:
	$(GO) run ./cmd/scatterbench -exp solver -items 120000 -json /tmp/BENCH_solver_smoke.json

# Regenerate BENCH_degraded.json (degraded-network recovery on routed
# ring platforms: exact-DP re-solves vs the diffusion fallback under a
# site partition plus degraded trunk links, at three graph sizes).
bench-degraded:
	$(GO) run ./cmd/scatterbench -exp degraded -json BENCH_degraded.json

# Fail if a virtual-time artifact no longer matches the code:
# BENCH_recovery.json, BENCH_degraded.json and the seven SVGs under
# figures/ (the paper's Figures 1-4 and faultdemo's three) are
# deterministic in virtual time, so regenerating them must leave the
# committed files byte-identical.
bench-virtual-check: bench-recovery bench-degraded figures
	for f in fig1 fig2 fig3 fig4; do $(GO) run ./cmd/scatterbench -exp $$f -svg figures > /dev/null || exit 1; done
	git diff --exit-code BENCH_recovery.json BENCH_degraded.json figures

# Regenerate BENCH_serve.json (scatterd crash-restart economics: a cold
# daemon's sweep over every distinct key against a warm daemon's over
# the recovered, torn WAL, every answer checked against Algorithm 2).
# Load figures live in perfbench's serve-hot and serve-churn workloads.
bench-serve:
	$(GO) run ./cmd/scatterbench -exp serve -json BENCH_serve.json

# Regenerate BENCH_lint.json (scatterlint runtime over this module:
# the loader, each analyzer on its own, the full suite, and the full
# suite over the generated synthetic fixture, with the host's
# GOMAXPROCS and Go version).
bench-lint:
	$(GO) test -run '^$$' -bench BenchmarkLint -benchtime 1x .

# Regenerate figures/fault.svg, failover.svg and degraded.svg alongside
# the demo's console report.
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
