# Developer entry points. `make check` is the tier-1 gate: everything
# a change must pass before merging, including the invariant linter
# (harmonylint), the race detector over the concurrent executor and
# memory manager, and a time-boxed fuzz of the checkpoint loader.

GO ?= go

.PHONY: all build vet lint lint-sarif lint-self lint-budget test test-procs race bench bench-contend bench-json bench-smoke bench-gate perf-smoke schedcheck fuzz check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static enforcement of the executor's concurrency and determinism
# invariants (DESIGN.md §10, §15, §16): blocking under vm.mu, DMA
# claim-state writes outside the transition helpers, wall-clock/rand/
# map-order nondeterminism in the deterministic core, mutex copies —
# plus the interprocedural passes (the global lock-order graph,
# goroutine and done-channel lifecycle, the claimword/schedcheck
# protocol cross-check, call-chain taint flow) and the path-sensitive
# CFG passes (pin balance, claim lifecycle, error-path lock/snapshot
# leaks). The ./... pattern covers cmd/ and internal/ alike. Runs from
# the module root; exits non-zero on findings.
lint: vet
	$(GO) run ./cmd/harmonylint ./...

# SARIF log for CI code scanning: same findings and exit code as
# `make lint`, but the report lands in harmonylint.sarif either way so
# the workflow can upload it and annotate the PR.
lint-sarif:
	@$(GO) run ./cmd/harmonylint -sarif ./... > harmonylint.sarif; \
	code=$$?; echo "wrote harmonylint.sarif"; exit $$code

# The linter analyzes itself: internal/analyzers and the harmonylint
# CLI are ordinary concurrent Go and get no exemption from their own
# rules.
lint-self:
	$(GO) run ./cmd/harmonylint ./internal/analyzers/... ./cmd/harmonylint

# Developer-loop latency guard for the full lint run. The
# interprocedural engine (call-graph summaries + fixpoints) and the
# CFG dataflow passes reuse one load and one Program per run — per-
# function CFGs are built lazily and cached on it — so the whole suite
# pays for type-checking once; this fails if the run exceeds
# LINT_BUDGET seconds (~3x the current measured ~9s wall time, with
# headroom for slower CI machines).
LINT_BUDGET ?= 30
lint-budget:
	@start=$$(date +%s); \
	$(GO) run ./cmd/harmonylint ./... || exit $$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "harmonylint wall time: $${elapsed}s (budget $(LINT_BUDGET)s)"; \
	[ $$elapsed -le $(LINT_BUDGET) ] || { echo "lint exceeded its wall-time budget"; exit 1; }

test:
	$(GO) test ./...

# Tier-1 three times in shuffled order under each GOMAXPROCS in
# PROCS (default: one P, then every core). Surfaces tests that only
# fail when kernels really fan out across the worker pool, and order
# dependence on process-wide state such as nn.SetWorkers. Every
# quick.Check logs its seed (internal/quickseed); HARMONY_QUICK_SEED
# replays it.
PROCS ?= 1 $(shell nproc)
test-procs: build
	@for p in $(PROCS); do \
		echo "GOMAXPROCS=$$p go test -count=3 -shuffle=on ./..."; \
		GOMAXPROCS=$$p $(GO) test -count=3 -shuffle=on ./... || exit $$?; \
	done

# The exec executor, memory manager and collectives are the packages
# with real concurrency or async error delivery; race-check them
# specifically (the full suite under -race is much slower).
race:
	$(GO) test -race ./internal/exec/... ./internal/memory/... ./internal/collective/...

# Executor ablation: serial reference vs parallel device workers,
# plus the swap-bound sync-vs-prefetch matrix.
bench:
	$(GO) test -run XXX -bench 'BenchmarkTrainerStep' -benchmem .

# Contention-scaling smoke (part of `make check`): the sharded Ensure
# hot path under a Zipf working set and under one goroutine per device
# at 1..64 devices. The full ns/op flatness guard lives in bench-gate;
# this target just proves both benches run clean.
bench-contend:
	$(GO) test -run XXX -bench 'BenchmarkEnsureContended|BenchmarkVMEvictionZipf' -benchtime 10000x ./internal/exec/

# Machine-readable swap-overlap report: sync vs prefetch per-step
# times, swap volumes and DMA overlap fractions on the swap-bound
# configs, the dp4-comm monolithic vs chunked row and the Ensure
# contention curve. Regenerates the checked-in BENCH_trainer.json.
bench-json:
	$(GO) run ./cmd/benchtrainer -steps 4 -out BENCH_trainer.json

# One-step smoke of the same harness (part of `make check`): proves
# the sync and prefetch paths both train and the report writes.
bench-smoke:
	$(GO) run ./cmd/benchtrainer -steps 1 -out /dev/null

# Performance regression gate: regenerate the swap-overlap report and
# fail if (a) the swap-bound config's prefetch speedup dropped >20%
# against the checked-in baseline, (b) the sharded Ensure hot path
# stopped scaling — ns/op growing >15% from 16 to 64 devices means a
# cross-device lock is back on the claim path — or (c) chunked
# collectives on the dp4-comm row lost their edge: >10% slower than
# the monolithic rendezvous in the same report, or comm overlap >5
# points below the checked-in baseline.
# CI runs this on every push.
bench-gate:
	$(GO) run ./cmd/benchtrainer -steps 4 -out /tmp/BENCH_trainer.new.json
	$(GO) run ./cmd/benchgate -old BENCH_trainer.json -new /tmp/BENCH_trainer.new.json -row dp1-hostlink -max-regress 0.20 -max-scale-degrade 0.15 -max-comm-overlap-drop 0.05 -max-comm-slowdown 0.10

# Repository benchmark smoke (CI job perf-smoke): the perfbench
# harness's own tests, then a 2-second untraced swap-dp1 run, which
# bit-compares its leading losses with the serial reference. A trainer
# change that breaks that equality makes the run report correct:false,
# and this target fails.
perf-smoke:
	$(GO) -C perfbench test .
	@out=$$(bash perfbench/run.sh --workload swap-dp1 --seconds 2 --trace 0); code=$$?; \
	echo "$$out" | tail -n 2; \
	echo "$$out" | grep -q '"correct":true' || { echo "perf-smoke: swap-dp1 did not report correct:true"; exit 1; }; \
	exit $$code

# Static plan verification gate (part of `make check`): every clean
# plan shape must PASS, and each seeded plan bug — rendezvous cycle,
# analytic-volume divergence, over-capacity residency, uncommitted DMA
# claim — must be rejected with a counterexample, both by the CLI and
# by the harmonytrain preflight. The exhaustive per-variant sweep runs
# in the schedcheck package tests (TestPropertySweep).
schedcheck:
	$(GO) run ./cmd/schedcheck -mode harmony-dp -devices 2
	$(GO) run ./cmd/schedcheck -mode pp-baseline -devices 4 -layers 16 -prefetch=false
	$(GO) run ./cmd/schedcheck -mode harmony-tp -devices 2
	! $(GO) run ./cmd/schedcheck -mode dp-baseline -devices 2 -inject cycle
	! $(GO) run ./cmd/schedcheck -mode dp-baseline -devices 2 -inject volume
	! $(GO) run ./cmd/schedcheck -mode harmony-dp -devices 2 -inject overcap
	! $(GO) run ./cmd/schedcheck -mode harmony-dp -devices 2 -inject uncommitted
	! $(GO) run ./cmd/harmonytrain -arch mlp -widths 64,32,10 -devices 2 -device-mem 16384 -steps 1

# Time-boxed fuzzing: the checkpoint loader must reject arbitrary
# bytes with errors (never panics or huge allocations), and the
# retuner must admit only plans that pass the schedcheck preflight,
# whatever the measured profile claims.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 10s -test.fuzzminimizetime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz FuzzRetune -fuzztime 10s -test.fuzzminimizetime 5s ./internal/tuner/

check: lint build test race fuzz bench-smoke bench-contend schedcheck
