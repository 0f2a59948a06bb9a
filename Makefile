# xkblas-go — reproduction of "Evaluation of two topology-aware heuristics
# on level-3 BLAS library for multi-GPU platforms" (PAW-ATM @ SC 2021).

GO ?= go

.PHONY: all build test race race-cancel metrics-race stress check golden-check audit-check topo-check serve-check batch-check perfbench-check bench bench-alloc bench-bigN verify experiments experiments-quick examples fmt fmtcheck vet clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with multi-goroutine code: the
# parallel sweep harness, the engine it drives, the parallel host GEMM, and
# the runtime under the randomized audit sweep.
race:
	$(GO) test -race ./internal/bench/... ./internal/sim/... ./internal/hostblas/... ./internal/xkrt/...

# Cancellation/deadline propagation under the race detector: the engine's
# cross-goroutine stop flag, the runtime's watchdog Cancel protocol, the
# partial-prefix sweep contract and the goroutine-leak check.
race-cancel:
	$(GO) test -race -count=1 -run 'Cancel|Stop' ./internal/sim/ ./internal/xkrt/ ./internal/bench/ ./cmd/xkbench/

# Metrics layer under the race detector: registry primitives (concurrent
# updaters racing Snapshot readers), the parallel sweep's snapshot
# determinism/parity, and the command-level sinks.
metrics-race:
	$(GO) test -race -count=1 ./internal/metrics/
	$(GO) test -race -count=1 -run 'Metrics' ./internal/bench/ ./internal/xkrt/ ./cmd/xkbench/

# Coherence stress gate (fixed seeds, deterministic): the randomized DAG
# audit sweep over every policy bundle/topology/mode, the cache coherence
# fuzzer, the auditor's mutation self-tests, and the mode-parity check.
stress:
	$(GO) test -count=1 -run 'TestAuditRandomDAGSweep|TestAuditCatchesEvilEvictor|TestFunctionalTimingParity|TestRandomDAG|TestChainedForward' ./internal/xkrt/
	$(GO) test -count=1 -run 'TestCacheCoherenceFuzz|TestCancelInflight' ./internal/cache/
	$(GO) test -count=1 ./internal/check/

# Golden gate: one full quick sweep, fanned across 8 workers, byte-diffed
# against the committed results_quick.txt. Output is bit-identical at any
# -parallel, so this one run locks the whole stack's event order; the
# feature gates below depend on it instead of rerunning the sweep.
golden-check:
	$(GO) run ./cmd/xkbench -exp all -quick -parallel 8 > .golden-check.quick.txt && \
		diff -u results_quick.txt .golden-check.quick.txt && rm -f .golden-check.quick.txt

# Audit gate: the quick sweep plus the three experiments -exp all leaves
# out (bign, batch, serve), each under the coherence auditor. Unlike
# golden-check's pooled handles, -check runs build fresh handles, and the
# auditor verifies every cache and scheduler transition they drive; any
# violation exits nonzero. Prints each run's drain/violation summary.
audit-check:
	@for e in all bign batch serve; do \
		$(GO) run ./cmd/xkbench -exp $$e -quick -check > .audit-check.txt || { cat .audit-check.txt; exit 1; }; \
		echo "-exp $$e: $$(tail -n 1 .audit-check.txt)"; \
	done; rm -f .audit-check.txt

# Fabric-graph gate: registry-wide Validate + legacy route/link-class
# parity + randomized topology fuzz of Route/Validate, the golden sweep
# parity files of all three legacy platforms, the per-hop contention tests,
# and the golden quick-sweep diff (the routed graph must reproduce the
# legacy event order exactly).
topo-check: golden-check
	$(GO) test -count=1 -run 'TestLegacyRouteParity|TestLegacyLinkClassParity|TestRegistryMatrixSymmetry|TestRegistryUnknownAndNames|TestFabricFuzz' ./internal/topology/
	$(GO) test -count=1 -run 'TestQPIContention|TestNICContention|TestHostRouteContention' ./internal/device/
	$(GO) test -count=1 -run 'Golden' ./internal/bench/

# Serving-path gate: the multi-tenant front end's unit and determinism
# tests under the race detector (prewarm is the one concurrent phase), plus
# a quick deterministic load replay through the xkserve binary — two runs
# of one seed must produce byte-identical reports.
serve-check:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'Serve' ./cmd/xkbench/
	$(GO) run ./cmd/xkserve -requests 300 -parallel 8 > .serve-check.a.txt && \
		$(GO) run ./cmd/xkserve -requests 300 -parallel 2 -no-reuse > .serve-check.b.txt && \
		diff -u .serve-check.a.txt .serve-check.b.txt && rm -f .serve-check.a.txt .serve-check.b.txt

# Batched-dispatch gate: the model-derived crossover contract (the
# crossover leg is never more than 5% slower than the better forced leg at
# every swept point), batched determinism across handle reuse, the
# dispatch-flag validation, and the golden quick-sweep diff (the batched
# path — idle host server included — must leave the non-batched event
# order untouched).
batch-check: golden-check
	$(GO) test -count=1 -run 'TestRunBatched|TestDispatch' ./internal/baseline/
	$(GO) test -count=1 -run 'TestBatchedRequestKindServed' ./internal/serve/
	$(GO) test -count=1 -run 'TestFlagProblem|TestBatch' ./cmd/xkbench/

# The perfbench module is nested, so the root ./... pattern never compiles
# it: vet and test it against this tree's APIs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Default verification gate: build, vet, formatting, tests, stress, race,
# the allocation gates, randomized functional verification, the golden
# quick-sweep diff (run once), the audited sweeps, the fabric-graph parity
# gate, the serving-path gate, the batched-dispatch gate and the perfbench
# module.
check: build vet fmtcheck test stress race race-cancel metrics-race bench-alloc verify golden-check audit-check topo-check serve-check batch-check perfbench-check

# One testing.B benchmark per paper table/figure plus the ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Allocation gates: a warm submit/run/retire wave allocates nothing (the
# arena contract behind million-task runs); a whole timing-mode GEMM with
# write-back, on a reset handle, stays within 0.5 objects per retired task
# under work stealing and DMDAS (the transfer path: hop joins,
# under-transfer records, waiters, write-backs); warm multi-hop transfers,
# warm fair-share submit/wake/complete cycles, DMDAS placement and source
# selection allocate nothing, and neither do the host tile kernels at any
# flag combination; then report the ns/op and allocs/op benchmarks
# (GFlop/s too for the kernels, at functional mode's flags; ns and allocs
# per request for a 20k-request serve replay).
bench-alloc:
	$(GO) test -count=1 -run 'TestSubmitSteadyStateAllocBudget|TestTileQueriesAllocFree' ./internal/xkrt/
	$(GO) test -count=1 -run 'TestTimingGemmAllocBudget' ./internal/core/
	$(GO) test -count=1 -run 'TestTransferMultiHopAllocFree|TestFairServerSteadyStateAllocFree' ./internal/sim/
	$(GO) test -count=1 -run 'TestTileKernelsAllocFree' ./internal/hostblas/
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitComplete|BenchmarkDAGBuild|BenchmarkDMDASAssign|BenchmarkSelectSource' -benchmem ./internal/xkrt/
	$(GO) test -run '^$$' -bench 'BenchmarkKernels' -benchtime 200ms -benchmem ./internal/hostblas/
	$(GO) test -run '^$$' -bench 'BenchmarkReplay' -benchmem ./internal/serve/

# Beyond-paper-scale demonstration: 1.4M-task GEMM (N=229376) streamed
# through a bounded admission window with interleaved coherency, plus the
# two configurations that hit the task- and device-memory walls (~40 s).
bench-bigN:
	$(GO) run ./cmd/xkbench -exp bign

# Randomized functional verification of all nine routines.
verify:
	$(GO) run ./cmd/xkverify -trials 25

# Regenerate every table and figure at paper scale (~2 min).
experiments:
	$(GO) run ./cmd/xkbench -exp all | tee results_full.txt

experiments-quick:
	$(GO) run ./cmd/xkbench -exp all -quick | tee results_quick.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dod
	$(GO) run ./examples/dropin
	$(GO) run ./examples/cholesky
	$(GO) run ./examples/lu
	$(GO) run ./examples/composition

fmt:
	gofmt -w .

# Fails (listing the offending files) when any file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
