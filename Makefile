# Developer entry points. The repo is pure Go with no dependencies beyond the
# toolchain; everything below is a thin wrapper over the go tool.

GO ?= go

.PHONY: build test check bench bench-json fig5 storm recovery async bb perf

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: static analysis, a full build, and the kernel +
# experiment-runner tests under the race detector (the parallel fan-out and
# the baton protocol are exactly the code -race can falsify).
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./internal/sim/... ./internal/exp/... ./internal/machine/...

# perf runs the end-to-end benchmark (perfbench/, declared by
# BENCHMARK.json) on every workload at small np, then the benchmark
# module's own tests; perfbench is a separate Go module, so `make test`
# never builds it.
perf:
	python3 perfbench/run.py --smoke
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench runs the perf-regression microbenchmarks (event calendar churn,
# process handoff, resource ring). BenchmarkFig5Wallclock is excluded: it simulates
# the full 64K sweep and takes minutes — run `make fig5` for it.
bench:
	$(GO) test -run xxx -bench 'KernelEventChurn|ProcHandoff|ResourceQueue' -benchmem .

# bench-json additionally records BENCH_<name>.json files in the repo root.
bench-json:
	BENCH_JSON=. $(GO) test -run xxx -bench 'KernelEventChurn|ProcHandoff|ResourceQueue' -benchmem .

fig5:
	BENCH_JSON=. $(GO) test -run xxx -bench Fig5Wallclock -benchtime 1x .

# storm records the multi-tenant interference benchmark (BENCH_CkptStorm.json):
# wall-clock plus the worst colliding/staggered penalties of the storm sweep.
storm:
	BENCH_JSON=. $(GO) test -run xxx -bench CkptStorm -benchtime 1x .

# async records the asynchronous checkpoint frontier benchmark
# (BENCH_Async.json): blocked-time win over the best sync arm, flush tail,
# and staleness price at 2048 ranks.
async:
	BENCH_JSON=. $(GO) test -run xxx -bench AsyncFrontier -benchtime 1x .

# bb records the burst-buffer fleet sizing benchmark (BENCH_BBFleet.json):
# full-fleet writer win over the sync reference, worst undersized-FIFO
# degradation, and the deadline policy's drain-tail price at 2048 ranks.
bb:
	BENCH_JSON=. $(GO) test -run xxx -bench BBFleet -benchtime 1x .

# recovery records the closed-loop checkpoint/restart lifecycle benchmark
# (BENCH_Recovery.json): the measured-vs-Daly study at 2048 ranks, all four
# strategy families across the MTBF ladder.
recovery:
	BENCH_JSON=. $(GO) test -run xxx -bench 'Recovery$$' -benchtime 1x .
