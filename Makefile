# Convenience targets for the mcopt reproduction. Everything is stdlib Go;
# no target needs network access.
#
# `make profile` runs the Table 4.1 benchmark sequentially under the pprof
# hooks and leaves cpu.pprof / mem.pprof in the repo root; inspect them with
# `go tool pprof cpu.pprof` (top, list Figure1, web, ...).

GO ?= go

.PHONY: all build test vet bench bench-json bench-service bench-selftest tables tune report examples cover fuzz profile determinism crash-test smoke chaos-test archive-test clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# One benchmark per paper table plus the ablation suite.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable results for the evaluation-kernel micro-benchmarks
# (BenchmarkSwapEval / BenchmarkSwapApply / BenchmarkReinsertEval /
# BenchmarkSwapEvalLarge / BenchmarkBatchSwapEval), the engine suite
# (BenchmarkTempering), and the hook overhead suite (BenchmarkFigure1Hooks,
# BenchmarkHookObs), for tracking kernel, engine, and telemetry regressions
# over time. The output is committed as BENCH_kernel.json.
bench-json:
	$(GO) test -json -run '^$$' -bench 'BenchmarkSwapEval$$|BenchmarkSwapApply$$|BenchmarkReinsertEval$$|BenchmarkSwapEvalLarge|BenchmarkBatchSwapEval|BenchmarkTempering|BenchmarkFigure1Hooks$$|BenchmarkHookObs$$|BenchmarkMaxCutFlip$$' -benchmem . > BENCH_kernel.json

# Service-layer latency under concurrent load: start a throwaway mcoptd,
# drive it with cmd/mcoptload (concurrent submits + NDJSON stream watch on
# small registry-served max-cut jobs), and record submit / first-event /
# done / result-fetch percentiles. The output is committed as
# BENCH_service.json.
bench-service:
	GO=$(GO) bash scripts/service_bench.sh

# The repository benchmark's own tests (benchmark/ is a separate module
# built against this tree). They pin what the benchmark reads from the
# service: replica spans carrying their run index, lease counters at zero
# off the fleet, and fleet artifacts byte-identical to single-node ones.
bench-selftest:
	cd benchmark && $(GO) vet . && $(GO) test -count=1 .

# Regenerate the paper's tables at paper budgets (writes to stdout).
tables:
	$(GO) run ./cmd/olabench

# The §4.2.1 temperature grid.
tune:
	$(GO) run ./cmd/olatune -family gola

# Everything in one markdown report.
report:
	$(GO) run ./cmd/olareport -o report.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/placement
	$(GO) run ./examples/viacolumns
	$(GO) run ./examples/tsp
	$(GO) run ./examples/partition
	$(GO) run ./examples/autoschedule

cover:
	$(GO) test -cover ./...

# Brief fuzz pass over the netlist text parser.
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/netlist

# CPU and heap profiles of the Table 4.1 pipeline (sequential, so the
# profile reflects the engines rather than the worker pool).
profile:
	$(GO) run ./cmd/olabench -table 4.1 -seq -cpuprofile cpu.pprof -memprofile mem.pprof

# The scheduler's determinism contract, checked end to end: the same table
# run one-worker and all-cores must be byte-identical on stdout.
determinism:
	$(GO) run ./cmd/olabench -table 4.1 -scale 0.05 -workers 1 > seq.txt
	$(GO) run ./cmd/olabench -table 4.1 -scale 0.05 > par.txt
	cmp seq.txt par.txt
	rm -f seq.txt par.txt

# The durability contract, checked end to end: fault-injection recovery
# suite, then a deterministic hard exit and a real kill -9 of olabench
# mid-run, each resumed and cmp'd against an uninterrupted baseline.
crash-test:
	GO=$(GO) sh scripts/crash_test.sh

# The service layer, checked end to end over a real socket: submit and
# stream with mcoptctl, then kill -9 mcoptd mid-job, restart it over the
# same data directory, and cmp the resumed result against the golden one.
smoke:
	GO=$(GO) sh scripts/service_smoke.sh

# The runner fleet's fault tolerance, checked end to end: three mcoptrunner
# processes share a job's replica grid, one straggles (injected stall) and
# is kill -9'd mid-grid, and the coordinator must re-lease its window —
# the final artifact must be byte-identical to a single-node run.
chaos-test:
	GO=$(GO) sh scripts/chaos_test.sh

# The archive's exactly-once retirement contract, checked end to end:
# submit jobs to a real mcoptd, kill it (injected hard exit) between a
# job's durable archive append and its directory delete, restart over the
# same data directory, and assert every job exists exactly once — in the
# archive, directory gone (DESIGN.md §15).
archive-test:
	GO=$(GO) bash scripts/archive_test.sh

clean:
	rm -f report.md test_output.txt bench_output.txt cpu.pprof mem.pprof seq.txt par.txt
