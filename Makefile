GO ?= go
PORT ?= 8080

.PHONY: build test vet loc race fuzz-smoke validate-quick bench bench-sweep bench-snapshot bench-compare bench-islands island-smoke fpga-smoke suite-corpus quick full serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Non-test Go lines (wc -l) per package directory and in total: the count
# ROADMAP aim 2 asks every PR to report. Run it before and after a change
# and subtract.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec wc -l {} + | \
		awk '$$2 != "total" { n = split($$2, p, "/"); \
			d = substr($$2, 3, length($$2) - length(p[n]) - 3); if (d == "") d = "."; \
			lines[d] += $$1; total += $$1 } \
		END { for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"; close("sort -k2"); \
			printf "%7d total\n", total }'

# Race-check the concurrency-bearing packages: the sweep executor, the
# shared metrics cache in core, the GA evaluate workers in moea, the
# job-queue service, the durable store, the fleet gateway and its job-API
# client, the parallel candidate evaluation in tdse, and the
# pooled chain-solve path (relmodel/markov/matrix) plus the HEFT
# scheduler behind the proposed method's directed seeding and the
# fault-model evaluation counters read by /metrics.
race:
	$(GO) vet ./... && $(GO) test -race ./internal/sweep ./internal/core ./internal/moea ./internal/service ./internal/store ./internal/gateway ./internal/heft ./internal/tdse ./internal/relmodel ./internal/markov ./internal/matrix ./internal/faultmodel

# Short continuous-fuzzing pass over the input-parsing surfaces: the TGFF
# text parser, the JobSpec normalizer, the WAL replayer, the gateway
# tenant-config parser and the fault-model JSON decoder. Each target gets
# 10s on top of the checked-in corpus under testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzParseText -fuzztime 10s ./internal/tgff
	$(GO) test -run xxx -fuzz FuzzNormalize -fuzztime 10s ./internal/service
	$(GO) test -run xxx -fuzz FuzzWALReplay -fuzztime 10s ./internal/store
	$(GO) test -run xxx -fuzz FuzzParseTenants -fuzztime 10s ./internal/gateway
	$(GO) test -run xxx -fuzz FuzzFaultModelDecode -fuzztime 10s ./internal/faultmodel

# Quick statistical cross-validation of the analytical models against the
# fault-injection simulator (a reduced-trial version of cmd/validate).
validate-quick:
	$(GO) run ./cmd/validate -trials 2000

bench:
	$(GO) test -bench . -benchmem -benchtime 1x ./...

# One pass over the sweep-engine and per-figure benchmarks (the snapshot
# recorded in CHANGES.md).
bench-sweep:
	$(GO) test -bench 'Sweep|Fig|Table' -benchtime 1x .

# Machine-readable perf snapshot: one pass over the sweep/figure/table
# benchmarks, the evaluation-stack layer rows and the moea selection-path
# kernels (non-dominated sort, archive update, crowding) with -benchmem,
# converted to JSON by cmd/benchsnap. The layer rows, bottom up: chain
# solves (relmodel ChainSolve*: legacy paired, checkpointed solo, and the
# permanent-fault chain of the fault-model corpus), one chain-pair analysis
# (MarkovAnalyze), one task evaluation (TaskEvaluate), one task type's
# tDSE (TDSEExplore), one list schedule with its Eq. 1–4 reduction
# (ScheduleEvaluator*; ScheduleEvaluator50Default computes only the
# makespan/error-probability aggregates a default-objective GA reads),
# one whole-mapping evaluation (EvaluateMapping*),
# fcCLR runs with delta evaluation on and off (internal/core DeltaEval*),
# and the engine runs (internal/moea GARun on a synthetic problem,
# MOEADSobel).
# Both snapshot and gate take best-of-3 per benchmark (-count=3, collapsed
# to the fastest run by benchsnap): preemption and VM CPU steal only ever
# add time, so the minimum is the robust timing estimate. The suite
# benchmarks run one iteration per count (each is ~100ms of real DSE
# work); the microsecond-scale layer rows and selection kernels need a
# large fixed iteration count on top to be measurable at all.
# BENCH_SNAPSHOT names the file to write (stdout when empty), e.g.
#   make bench-snapshot BENCH_SNAPSHOT=BENCH_PR13.json BENCH_BASELINE=BENCH_PR10.json
BENCH_KERNELS := NonDominatedSort|UpdateArchive|Crowding
BENCH_SUITE_CMD = $(GO) test -run '^$$' -bench 'Sweep|Fig|Table' -benchmem -benchtime 1x -count 3 .
BENCH_LAYER_CMD = $(GO) test -run '^$$' -bench 'ChainSolve' -benchmem -benchtime 20000x -count 3 ./internal/relmodel && \
	$(GO) test -run '^$$' -bench '^Benchmark(MarkovAnalyze|TaskEvaluate|ScheduleEvaluator(Sobel|50|50Default)|EvaluateMapping(Sobel|Synthetic))$$' -benchmem -benchtime 20000x -count 3 . && \
	$(GO) test -run '^$$' -bench '^Benchmark(TDSEExplore|MOEADSobel)$$' -benchmem -benchtime 50x -count 3 . && \
	$(GO) test -run '^$$' -bench '^BenchmarkDeltaEval(On|Off)$$' -benchmem -benchtime 20x -count 3 ./internal/core && \
	$(GO) test -run '^$$' -bench '^BenchmarkGARun$$' -benchmem -benchtime 100x -count 3 ./internal/moea && \
	$(GO) test -run '^$$' -bench '^BenchmarkEvaluatorGroupedByPE$$' -benchmem -benchtime 5000x -count 3 ./internal/schedule
BENCH_KERNEL_CMD = $(GO) test -run '^$$' -bench '$(BENCH_KERNELS)' -benchmem -benchtime 200x -count 3 ./internal/moea
BENCH_SNAPSHOT ?=
BENCH_BASELINE ?=
bench-snapshot:
	{ $(BENCH_SUITE_CMD) && $(BENCH_LAYER_CMD) && $(BENCH_KERNEL_CMD); } | \
		$(GO) run ./cmd/benchsnap $(if $(BENCH_SNAPSHOT),-o $(BENCH_SNAPSHOT)) $(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE))

# Regression gate: run the sweep/figure/table, layer and kernel benchmarks
# fresh and fail if any shared benchmark regressed past the thresholds vs
# the last committed snapshot (highest-numbered BENCH_*.json by default).
# Allocs/op is deterministic and carries the tight bound; wall-clock —
# even as best-of-3 — swings with virtualized-CPU phases on shared hosts,
# so the time bound matches the CI shared-runner setting. Tighten with
# BENCH_TIME_PCT on quiet bare-metal boxes.
# Default to the highest-numbered committed snapshot. Plain $(sort) is
# lexical — BENCH_PR10 would sort before BENCH_PR9 — so single-digit and
# multi-digit PR numbers are sorted as separate groups with the longer
# (numerically larger) group winning.
BENCH_COMPARE_BASE ?= $(lastword $(sort $(wildcard BENCH_PR?.json)) $(sort $(wildcard BENCH_PR??.json)))
BENCH_TIME_PCT ?= 35
BENCH_ALLOC_PCT ?= 10
bench-compare:
	{ $(BENCH_SUITE_CMD) && $(BENCH_LAYER_CMD) && $(BENCH_KERNEL_CMD); } | \
		$(GO) run ./cmd/benchsnap -compare -baseline $(BENCH_COMPARE_BASE) \
			-max-time-pct $(BENCH_TIME_PCT) -max-alloc-pct $(BENCH_ALLOC_PCT)
	$(GO) test -run '^$$' -bench 'Islands' -benchmem -benchtime 1x . | \
		$(GO) run ./cmd/benchsnap -compare -baseline BENCH_ISLANDS_PR8.json \
			-max-time-pct $(BENCH_TIME_PCT) -max-alloc-pct $(BENCH_ALLOC_PCT)

# Island-quality snapshot: the equal-budget hypervolume uplift benchmarks
# (island vs single population on sobel + synthetic), recorded as the
# committed BENCH_ISLANDS_PR8.json artifact. The hv-uplift-% metric is
# deterministic; only the timing columns vary across machines.
BENCH_ISLANDS_SNAPSHOT ?= BENCH_ISLANDS_PR8.json
bench-islands:
	$(GO) test -run '^$$' -bench 'Islands' -benchmem -benchtime 1x . | \
		$(GO) run ./cmd/benchsnap -o $(BENCH_ISLANDS_SNAPSHOT)

# Deterministic island smoke: a quick 2-island experiment run byte-compared
# against the committed golden. Catches any change to the migration
# protocol, RNG stream layout or merge order that would silently break
# cross-version reproducibility.
island-smoke:
	$(GO) run ./cmd/experiments -quick -run fig7 -islands 2 -migration-every 2 \
		-timing=false > /tmp/island-smoke.out
	cmp /tmp/island-smoke.out testdata/island_smoke.golden

# Deterministic fault-model smoke: the ext-fpga extension study (SEU-only
# vs combined transient+permanent vs checkpoint axis on the FPGA family)
# byte-compared against the committed golden front, plus the legacy quick
# suite against the pre-subsystem baseline with every new axis off.
fpga-smoke:
	$(GO) run ./cmd/experiments -quick -run ext-fpga -timing=false > /tmp/fpga-smoke.out
	cmp /tmp/fpga-smoke.out testdata/ext_fpga_quick.golden
	$(GO) test -run 'TestQuickLegacyGolden' ./cmd/experiments

# Regenerate the committed mixed-criticality scenario corpus (graphs, job
# specs and manifest under cmd/tgffgen/testdata/suite) after an intended
# generator or spec-format change.
suite-corpus:
	$(GO) test -run TestSuiteGolden -update-suite ./cmd/tgffgen

# Build and launch the DSE job service on $(PORT).
serve:
	$(GO) build ./cmd/clrearlyd && $(GO) run ./cmd/clrearlyd -addr :$(PORT)

quick:
	$(GO) run ./cmd/experiments -quick

full:
	$(GO) run ./cmd/experiments
