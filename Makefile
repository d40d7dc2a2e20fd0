# Development entry points. `make check` is the full gate run before
# committing: vet, the schedlint static contracts, build, the complete
# test suite under the race detector, a short benchmark smoke proving
# the perf-critical benches still run, and a short native-fuzz smoke
# over the parser/decoder fuzz targets. `make bench` regenerates
# BENCH_baseline.json and BENCH_scale.json.

GO ?= go
SCHEDLINT ?= bin/schedlint

.PHONY: all build vet lint lint-json lint-fix test race bench-smoke fuzz-smoke bench check experiments FORCE

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# schedlint statically enforces the simulator's determinism, cache
# invalidation, concurrency and persistence contracts (see DESIGN.md
# §12 and §17): nodeterminism, epochbump, poolreset, obsvocab,
# optflag, lockheld, snapshotfree, deltajournal and errcmp, run
# through the `go vet` tool protocol.
$(SCHEDLINT): FORCE
	$(GO) build -o $(SCHEDLINT) ./cmd/schedlint

lint: $(SCHEDLINT)
	$(GO) vet -vettool=$(SCHEDLINT) ./...

# Machine-readable diagnostics (JSON with byte-offset suggested
# fixes) for CI annotations; exits zero even with findings. The go
# command routes the tool's JSON to stderr, so merge it onto stdout
# to make the stream pipeable.
lint-json: $(SCHEDLINT)
	$(GO) vet -vettool=$(SCHEDLINT) -json ./... 2>&1

# Apply the mechanical rewrites the analyzers suggest (errcmp's
# errors.Is splices): emit JSON diagnostics, pipe them back into the
# -apply subcommand, then re-lint to confirm the tree is clean.
lint-fix: $(SCHEDLINT)
	$(GO) vet -vettool=$(SCHEDLINT) -json ./... 2>&1 | $(SCHEDLINT) -apply
	$(GO) vet -vettool=$(SCHEDLINT) ./...

FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick smoke of the performance-critical benchmarks (fixed small
# iteration counts; seconds, not minutes). The fault-churn macro bench
# runs once so recovery-path regressions and stalls surface in CI, the
# cluster-scale selection bench runs its whole 100→5000-node grid so a
# scaling regression in the class-collapsed hot path surfaces too, and
# the placement-service bench exercises the concurrent decide path at
# 1/4/8 readers before placement_guard.sh holds its p50 budget and
# journal_guard.sh the journal-on delta budget. The open-system cell
# runs once inside opensys_guard.sh, which holds the deterministic
# steady-state p99 JCT to its BENCH_opensys.json budget.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCore_|BenchmarkTopology_FlowChurn$$' \
		-benchmem -benchtime 200x .
	$(GO) test -run '^$$' -bench 'BenchmarkSimulation_FaultChurn' \
		-benchmem -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkSelect_ClusterScale' \
		-benchmem -benchtime 20x .
	$(GO) test -run '^$$' -bench 'BenchmarkPlacement_Decide' \
		-benchmem -benchtime 500x .
	sh scripts/alloc_guard.sh
	sh scripts/placement_guard.sh
	sh scripts/journal_guard.sh
	sh scripts/opensys_guard.sh

# Short native-fuzz smoke over every parser/decoder fuzz target in the
# tree: seeds plus a few seconds of mutation each, so a crash in the
# journal decoder or the fault-plan DSL parser surfaces in CI without a
# dedicated long-running fuzz job.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeJournal' -fuzztime 5s ./internal/placement
	$(GO) test -run '^$$' -fuzz 'FuzzParsePlan' -fuzztime 5s ./internal/faults
	$(GO) test -run '^$$' -fuzz 'FuzzCDF' -fuzztime 5s ./internal/metrics
	$(GO) test -run '^$$' -fuzz 'FuzzHistogramQuantile' -fuzztime 5s ./internal/metrics
	$(GO) test -run '^$$' -fuzz 'FuzzAssignProb' -fuzztime 5s ./internal/core

# Full benchmark pass; records results in BENCH_baseline.json and
# the cluster-size trajectory in BENCH_scale.json.
bench:
	sh scripts/bench.sh

check: vet lint build race bench-smoke fuzz-smoke

# Regenerate the paper's tables and figures at the canonical scale.
experiments:
	$(GO) run ./cmd/experiments -run all -scale 3
