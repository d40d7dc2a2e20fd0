# Development entry points. `make check` is the full gate run before
# committing: vet, the schedlint static contracts, build, the complete
# test suite under the race detector (which includes the deterministic
# allocation and simulated-latency budget tests), a short native-fuzz
# smoke over every fuzz target, and the byte-identical experiment
# goldens. `make bench`
# runs the end-to-end benchmark, cmd/mrbench (see its README for
# -compare and -trace).

GO ?= go
SCHEDLINT ?= bin/schedlint

.PHONY: all build vet lint lint-json lint-fix test race fuzz-smoke bench check experiments goldens FORCE

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# schedlint statically enforces the simulator's determinism, cache
# invalidation, concurrency and persistence contracts (see DESIGN.md
# §12 and §17): nodeterminism, epochbump, poolreset, obsvocab,
# optflag, lockheld, snapshotfree, deltajournal, errcmp and funnel,
# run through the `go vet` tool protocol.
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

# Short native-fuzz smoke over every fuzz target in the tree: seeds plus
# a few seconds of mutation each, so a crash in the journal or checkpoint
# decoder or the fault-plan DSL parser, or a whole simulation run that
# leaks slots, flows or shuffle bytes, surfaces in CI without a dedicated
# long-running fuzz job. The target list comes from `go test -list`, so a
# new fuzz target joins the smoke without editing this file.
fuzz-smoke:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { n[++k] = $$1; next } /^ok/ { for (i = 1; i <= k; i++) print $$2, n[i] } { k = 0 }' | \
	while read -r pkg name; do \
		echo "$(GO) test -run '^$$' -fuzz '^$$name\$$' -fuzztime 5s $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 5s "$$pkg" || exit 1; \
	done

bench:
	bash cmd/mrbench/run.sh

check: vet lint build race fuzz-smoke goldens

# Regenerate the paper's tables and figures at the canonical scale.
experiments:
	$(GO) run ./cmd/experiments -run all -scale 3

# Regenerate both committed experiment outputs into a temp dir and
# require them byte-identical to the committed copies: a change that
# moves a simulated figure must say so by committing the new output.
goldens:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	"$$tmp/experiments" -run all -scale 3 > "$$tmp/experiments_output.txt" && \
	cmp "$$tmp/experiments_output.txt" experiments_output.txt && \
	"$$tmp/experiments" -run seeds -scale 3 > "$$tmp/seed_study_output.txt" && \
	cmp "$$tmp/seed_study_output.txt" seed_study_output.txt
