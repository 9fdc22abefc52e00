# Ah-Q reproduction build targets.
#
#   all        - tier-1 gate: build + vet + lint + test + race
#   build      - compile every package
#   vet        - go vet
#   lint       - project static analysis (cmd/ahqlint): detflow,
#                unitcheck, floatcmp, seedplumb, errwrap, hotpath,
#                lockcheck, unused (docs/lint.md)
#   test       - full test suite
#   test-short - skip the long-horizon tests
#   race       - test suite under the race detector
#   bench      - run the benchmark suite and emit BENCH_<n>.json
#                (benchmark name -> ns/op, B/op, allocs/op via cmd/benchjson)
#   results    - regenerate every paper artifact into results/
#   md5-quick  - check `ahqbench -all -quick` stdout against results/quick.md5
#   md5-full   - check full-horizon `ahqbench -all` stdout against
#                results/full.md5 (~50 s on a 2-CPU box)
#   fuzz       - fuzz the percentile estimators and the fault-plan DSLs
#   loc        - print the module's non-test Go line count (perfbench/
#                and lint fixtures excluded)
#   clean      - remove generated results

GO ?= go

.PHONY: all build vet lint test test-short race bench results md5-quick md5-full fuzz loc clean

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants; see docs/lint.md for the analyzer list.
lint:
	$(GO) run ./cmd/ahqlint ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass; exercises the parallel experiment harness.
race:
	$(GO) test -race ./...

# One testing.B entry per paper table/figure plus the engine
# microbenchmarks; the run is summarised into the next free BENCH_<n>.json
# so successive runs accumulate a history instead of overwriting it.
bench:
	@n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	$(GO) test -run '^$$' -bench . -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_$$n.json && \
	echo "wrote BENCH_$$n.json"

# Regenerate every paper artifact at full horizons into results/.
results:
	mkdir -p results
	$(GO) run ./cmd/ahqbench -all -csv results/csv | tee results/full_run.txt

# The byte-identity contract: ahqbench stdout is a pure function of the
# seed, and these pins say which function. A change that moves a printed
# number must update the pin on purpose.
md5_check = got=$$($(GO) run ./cmd/ahqbench -all $(1) -parallel 1 2>/dev/null | md5sum | cut -d' ' -f1); \
	want=$$(cat $(2)); \
	if [ "$$got" != "$$want" ]; then echo "ahqbench -all $(1) stdout md5 $$got, want $$want ($(2))"; exit 1; fi; \
	echo "ahqbench -all $(1) stdout md5 $$got matches $(2)"

md5-quick:
	@$(call md5_check,-quick,results/quick.md5)

md5-full:
	@$(call md5_check,,results/full.md5)

fuzz:
	$(GO) test -fuzz FuzzPercentile -fuzztime 20s ./internal/metrics/
	$(GO) test -fuzz FuzzOrderStat -fuzztime 20s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFleet$$' -fuzztime 20s ./internal/faults/

# Non-test Go lines, a tracked size metric (ROADMAP.md north star).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path '*/testdata/*' | xargs cat | wc -l

clean:
	rm -rf results
