# darksim — reproduction of "New Trends in Dark Silicon" (DAC 2015)

GO ?= go

.PHONY: all check build vet perfbench-check lint test test-short test-shuffle race bench bench-report bench-compare bench-smoke profile-smoke fuzz-smoke jobs-smoke policy-smoke cli-smoke cover verify golden experiments ablations serve clean

all: check

# check is the tier-1 gate: build, vet, the nested perfbench module's vet
# and tests, tests (also in shuffled order, to catch inter-test state
# leaks; they include the root dead-code guards, TestNoOrphanInternalPackages
# and TestNoUnreferencedDecls, which fail on an internal package no
# non-test package imports and on an internal declaration no non-test
# code references), the race detector over the parallel sweep paths, a short smoke
# run of every fuzz target, a one-shot run of the thermal-solve and
# influence-build benchmarks so a broken bench path fails the gate, the
# async-runtime smoke (a real shortened fig12 submitted as a run,
# streamed point by point, compared against the synchronous endpoint,
# plus the run journal's restart and fault-injection tests under -race),
# the policy-sandbox smoke (head-to-head race with the unsafe negative
# control caught, under the race detector), and the CLI smoke (the
# README toolflow through the built darksim binary). Each smoke's exit
# status is go test's own, so a failing smoke test fails the gate.
check: build vet perfbench-check test test-shuffle race fuzz-smoke bench-smoke jobs-smoke policy-smoke cli-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench/ is a nested module (replace darksim => ../), so the root
# module's build, vet and tests never compile it: an internal API change
# that breaks the benchmark harness would go unseen. Vet and test it
# offline (GOPROXY=off; GOFLAGS= drops any inherited -mod flag).
perfbench-check:
	cd perfbench && GOPROXY=off GOFLAGS= $(GO) vet ./... && GOPROXY=off GOFLAGS= $(GO) test ./...

test:
	$(GO) test ./...

# Skips the long transient co-simulations.
test-short:
	$(GO) test -short ./...

# Shuffled test order flushes out hidden ordering dependencies between
# tests (e.g. shared platform-cache state).
test-shuffle:
	$(GO) test -shuffle=on ./...

# Data-race detection across every package, including the runner-based
# parallel sweeps (fig11–fig13, influence matrix, darksim all).
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The perf-trajectory harness: per-figure + thermal-solver
# benchmarks, written as one JSON report for cross-PR comparison. The
# default output is derived from the current commit so a casual
# `make bench-report` can never silently overwrite a committed
# BENCH_PR*.json trajectory file; pass BENCH_OUT=BENCH_PR7.json
# explicitly when publishing a new baseline.
BENCH_OUT ?= bench-$(shell git rev-parse --short HEAD 2>/dev/null || echo dev).json
bench-report:
	$(GO) run ./cmd/darksim bench -out $(BENCH_OUT)

# The CI regression gate: rerun the headline benchmarks — solver,
# influence, TSP, the exact transient step kernel, and the per-figure
# transients (figure/fig11–13 are headline entries now, so the figure
# sweeps must run) — and fail on >25% slowdown against the committed
# baseline. Headlines the baseline predates are listed, not gated.
BENCH_BASELINE ?= BENCH_PR6.json
bench-compare:
	$(GO) run ./cmd/darksim bench -compare $(BENCH_BASELINE)

# One iteration of the thermal-solve and cold influence-build
# benchmarks keeps both bench paths compiling and running under the
# tier-1 gate without paying full benchmark time, and the warm-influence
# assertion proves the cross-request cache serves repeat platforms with
# zero linear solves.
bench-smoke:
	$(GO) test -bench='ThermalSolve|InfluenceMatrix' -benchtime=1x -run='^$$' ./internal/thermal
	$(GO) test -run='TestInfluenceWarmPathZeroSolves' -count=1 ./internal/thermal

# The profiling smoke: run the micro-benchmark harness once with the
# -cpuprofile/-memprofile flags and require both profiles to be
# non-empty, so the "start the next perf PR from a profile" path can
# never rot unnoticed. The profiles land under /tmp; point pprof at
# them with `go tool pprof /tmp/darksim-cpu.pprof`.
profile-smoke:
	$(GO) run ./cmd/darksim bench -figures=false \
		-cpuprofile /tmp/darksim-cpu.pprof -memprofile /tmp/darksim-mem.pprof
	test -s /tmp/darksim-cpu.pprof
	test -s /tmp/darksim-mem.pprof


# The jobs-runtime smoke: submit a shortened fig12 through POST /v1/runs,
# consume its SSE stream (one partial table per sweep point), and require
# the terminal result to be byte-identical to the synchronous endpoint on
# an independent server. Exercises the whole async path end to end. Then
# run the run journal's restart (torn tail, restart twice) and fault
# (write error mid-run, full disk) tests under the race detector.
jobs-smoke:
	$(GO) test -run='TestRunFig12MatchesSync' -count=1 ./internal/service
	$(GO) test -race -run='TestFileStore|TestJournal|TestRunSubmitOnFullDisk' -count=1 ./internal/jobs ./internal/service

# The policy-sandbox smoke: race the default trio head-to-head on a pack
# scenario with assertion-checked traces, require the unsafe boost
# variant to be caught with its violating step named, and run the
# sandbox's concurrent/cancellation paths under the race detector.
policy-smoke:
	$(GO) test -race -run='TestExecute|TestExecuteUnsafeCaught|TestRunAllConcurrent|TestRunAllCancel' -count=1 ./internal/policy

# The CLI smoke: build darksim once and drive the README toolflow
# through the real binary — a floorplan, a .ptrace written from its unit
# names, a transient thermal run, the TSP table as JSON — and require
# exit status 1 for bad input (-cores 0, a NaN core area), which only a
# real process exit shows.
cli-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/darksim" ./cmd/darksim; \
	"$$dir/darksim" floorplan -node 16 -cores 4 > "$$dir/c.flp"; \
	awk '!/^#/ && NF {n[++k] = $$1} END {for (r = 0; r <= 10; r++) for (i = 1; i <= k; i++) printf "%s%s", (r ? "2.0" : n[i]), (i < k ? "\t" : "\n")}' "$$dir/c.flp" > "$$dir/run.ptrace"; \
	"$$dir/darksim" thermal -flp "$$dir/c.flp" -ptrace "$$dir/run.ptrace" -transient > "$$dir/thermal.out"; \
	grep -q '^t=0.010000' "$$dir/thermal.out"; grep -q '^# final temperatures$$' "$$dir/thermal.out"; \
	"$$dir/darksim" -format json tsp -node 16 -cores 4 > "$$dir/tsp.json"; \
	grep -q '"title": "Worst-case TSP, 16nm, 4 cores, Tcrit = 80.0 °C"' "$$dir/tsp.json"; \
	for bad in "tsp -cores 0" "floorplan -cols 2 -rows 2 -area NaN"; do \
		code=0; "$$dir/darksim" $$bad > /dev/null 2>&1 || code=$$?; \
		if [ $$code -ne 1 ]; then echo "cli-smoke: darksim $$bad exited $$code, want 1"; exit 1; fi; \
	done; \
	echo "cli-smoke: ok"

# Short runs of the native fuzz targets ("go test -fuzz" takes exactly
# one target per invocation); full fuzzing uses longer -fuzztime.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz=FuzzVoltageForFrequency -fuzztime=$(FUZZTIME) -run='^$$' ./internal/vf
	$(GO) test -fuzz=FuzzTableCSV -fuzztime=$(FUZZTIME) -run='^$$' ./internal/report
	$(GO) test -fuzz=FuzzServiceParams -fuzztime=$(FUZZTIME) -run='^$$' ./internal/service
	$(GO) test -fuzz=FuzzCSRMulVec -fuzztime=$(FUZZTIME) -run='^$$' ./internal/linalg
	$(GO) test -fuzz=FuzzEnvelopeSolve -fuzztime=$(FUZZTIME) -run='^$$' ./internal/linalg
	$(GO) test -fuzz=FuzzScenarioSpec -fuzztime=$(FUZZTIME) -run='^$$' ./internal/scenario
	$(GO) test -fuzz=FuzzPolicyTrace -fuzztime=$(FUZZTIME) -run='^$$' ./internal/policy

# Statement-coverage floors for the verification surface. The assertion
# engine (internal/verify) and the policy sandbox (internal/policy) are
# what the rest of the gate leans on — a gap there is a gap in every
# check built on top — so their coverage may not regress below 80%.
COVER_FLOOR ?= 80.0
cover:
	@fail=0; for pkg in ./internal/policy ./internal/verify; do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: $$pkg: no coverage reported (test failure?)"; fail=1; continue; fi; \
		echo "cover: $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
		if awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit (p+0 >= f+0) ? 0 : 1 }'; then :; else \
			echo "cover: $$pkg is below the $(COVER_FLOOR)% floor"; fail=1; fi; \
	done; exit $$fail

# Static analysis beyond vet. staticcheck is optional locally (CI
# installs a pinned version); when absent, lint degrades to vet alone
# rather than requiring a toolchain download.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only"; \
	fi

# The golden-corpus verification gate: recompute every figure and check
# it against the embedded corpus, the paper's physics invariants and the
# differential renderings, then run the repeat/raced/shuffled test modes
# that catch state leaking through a process-wide cache (the platform,
# influence and result caches are all one runner.Cache type) or between
# runs of the run journal's tests.
verify:
	$(GO) vet ./...
	$(GO) run ./cmd/darksim verify
	$(GO) test -race -shuffle=on ./...
	$(GO) test -count=2 ./internal/experiments ./internal/service ./internal/thermal ./internal/runner ./internal/jobs

# Regenerate the golden corpus after an intentional model change.
golden:
	$(GO) run ./cmd/darksim verify -update

# Regenerate every table/figure of the paper (full durations).
experiments:
	$(GO) run ./cmd/darksim all

ablations:
	$(GO) run ./cmd/darksim ablations

# Run the darksimd HTTP daemon on :8080 (see README for the endpoints).
serve:
	$(GO) run ./cmd/darksimd

clean:
	$(GO) clean ./...
