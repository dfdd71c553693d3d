# Local targets mirror .github/workflows/ci.yml exactly: `make ci` runs
# what CI runs (modulo the Actions-only staticcheck install and artifact
# upload).

GO ?= go

.PHONY: build test fuzz flake quickstart simd smoke scenario-smoke sweep-smoke sweep-chaos race bench bench-update bench-go cover lint linkcheck fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fuzz mirrors the CI fuzz steps: fuzzed lane seeds (extreme words
# included) on 1-8 gang lanes must match each lane's one-lane compiled
# run, fuzzed listener graphs on the event kernel must match the seed
# reference kernel, fuzzed MiniJ source must parse, analyze and
# compile to an error or a design, never a panic, fuzzed datapath
# XML must get the seed validator's verdict, byte for byte, every
# fuzzed datapath the validator accepts must resolve into a plan that
# both engines build or reject together, never with a panic, and that
# both run to the same value on every slot at every edge, fuzzed FSM
# XML must decode, validate and resolve into a table or an error, and
# a fuzzed sharded-sweep request body must decode, load and locate its
# shard to an error or a campaign. Every step minimizes a new input for
# at most 2 runs: at the default -fuzzminimizetime, runs with an empty
# fuzz cache spent much of their 20 s minimizing new inputs, several
# ending at 0 execs/s, and 2x ran 1.7-4.1x the execs. The checked-in
# corpora (internal/flow/,
# internal/hades/testdata/fuzz/, internal/compiler/testdata/fuzz/ and
# internal/xmlspec/testdata/fuzz/) also run as part of `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzGangLaneMatchesSingleLane$$' -fuzztime 20s -fuzzminimizetime 2x ./internal/flow/
	$(GO) test -run '^$$' -fuzz '^FuzzKernelMatchesSeedReference$$' -fuzztime 20s -fuzzminimizetime 2x ./internal/hades/
	$(GO) test -run '^$$' -fuzz '^FuzzFrontEnd$$' -fuzztime 20s -fuzzminimizetime 2x ./internal/compiler/
	$(GO) test -run '^$$' -fuzz '^FuzzValidateDatapath$$' -fuzztime 20s -fuzzminimizetime 2x ./internal/xmlspec/
	$(GO) test -run '^$$' -fuzz '^FuzzPlanBuildsOnBothEngines$$' -fuzztime 20s -fuzzminimizetime 2x ./internal/xmlspec/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFSM$$' -fuzztime 20s -fuzzminimizetime 2x ./internal/xmlspec/
	$(GO) test -run '^$$' -fuzz '^FuzzSweepRequest$$' -fuzztime 20s -fuzzminimizetime 2x ./internal/sweep/

# flake mirrors the CI flake step: the timing- and scheduling-sensitive
# tests, 20 runs each, so a new flake shows before it lands. The chaos
# matrix runs as a whole test because its requeue check spans all four
# slot counts.
flake:
	$(GO) test -count=20 -cpu 1,4 -run '^TestChaosMatrixFleet$$' ./internal/sweep/
	$(GO) test -count=20 -run '^TestTableIShape$$' .
	$(GO) test -count=20 -run '^TestCompiledGangBeatsSequential$$' ./internal/bench/

# quickstart builds and runs the documented public-API entry point
# (examples/quickstart on the root repro package), so the README's
# first program can never silently rot.
quickstart:
	$(GO) run ./examples/quickstart

# simd builds the simulation server; `make simd && ./bin/simd` serves
# on :8047 (see docs/SERVER.md).
simd:
	mkdir -p bin
	$(GO) build -o bin/simd ./cmd/simd

# smoke drives a freshly built simd server over HTTP: a verify and a
# pooled 4-round verify via curl, /statsz shape, SIGTERM drain. Mirrors
# the CI smoke job.
smoke:
	sh scripts/simd_smoke.sh

# scenario-smoke mirrors the CI scenario step: record a fault-injection
# campaign, replay the trace bit-identically (same backend and across
# backends), then counterfactually swap the backend — which must
# preserve every verdict and digest (docs/SCENARIOS.md).
scenario-smoke:
	@tmp=$$(mktemp) && \
	$(GO) run ./cmd/testsuite -scenario examples/scenarios/erasure-recover.json -trace $$tmp && \
	$(GO) run ./cmd/testsuite -replay $$tmp && \
	$(GO) run ./cmd/testsuite -replay $$tmp -backend compiled && \
	$(GO) run ./cmd/testsuite -replay $$tmp -counterfactual backend=compiled; \
	rc=$$?; rm -f $$tmp; exit $$rc

# sweep-smoke mirrors the CI sweep step: run a sharded campaign across
# subprocess workers with a kill injected mid-shard, resume it, and
# diff the merged file against a single-shard reference — it must be
# byte-identical and replay bit-identically (docs/SWEEP.md).
sweep-smoke:
	sh scripts/sweep_smoke.sh

# sweep-chaos runs the dispatch-layer chaos matrix under -race: fleets
# with flaky (fail-N-then-succeed), slow (injected latency) and
# blackholed (accept-then-hang) endpoints must route around the
# faults, hedge the stragglers, and still merge byte-identical
# campaigns (docs/SWEEP.md "Scheduling & fault tolerance").
sweep-chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaosMatrixFleet|TestRouteAroundDeadEndpoint|TestFallbackWhenFleetQuarantined|TestSlowEndpointStillMerges|TestRemoteErrorClassification|TestFleetRoutesAroundDeadRemote' \
		./internal/sweep/ ./internal/simd/

race:
	$(GO) test -race ./internal/core/... ./internal/hades/... \
		./internal/cycle/... ./internal/rtg/... ./internal/flow/... \
		./internal/simd/... ./internal/sweep/...

# bench runs the pinned benchmark scenarios once per registered
# simulator backend, writes BENCH_<name>.json files to
# bench-out/<backend>/, and fails on a >25% events/sec drop or a >25%
# allocs/event rise versus that backend's checked-in baseline
# (bench/baseline/<backend>/).
bench:
	for b in $$($(GO) run ./cmd/bench -list-backends | awk '{print $$1}'); do \
		mkdir -p bench-out/$$b; \
		$(GO) run ./cmd/bench -backend $$b -scenarios pinned -reps 3 \
			-out bench-out/$$b -baseline bench/baseline/$$b -threshold 0.25 || exit 1; \
	done

# bench-update refreshes every backend's checked-in baseline on this machine.
bench-update:
	for b in $$($(GO) run ./cmd/bench -list-backends | awk '{print $$1}'); do \
		$(GO) run ./cmd/bench -backend $$b -scenarios pinned -reps 3 \
			-baseline bench/baseline/$$b -update-baseline || exit 1; \
	done

# bench-go runs the go-test benchmarks (Table I rows, kernel two-level
# vs seed reference) once each.
bench-go:
	$(GO) test -run XXX -bench . -benchtime 1x .
	$(GO) test -run XXX -bench 'BenchmarkKernel' -benchtime 0.2s ./internal/hades/

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# lint always vets and checks the markdown links (README + docs/);
# staticcheck (the SA bug analyses plus ST1000 package comments, as in
# CI) runs when the binary is installed —
# `go install honnef.co/go/tools/cmd/staticcheck@2024.1.1`.
lint: vet linkcheck
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks 'SA*,ST1000' ./...; \
	else \
		echo "staticcheck not installed; ran go vet + linkcheck only"; \
	fi

linkcheck:
	$(GO) test -run TestMarkdownLinks .

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

ci: build vet fmt-check lint test fuzz flake quickstart smoke scenario-smoke sweep-smoke sweep-chaos race cover bench
