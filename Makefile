.PHONY: build test check fuzz bench bench-compare bench-rebaseline

build:
	go build ./...

test:
	go test ./...

# The full verification gate: go vet, a gofmt gate, the doc-coverage gate
# (scripts/doccheck.sh — no undocumented exports in core/scan/serve/par),
# a clean build, the full test suite, a race-detector pass, and a
# `jsrevealer serve` smoke test against /healthz and /metrics (see
# scripts/check.sh for scope).
check:
	sh scripts/check.sh

# Hot-path benchmarks across scan/nn/pathctx/detect plus the parallel
# training fit; each run is recorded (with git SHA and timestamp) into
# BENCH_scan.json alongside earlier runs.
bench:
	sh scripts/bench.sh

# Diff the newest recorded benchmark run against the recorded baseline;
# fails when any shared benchmark regresses allocs/op by more than 10%.
bench-compare:
	go run ./cmd/benchcompare compare -file BENCH_scan.json

# Promote the newest recorded run to the comparison baseline. Run this after
# an intentional perf-profile change (or to discard a noisy first run) so
# bench-compare gates against the new steady state.
bench-rebaseline:
	go run ./cmd/benchcompare rebaseline -file BENCH_scan.json

# Bounded fuzzing budgets for the robustness targets.
fuzz:
	go test -fuzz=FuzzLex -fuzztime=30s ./internal/js/lexer/
	go test -fuzz=FuzzParse -fuzztime=30s ./internal/js/parser/
	go test -fuzz=FuzzDetect -fuzztime=30s ./internal/scan/
	go test -fuzz=FuzzTriage -fuzztime=30s ./internal/triage/
	go test -fuzz=FuzzDeobfuscate -fuzztime=30s ./internal/deobfuscate/
	go test -fuzz=FuzzDecodeRecord -fuzztime=30s ./internal/queue/
	go test -fuzz=FuzzReplaySegment -fuzztime=30s ./internal/queue/
