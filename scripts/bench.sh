#!/bin/sh
# bench.sh: run the hot-path benchmarks across every optimized layer — the
# scan engine (cold, cached, tiered, and obfuscated-with/without
# deobfuscation), the deobfuscation pass pipeline, the triage scorer, the
# embedding network, batched classification, path hashing and extraction,
# end-to-end detection, and the serving layer's batch
# endpoint — and record one timestamped run
# (with the git SHA) into BENCH_scan.json via cmd/benchcompare. Earlier
# runs are preserved, so `make bench-compare` can diff the newest run
# against the committed baseline.
set -eu

cd "$(dirname "$0")/.."

out=BENCH_scan.json
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "==> scan engine benchmarks"
go test -bench 'BenchmarkScan|BenchmarkContentHash' -benchmem -run '^$' \
    ./internal/scan/ | tee -a "$raw"

echo "==> deobfuscation pipeline benchmarks"
go test -bench 'BenchmarkDeobfuscate' -benchmem -run '^$' \
    ./internal/deobfuscate/ | tee -a "$raw"

echo "==> triage tier benchmarks"
go test -bench 'BenchmarkTriage' -benchmem -run '^$' \
    ./internal/triage/ | tee -a "$raw"

echo "==> embedding network benchmarks"
go test -bench 'BenchmarkEmbed|BenchmarkPredictProb|BenchmarkTrainStep' \
    -benchmem -run '^$' ./internal/ml/nn/ | tee -a "$raw"

echo "==> path extraction benchmarks"
go test -bench 'BenchmarkPathHash|BenchmarkExtract' -benchmem -run '^$' \
    ./internal/pathctx/ | tee -a "$raw"

echo "==> end-to-end detection benchmark"
go test -bench '^BenchmarkDetect$' -benchmem -run '^$' . | tee -a "$raw"

echo "==> core benchmarks (parallel fit, batched classification)"
go test -bench '^BenchmarkTrain$|^BenchmarkClassifyBatch$' -benchmem -run '^$' \
    ./internal/core/ | tee -a "$raw"

echo "==> scan service benchmarks"
go test -bench 'BenchmarkServeScanBatch' -benchmem -run '^$' \
    ./internal/serve/ | tee -a "$raw"

echo "==> recording run into $out"
go run ./cmd/benchcompare record -file "$out" < "$raw" > /dev/null

echo "==> wrote $out"
