#!/usr/bin/env bash
# Performance harnesses. Default mode builds and runs the `kernels` bench
# binary, which sweeps the parallel tensor kernels over 1/2/4 worker
# threads plus serial seed-reference kernels, and writes
# BENCH_kernels.json at the repo root (atomic write; previous results are
# replaced). `--serve` instead runs the `loadgen` serving benchmark, which
# sweeps offered load against the concurrent TCP front end and writes
# BENCH_serve.json (throughput, p50/p99, degraded/rejected fractions).
#
# `--ingest` runs the `ingestbench` online-ingestion benchmark: a sweep
# of ingest batch size × state-snapshot cadence through a WAL-backed
# IngestSession, measuring per-batch latency (fsync + incremental encoder
# advance), quad throughput, WAL growth, and cold-restart recovery time,
# written to BENCH_ingest.json.
#
#   scripts/bench.sh                    kernel sweep, full shapes
#   scripts/bench.sh --kernels          same, spelled explicitly
#   scripts/bench.sh --kernels --out /tmp/fresh.json --regress BENCH_kernels.json
#                                       kernel sweep plus the regression
#                                       gate: fails if any threads=1 median
#                                       of matmul / decoder_score /
#                                       eval_rank_fanout regressed >25%
#                                       against the committed baseline
#   scripts/bench.sh --quick            kernel sweep, CI-sized
#   scripts/bench.sh --serve            serving load sweep, full size
#   scripts/bench.sh --serve --quick    serving load sweep, CI-sized
#   scripts/bench.sh --ingest           ingestion durability sweep
#   scripts/bench.sh --ingest --quick   ingestion sweep, CI-sized
#
# Extra arguments are passed through to the binary (e.g. --out FILE).
set -euo pipefail

cd "$(dirname "$0")/.."

bin=kernels
case "${1:-}" in
  --kernels)
    shift
    ;;
  --serve)
    bin=loadgen
    shift
    ;;
  --ingest)
    bin=ingestbench
    shift
    ;;
esac

cargo build --release --offline -p hisres-bench --bin "$bin"
"target/release/$bin" "$@"
