#!/usr/bin/env bash
# CI gate for the spatial-cdb workspace. Run from anywhere; offline-safe.
#
# Usage: ./ci.sh [--quick] [--bench] [--bench-quick] [--bench-compare <baseline.json>]
#   --quick        skip the heavy statistical acceptance gates (chi-square
#                  uniformity and (eps, delta) volume tests in
#                  tests/statistical.rs) for fast local iteration. The full
#                  gates are mandatory in CI.
#   --bench        additionally run the perf report (walk throughput plus the
#                  paper-claim rows E1-E12), which rewrites BENCH_walk.json
#                  (see the README performance and experiments sections).
#   --bench-quick  run ONLY the perf-report smoke and exit: a tiny time
#                  budget per workload (CDB_BENCH_QUICK=1), writing to
#                  target/BENCH_walk_quick.json. Times are meaningless; it
#                  proves every constraint-kernel dispatch path
#                  (axis/sparse/dense/oracle) and every paper-claim row
#                  executes (claim qualities are seeded, so they are the
#                  recorded ones even here). The same smoke also
#                  runs on every default CI pass; --bench replaces it with
#                  the real measurement.
#   --bench-compare <baseline.json>
#                  perf-regression gate: run the REAL perf report (rewrites
#                  BENCH_walk.json), then `bench_diff` it against the given
#                  baseline — any shared row more than 15% slower fails CI.
#
# Every default pass additionally validates the quick smoke report against
# the committed BENCH_walk.json for row coverage only (every kernel row, all
# three e7 walk rows — warm/cold rejection twins plus the stratified
# selector — the warm/cold prepared-store twins e_shared_subrelations{,_cold},
# the fifty paper-claim rows e1_* ... e12_* and the two degenerate_* rounding
# rows must still exist), so neither
# dispatch coverage nor an experiment can silently drop out; a smoke row with
# a non-finite or non-positive time, or a non-finite quality, fails it too.
# End-to-end traffic (throughput and latency per query class, in process
# and over HTTP) is the perfbench package's; the perfbench, recon and warm
# stages build it and check its answers. A per-stage wall-clock summary is
# printed at the end so slow-stage creep shows up in CI logs.
#
# Every test binary runs once per pass unless a later run changes what it
# tests: the workspace run covers the unit, property, determinism and
# sampler suites; the stages after it rerun only what the workspace run
# shrinks through the environment (prepared_store and server at full size,
# the full statistical gates) and the resilience suite, which runs five
# times to shake out interleavings.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

QUICK=0
BENCH=0
BENCH_QUICK=0
BENCH_COMPARE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --bench) BENCH=1 ;;
    --bench-quick) BENCH_QUICK=1 ;;
    --bench-compare)
      [ $# -ge 2 ] || { echo "--bench-compare needs a baseline file" >&2; exit 2; }
      BENCH_COMPARE="$2"
      shift
      ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

# --- per-stage wall-clock accounting -----------------------------------------
STAGE_SUMMARY=""
STAGE_NAME=""
STAGE_T0=0
stage_begin() {
  STAGE_NAME="$1"
  STAGE_T0=$SECONDS
}
stage_end() {
  local elapsed=$((SECONDS - STAGE_T0))
  STAGE_SUMMARY="${STAGE_SUMMARY:+$STAGE_SUMMARY | }${STAGE_NAME} ${elapsed}s"
}
print_stage_summary() {
  echo "==> stage timing: ${STAGE_SUMMARY:-none}"
}

# The perf smoke: tiny time budget, output kept out of the repo root so the
# recorded BENCH_walk.json is never clobbered with throwaway numbers.
bench_smoke() {
  echo "==> perf smoke (tiny budget, target/BENCH_walk_quick.json)"
  CDB_BENCH_QUICK=1 CDB_BENCH_OUT=target/BENCH_walk_quick.json \
    cargo run --release -p cdb-bench --bin perf_report >/dev/null
}

bench_diff() {
  cargo run --release -p cdb-bench --bin bench_diff -- "$@"
}

if [ "$BENCH_QUICK" = "1" ]; then
  stage_begin smoke
  bench_smoke
  stage_end
  print_stage_summary
  echo "==> perf smoke green"
  exit 0
fi

if [ "$QUICK" = "1" ]; then
  # tests/statistical.rs self-skips its heavy gates when this is set.
  export CDB_STAT_QUICK=1
  echo "==> quick mode: heavy statistical gates are skipped"
fi

stage_begin build
echo "==> cargo build --release"
cargo build --release --workspace --all-targets
stage_end

stage_begin test
echo "==> cargo test -q (workspace: unit + property + integration + doc tests)"
# The heavy statistical gates are skipped inside the workspace run (they are
# root-package integration tests, so they would execute here too) and run
# explicitly below instead, so their cost is paid exactly once per CI pass.
# The server loopback suite and the prepared-store stress likewise run
# shrunk here and at full size in their own stages. Everything else — the
# stratified alias and projection-cache suites, the canonicalization
# properties, the cdb-server crate's own tests and the batch determinism
# suite — runs here only.
CDB_STAT_QUICK=1 CDB_SERVER_QUICK=1 cargo test -q --workspace
stage_end

stage_begin prepared
echo "==> prepared-relation store stress at full size"
# The workspace run above shrinks it (tests/prepared_store.rs reads
# CDB_STAT_QUICK); outside quick mode this is its only full-size run.
cargo test -q --test prepared_store
stage_end

stage_begin resilience
echo "==> resilience suite (budgets, cancellation, fault injection, panic containment)"
# Quick mode runs the same faults against smaller batches and fewer thread
# counts (tests/resilience.rs reads CDB_RESILIENCE_QUICK). The suite runs five
# times under the default parallel test runner: fault plans are scoped to
# their database, so no interleaving of the tests may fail them.
for run in 1 2 3 4 5; do
  if [ "$QUICK" = "1" ]; then
    CDB_RESILIENCE_QUICK=1 cargo test -q --test resilience
  else
    cargo test -q --test resilience
  fi
done
stage_end

stage_begin server
echo "==> cdb-server stage (loopback smoke: every endpoint, error→status table, seeded reproducibility)"
# The suite starts real servers on 127.0.0.1:0 and drives them over HTTP:
# every endpoint end-to-end, the complete SpatialDbError→status mapping
# (including malformed JSON / oversized body / unknown route), byte-for-byte
# seeded reproducibility, concurrent clients, and graceful shutdown. Quick
# mode shrinks the concurrency sweep (tests/server.rs reads
# CDB_SERVER_QUICK); the workspace run already ran it shrunk.
if [ "$QUICK" = "1" ]; then
  CDB_SERVER_QUICK=1 cargo test -q --test server
else
  cargo test -q --test server
fi
stage_end

stage_begin perfbench
echo "==> perfbench (release build against the workspace crates + self-tests)"
# The benchmark is a package of its own that builds against the workspace's
# public APIs by path: building it here turns an API it uses that went
# missing into a CI failure rather than a failed benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml
stage_end

stage_begin recon
echo "==> reconstruction smoke (perfbench recon_2d: every answer checked against Fourier-Motzkin)"
# A one-second recon_2d run hulls 2-D samples of 3-D/4-D bodies through the
# whole engine; the stage fails unless every answer's symmetric difference
# from the symbolic answer stays within eps. Reconstruction pieces are
# prepared into the store on first touch, so two seeds run: each orders the
# ops differently and so interleaves cold and warm pieces differently.
for seed in 1 2; do
  RECON_LINE=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload recon_2d --seed "$seed" --seconds 1 --trace 0 | tail -n 1)
  echo "seed $seed: $RECON_LINE"
  case "$RECON_LINE" in
    *'"correct": true'*) ;;
    *) echo "recon_2d smoke (seed $seed): an answer missed the exact result" >&2; exit 1 ;;
  esac
done
stage_end

stage_begin warm
echo "==> warm-path smoke (perfbench warm_inproc + http_warm: attach, inline batches, compiled j(x))"
# One second of each warm workload through the whole engine. warm_inproc
# checks every answer against its closed form; http_warm also replays every
# answer in process and requires it bit for bit, so a change to attach,
# batch scheduling or the j(x) test that moved a single result bit fails
# here.
for workload in warm_inproc http_warm; do
  WARM_LINE=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  echo "$workload: $WARM_LINE"
  case "$WARM_LINE" in
    *'"correct": true'*) ;;
    *) echo "$workload smoke: an answer was wrong or not reproduced bit for bit" >&2; exit 1 ;;
  esac
done
stage_end

if [ "$QUICK" != "1" ]; then
  stage_begin statistical
  echo "==> statistical acceptance suite (chi-square uniformity + (eps, delta) volume gates)"
  env -u CDB_STAT_QUICK cargo test -q --test statistical
  stage_end
fi

if [ -n "$BENCH_COMPARE" ]; then
  stage_begin bench
  # Snapshot the baseline first: the natural invocation is
  # `--bench-compare BENCH_walk.json` (the committed baseline), and the
  # perf report is about to rewrite that very file — diffing against the
  # live file would compare the fresh report with itself.
  mkdir -p target
  cp "$BENCH_COMPARE" target/bench_compare_baseline.json
  echo "==> perf report (rewrites BENCH_walk.json)"
  cargo run --release -p cdb-bench --bin perf_report
  echo "==> bench_diff against $BENCH_COMPARE (tolerance 15%)"
  bench_diff target/bench_compare_baseline.json BENCH_walk.json
  stage_end
elif [ "$BENCH" = "1" ]; then
  stage_begin bench
  echo "==> perf report (rewrites BENCH_walk.json)"
  cargo run --release -p cdb-bench --bin perf_report
  stage_end
else
  # Every CI pass exercises all kernel-dispatch paths and every paper-claim
  # row, cheaply, and proves the smoke report still covers every recorded
  # workload row.
  stage_begin smoke
  bench_smoke
  echo "==> bench_diff row coverage (target/BENCH_walk_quick.json vs BENCH_walk.json)"
  bench_diff BENCH_walk.json target/BENCH_walk_quick.json --coverage-only
  stage_end
fi

stage_begin fmt
echo "==> cargo fmt --check"
cargo fmt --all -- --check
stage_end

stage_begin doc
echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
stage_end

print_stage_summary
echo "==> CI green"
