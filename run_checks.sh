#!/bin/bash
# Repository health gate: formatting, lints, and the full test suite.
# Used standalone and as the preflight for run_experiments.sh.
set -u
cd "$(dirname "$0")"

fail=0
step() {
  name=$1; shift
  echo "=== check: $name ==="
  if ! "$@"; then
    echo "FAILED: $name"
    fail=1
  fi
}

step fmt    cargo fmt --all --check
step clippy cargo clippy --workspace --all-targets -- -D warnings
step tests  cargo test -q --workspace
# The paper-scale benchmark is a cargo workspace of its own, so the
# workspace test run above never builds it; it imports the library API.
step paperbench cargo test -q --offline --manifest-path paperbench/Cargo.toml
# Workspace lint pass: builds the interprocedural call graph and exits
# non-zero when library code regresses against AUDIT_baseline.json
# (panic reachability from declared entry points, inferred hot-set
# allocations, float determinism, total-order floats, CSR encapsulation,
# # Errors docs). Reports: target/audit/AUDIT_report.json and
# target/audit/CALLGRAPH.json.
step audit  cargo run -q -p roadpart-audit
# Concurrency model checking of the snapshot store under --cfg loom (own
# target dir so the flag does not invalidate the main build cache).
step loom   env RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo test -q -p roadpart-stream --test loom_snapshot
# Thread-pool join/panic-propagation model checking (same loom setup).
step loom-pool env RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo test -q -p roadpart-linalg --test loom_pool
# Parallel-kernel determinism: the differential suite re-runs with a
# multi-thread default pool, so every kernel also proves bit-identity when
# ROADPART_THREADS (not an explicit pool) selects the parallelism.
step parallel-diff env ROADPART_THREADS=4 \
  cargo test -q -p roadpart --test integration_parallel
# Online-engine gate: the warm-start path must build and produce
# target/experiments/BENCH_stream.json (cold vs warm replay comparison).
step stream-bench cargo run -q --release -p roadpart-bench --bin stream_bench -- --runs 3
step stream-json  test -s target/experiments/BENCH_stream.json
# Parallel-kernel gate: the bench must run and report zero bit diffs and
# zero pipeline label diffs in target/experiments/BENCH_kernels.json.
step kernels-bench cargo run -q --release -p roadpart-bench --bin kernels_bench -- --scale 0.08 --runs 2
step kernels-json  test -s target/experiments/BENCH_kernels.json
step kernels-deterministic sh -c \
  "grep -q '\"all_bit_identical\": true' target/experiments/BENCH_kernels.json && \
   grep -q '\"pipeline_label_diffs\": 0' target/experiments/BENCH_kernels.json"
# SIMD gate: the scalar-vs-lanes differential tests (lane kernels vs their
# canonical scalar reduction models, map_entries vs triplet rebuild) plus
# the bench's own zero-bit-diff assertion over every scalar/lanes kernel
# pair.
step kernels-simd sh -c \
  "cargo test -q -p roadpart-linalg --test proptests && \
   cargo test -q -p roadpart-linalg --lib -- vecops:: && \
   grep -q '\"simd_all_bit_identical\": true' target/experiments/BENCH_kernels.json"
# Hot-path perf gate: the end-to-end pipeline bench on the smallest size
# rung with its internal validity checks (finite timings, successful
# baseline + optimized runs under both schemes); exit code is the gate.
step perf-smoke cargo run -q --release -p roadpart-bench --bin pipeline_bench -- --smoke
# Self-healing gate: fault-injection replay suite (corrupt feeds,
# blockades, solver faults, blown deadlines) plus the drift bench smoke
# run, whose internal validity checks (replays complete, metrics finite,
# disruptions detected) gate the exit code.
step disruption-replay cargo test -q -p roadpart-stream --test integration_disruption
step drift-smoke cargo run -q --release -p roadpart-bench --bin drift_bench -- --smoke
step drift-json  test -s target/experiments/BENCH_drift.json
# Serving-layer gates: the differential suite pins partition-aware routes
# cost-exact against a whole-network Dijkstra; the loom suite model-checks
# the oracle/epoch swap; the bench smoke run validity-gates qps/latency
# stats and the live-swap throughput into BENCH_serve.json.
step serve-diff cargo test -q -p roadpart-serve --test integration_serve
step serve-loom env RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
  cargo test -q -p roadpart-serve --test loom_oracle
step serve-smoke cargo run -q --release -p roadpart-bench --bin serve_bench -- --smoke
step serve-json  test -s target/experiments/BENCH_serve.json

if [ "$fail" -ne 0 ]; then
  echo CHECKS_FAILED
  exit 1
fi
echo ALL_CHECKS_PASSED
