#!/usr/bin/env sh
# Repo CI gate: build, test, lint, format, and a quick simulator bench smoke.
# Run from the repo root. Fails fast on the first broken step.
set -eu

# Every deterministic report a step below writes is compared byte for byte
# with its committed copy: the matrix smokes `cmp` the fresh 1-thread report
# against `results/ci_*.txt` before replacing it, and the lint and checksum
# reports are saved here first. Only `ci_par_sweep.txt` (wall-clock
# timings) is not gated.
committed=$(mktemp -d)
trap 'rm -rf "$committed"' EXIT

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> bench smoke (sim_engine, quick test mode)"
# Criterion's --test mode runs each bench once to confirm it executes,
# without the full sampling run.
cargo bench -p blueprint-bench --bench sim_engine -- --test

echo "==> bench smoke (event_queue: heap vs timing wheel)"
# Full numbers live in results/event_queue_bench.txt; this just proves both
# queue implementations still run under the hold-model workload.
cargo bench -p blueprint-bench --bench event_queue -- --test

echo "==> parallel-engine determinism (BLUEPRINT_THREADS=1 vs =4)"
# BLUEPRINT_THREADS sets only the number of cross-run par_run workers (each
# simulation runs on one sequential event loop). The same experiment suite
# must produce identical results whatever that count is; the test itself
# also pins the 1-vs-4 equality.
BLUEPRINT_THREADS=1 cargo test --release --test parallel_determinism -q
BLUEPRINT_THREADS=4 cargo test --release --test parallel_determinism -q

echo "==> parallel-engine wall-clock smoke (fig7 grid, 1 vs 4 threads)"
# --test mode times the quick grid at 1 and 4 worker threads only; the full
# 1/2/4/8 sweep is recorded in results/par_speedup.txt. Timings land in
# results/ci_par_sweep.txt for comparison across runs.
mkdir -p results
cargo bench -p blueprint-bench --bench par_sweep -- --test \
    | tee results/ci_par_sweep.txt

echo "==> fault-matrix smoke (2 cells, BLUEPRINT_THREADS=1 vs =4)"
# The resilience matrix must be byte-identical whatever the cross-run
# worker count;
# the binary itself panics on any conservation or amplification violation.
BLUEPRINT_THREADS=1 cargo run --release -p blueprint-bench --bin ablation_faults -- \
    --quick --smoke
cmp results/ci_fault_matrix.txt results/fault_matrix.txt
mv results/fault_matrix.txt results/ci_fault_matrix.txt
BLUEPRINT_THREADS=4 cargo run --release -p blueprint-bench --bin ablation_faults -- \
    --quick --smoke
cmp results/ci_fault_matrix.txt results/fault_matrix.txt
mv results/fault_matrix.txt results/ci_fault_matrix.txt

echo "==> overload-protection smoke (BLUEPRINT_THREADS=1 vs =4)"
# The miniature Type-1 metastability case with and without a retry budget:
# the binary panics on any conservation violation or a budget arm breaking
# the 1 + ratio amplification bound, and the report must be byte-identical
# whatever the cross-run worker count.
BLUEPRINT_THREADS=1 cargo run --release -p blueprint-bench --bin ablation_overload -- \
    --smoke
cmp results/ci_overload.txt results/overload_matrix.txt
mv results/overload_matrix.txt results/ci_overload.txt
BLUEPRINT_THREADS=4 cargo run --release -p blueprint-bench --bin ablation_overload -- \
    --smoke
cmp results/ci_overload.txt results/overload_matrix.txt
mv results/overload_matrix.txt results/ci_overload.txt

echo "==> reconfig smoke (BLUEPRINT_THREADS=1 vs =4)"
# Rolling deploys, the deterministic autoscaler, and canary rollouts under a
# flash crowd: the binary panics on any conservation violation, on a drained
# deploy showing unavailability, or on the autoscaler arm failing to absorb
# the ramp the fixed-replica arm does not. The report must be byte-identical
# whatever the cross-run worker count.
BLUEPRINT_THREADS=1 cargo run --release -p blueprint-bench --bin ablation_reconfig -- \
    --smoke
cmp results/ci_reconfig.txt results/reconfig_matrix.txt
mv results/reconfig_matrix.txt results/ci_reconfig.txt
BLUEPRINT_THREADS=4 cargo run --release -p blueprint-bench --bin ablation_reconfig -- \
    --smoke
cmp results/ci_reconfig.txt results/reconfig_matrix.txt
mv results/reconfig_matrix.txt results/ci_reconfig.txt

echo "==> consistency smoke (BLUEPRINT_THREADS=1 vs =4)"
# Consistency arms (read-replica / quorum / session) x disturbance scenarios
# through the anomaly oracle: the binary panics on any conservation
# violation, on quorum w=2 showing any anomaly, on session breaking
# read-your-writes, or on the crash scenario failing to lose writes under
# async replication. The report must be byte-identical whatever the
# cross-run worker count.
BLUEPRINT_THREADS=1 cargo run --release -p blueprint-bench --bin ablation_consistency -- \
    --smoke
cmp results/ci_consistency.txt results/consistency_matrix.txt
mv results/consistency_matrix.txt results/ci_consistency.txt
BLUEPRINT_THREADS=4 cargo run --release -p blueprint-bench --bin ablation_consistency -- \
    --smoke
cmp results/ci_consistency.txt results/consistency_matrix.txt
mv results/consistency_matrix.txt results/ci_consistency.txt

echo "==> lint gate (every app's default wiring must be deny-clean)"
# Runs the static-analysis passes over the five benchmark apps and writes
# per-app counts to results/ci_lint.txt; exits nonzero on any deny-severity
# diagnostic or when the counts differ from the committed copy.
cp results/ci_lint.txt "$committed/"
cargo run --release -p blueprint-bench --bin lint_gate
cmp "$committed/ci_lint.txt" results/ci_lint.txt

echo "==> lint cross-validation smoke (BLUEPRINT_THREADS=1 vs =4)"
# The static hazard predictions must bracket the dynamic fault-matrix
# outcomes (the binary panics otherwise), and the report must be
# byte-identical whatever the cross-run worker count.
BLUEPRINT_THREADS=1 cargo run --release -p blueprint-bench --bin lint_validation -- \
    --smoke
cmp results/ci_lint_validation.txt results/lint_validation.txt
mv results/lint_validation.txt results/ci_lint_validation.txt
BLUEPRINT_THREADS=4 cargo run --release -p blueprint-bench --bin lint_validation -- \
    --smoke
cmp results/ci_lint_validation.txt results/lint_validation.txt
mv results/lint_validation.txt results/ci_lint_validation.txt

echo "==> capacity cross-validation smoke (BLUEPRINT_THREADS=1 vs =4)"
# The analytic BP013-BP015 capacity bracket must contain each app's simulated
# saturation knee (the binary panics otherwise), and the report must be
# byte-identical whatever the cross-run worker count.
BLUEPRINT_THREADS=1 cargo run --release -p blueprint-bench --bin capacity_validation -- \
    --smoke
cmp results/ci_capacity.txt results/capacity_validation.txt
mv results/capacity_validation.txt results/ci_capacity.txt
BLUEPRINT_THREADS=4 cargo run --release -p blueprint-bench --bin capacity_validation -- \
    --smoke
cmp results/ci_capacity.txt results/capacity_validation.txt
mv results/capacity_validation.txt results/ci_capacity.txt

echo "==> completion-stream identity check"
# With no fault plan and no reconfig plan the completion stream must be
# bit-identical to the per-entity-RNG seed: pin the historical checksum, not
# just a self-match. This is also the empty-ReconfigPlan zero-cost gate —
# reconfiguration support must schedule no events and draw no RNG when the
# plan is empty, or this pin moves.
# (The pin moved once, 73897de1072914b2 -> 1bc85aa9969bffcf, when RNG draws
# moved from one global stream to derive_seed-keyed per-entity streams.)
cp results/ci_stream_checksum.txt "$committed/"
cargo run --release --example stream_checksum | tee results/ci_stream_checksum.txt
grep -q "checksum=1bc85aa9969bffcf" results/ci_stream_checksum.txt
cmp "$committed/ci_stream_checksum.txt" results/ci_stream_checksum.txt

echo "CI OK"
