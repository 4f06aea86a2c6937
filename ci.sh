#!/usr/bin/env sh
# Repo CI gate: build, test, lint, format, and a quick simulator bench smoke.
# Run from the repo root. Fails fast on the first broken step.
set -eu

# Every deterministic report a step below writes is compared byte for byte
# with its committed copy, saved here first. The wall-clock par_sweep
# timings are not gated and land here too, so a green run leaves the tree
# clean.
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
# 1/2/4/8 sweep is recorded in results/par_speedup.txt.
cargo bench -p blueprint-bench --bench par_sweep -- --test \
    | tee "$committed/par_sweep.txt"

echo "==> lint gate (every app's default wiring must be deny-clean)"
# Runs the static-analysis passes over the five benchmark apps and writes
# per-app counts to results/ci_lint.txt; exits nonzero on any deny-severity
# diagnostic or when the counts differ from the committed copy.
cp results/ci_lint.txt "$committed/"
cargo run --release -p blueprint-bench --bin lint_gate
cmp "$committed/ci_lint.txt" results/ci_lint.txt

# The matrix and cross-validation smokes. Each binary panics when one of its
# invariants breaks:
# - ablation_faults: conservation, or the breaker arm failing to suppress
#   retry amplification;
# - ablation_overload: conservation, or a retry-budget arm breaking its
#   1 + ratio amplification bound (miniature Type-1 metastability);
# - ablation_reconfig: conservation, a drained deploy showing
#   unavailability, or the autoscaler failing to absorb the flash crowd;
# - ablation_consistency: conservation, quorum w=2 showing any anomaly,
#   session breaking read-your-writes, or async replication not losing
#   writes on a primary crash;
# - lint_validation: the static hazard predictions not bracketing the
#   dynamic fault-matrix outcomes;
# - capacity_validation: the analytic BP013-BP015 capacity bracket missing
#   an app's simulated saturation knee.
# Under --smoke each writes its committed results/ci_*.txt report, which
# must be byte-identical whatever the cross-run worker count.
for smoke in \
    ablation_faults:ci_fault_matrix.txt \
    ablation_overload:ci_overload.txt \
    ablation_reconfig:ci_reconfig.txt \
    ablation_consistency:ci_consistency.txt \
    lint_validation:ci_lint_validation.txt \
    capacity_validation:ci_capacity.txt; do
    bin=${smoke%%:*}
    report=${smoke#*:}
    cp "results/$report" "$committed/"
    for threads in 1 4; do
        echo "==> $bin smoke (BLUEPRINT_THREADS=$threads)"
        BLUEPRINT_THREADS=$threads cargo run --release -p blueprint-bench --bin "$bin" -- --smoke
        cmp "$committed/$report" "results/$report"
    done
done

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
