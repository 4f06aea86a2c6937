#!/usr/bin/env sh
# Repo CI gate: build, test, lint, format, docs, the Tab. 5 set-up smoke, the
# exhibit gate, and the benchmark smoke.
# Run from the repo root. Fails fast on the first broken step.
set -eu

# Every deterministic report a step below writes is compared byte for byte
# with its committed copy, saved here first, so a green run leaves the tree
# clean.
committed=$(mktemp -d)
trap 'rm -rf "$committed"' EXIT

echo "==> cargo build --workspace --release --locked"
# --locked here and on the benchmark smoke freezes the crate graph: a change
# that adds or drops a crate or a dependency edge fails instead of silently
# rewriting a committed Cargo.lock (the benchmark's own lock lists every
# workspace crate and its edges).
cargo build --workspace --release --locked

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
# Catches doc links left dangling when an item is renamed or deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> Tab. 5 set-up scaling (one rep at 1,441 to 11,528 services)"
# Compiles and boots the synthetic Alibaba topology at up to four times the
# paper's 2,882 instances, timing each set-up phase; it fails if any phase
# fails at any scale.
cargo run --release --example setup_phases -- 1

echo "==> parallel-engine determinism (BLUEPRINT_THREADS=1 vs =4)"
# BLUEPRINT_THREADS sets only the number of cross-run par_run workers (each
# simulation runs on one sequential event loop). The same experiment suite
# must produce identical results whatever that count is; the test itself
# also pins the 1-vs-4 equality.
BLUEPRINT_THREADS=1 cargo test --release --test parallel_determinism -q
BLUEPRINT_THREADS=4 cargo test --release --test parallel_determinism -q

echo "==> lint gate (every app's default wiring must be deny-clean)"
# Runs the static-analysis passes over the five benchmark apps and writes
# per-app counts to results/ci_lint.txt; exits nonzero on any deny-severity
# diagnostic or when the counts differ from the committed copy.
cp results/ci_lint.txt "$committed/"
cargo run --release -p blueprint-bench --bin lint_gate
cmp "$committed/ci_lint.txt" results/ci_lint.txt

# The exhibit gate: every table, figure and matrix binary writes its own
# results/ report, which must be byte-identical to the committed copy at
# BLUEPRINT_THREADS=1 and =4 (the variable only sets cross-run workers). A
# ci_* report comes from a CI-sized --smoke run; any other report is the
# full-length exhibit, for the exhibits whose full run takes a few seconds at
# most: Tabs. 1-5 and Figs. 8 and 9, and the fault, reconfig, consistency and
# lint-validation matrices, which are gated at both sizes (one entry each).
# The matrix and cross-validation binaries also panic when one of their
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
set -- \
    table1_loc:table1_loc.txt \
    table2_backends:table2_backends.txt \
    table3_instantiations:table3_instantiations.txt \
    table4_plugins:table4_plugins.txt \
    table5_gentime:table5_gentime.txt \
    fig5_rpc_exploration:ci_fig5.txt \
    "fig6_metastability:ci_fig6_type1.txt ci_fig6_type2.txt ci_fig6_type3.txt ci_fig6_type4.txt" \
    fig7_vulnerability:ci_fig7.txt \
    fig8_inconsistency:fig8.txt \
    fig9_sifter:fig9.txt \
    fig10_circuit_breaker:ci_fig10.txt \
    fig11_realism:ci_fig11.txt \
    fig12_cache_interface:ci_fig12.txt \
    ablation_resilience:ci_resilience.txt \
    ablation_faults:ci_fault_matrix.txt \
    ablation_faults:fault_matrix.txt \
    ablation_overload:ci_overload.txt \
    ablation_reconfig:ci_reconfig.txt \
    ablation_reconfig:reconfig_matrix.txt \
    ablation_consistency:ci_consistency.txt \
    ablation_consistency:consistency_matrix.txt \
    lint_validation:ci_lint_validation.txt \
    lint_validation:lint_validation.txt \
    capacity_validation:ci_capacity.txt
# Every exhibit binary (all of crates/bench/src/bin but the lint_gate tool)
# must have an entry above, so a new binary cannot skip the gate.
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    [ "$bin" = lint_gate ] && continue
    gated=no
    for gate in "$@"; do
        [ "${gate%%:*}" = "$bin" ] && gated=yes
    done
    [ "$gated" = yes ] || { echo "exhibit binary $bin is missing from the exhibit gate"; exit 1; }
done
for gate in "$@"; do
    bin=${gate%%:*}
    reports=${gate#*:}
    case $reports in
        ci_*) size=--smoke ;;
        *) size= ;;
    esac
    for report in $reports; do
        cp "results/$report" "$committed/"
    done
    for threads in 1 4; do
        echo "==> $bin ${size:-full} (BLUEPRINT_THREADS=$threads)"
        BLUEPRINT_THREADS=$threads cargo run --release -q -p blueprint-bench --bin "$bin" \
            -- $size >/dev/null
        for report in $reports; do
            cmp "$committed/$report" "results/$report"
        done
    done
done

echo "==> completion-stream identity check"
# With no fault plan and no reconfig plan the completion stream, run through
# the experiment driver, must be bit-identical to the per-entity-RNG seed:
# pin the historical checksum, not just a self-match. This is also the
# empty-ReconfigPlan gate — reconfiguration state must push no events and
# draw no RNG when the plan is empty, or this pin moves.
# (The pin moved once, 73897de1072914b2 -> 1bc85aa9969bffcf, when RNG draws
# moved from one global stream to derive_seed-keyed per-entity streams.)
cp results/ci_stream_checksum.txt "$committed/"
cargo run --release --example stream_checksum | tee results/ci_stream_checksum.txt
grep -q "checksum=1bc85aa9969bffcf" results/ci_stream_checksum.txt
cmp "$committed/ci_stream_checksum.txt" results/ci_stream_checksum.txt

echo "==> benchmark unit tests"
# examples/benchmark is its own package, outside the workspace, so the
# workspace test step above does not reach its tests.
cargo test --release --offline --locked --manifest-path examples/benchmark/Cargo.toml -q

echo "==> benchmark smoke (one round, four pinned completion streams)"
# One interleaved round of every workload in examples/benchmark (its own
# package and target dir). The binary exits nonzero on any failed
# correctness check; the greps pin each workload's completion-stream digest.
# social-failover is the one stream where control events (partition, crash,
# failover, rolling restart) meet host events at equal times, so it pins the
# (time, seq) order between them.
bench="$committed/benchmark.txt"
if ! cargo run --release --offline --locked --manifest-path examples/benchmark/Cargo.toml \
    -- --rounds 1 >"$bench" 2>&1; then
    cat "$bench"
    exit 1
fi
grep "^benchmark: .* digest " "$bench"
for digest in 1bc85aa9969bffcf 91c9633ec4be4750 9151f92df6589720 2c89fdc513530f4b; do
    grep -q "digest $digest" "$bench" || { echo "digest $digest missing"; exit 1; }
done

echo "==> benchmark delta against the last BENCH_sim.json record (informational)"
# Prints each workload's one-round host-normalised median next to the last
# record's `change` median. One round is too noisy to gate on (quartile
# spreads of several percent between rounds), so this step never fails.
if command -v jq >/dev/null 2>&1; then
    grep '^{"correct"' "$bench" | jq -r --slurpfile ledger BENCH_sim.json '
        ($ledger[0].records[-1].end_to_end.workloads // {}) as $last
        | .workloads[] | .name as $w
        | ("sim_req_per_s", "req_host_us_p50") as $m
        | .metrics[$m].median as $now
        | ($last[$w][$m].change.median // null) as $ref
        | "\($w) \($m): \($now * 100 | round / 100) \(.metrics[$m].unit)"
          + if $ref then
                ", last record \($ref) ("
                + "\(($now - $ref) / $ref * 1000 | round / 10 | if . > 0 then "+\(.)" else "\(.)" end)%)"
            else ", no recorded median" end
    ' || echo "benchmark delta: could not read the report or BENCH_sim.json"
else
    echo "benchmark delta: jq not found, skipped"
fi

echo "CI OK"
