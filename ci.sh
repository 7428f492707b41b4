#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc, and the tier-1 test suite.
#
#   ./ci.sh             # fmt + clippy + rustdoc + tests
#   ./ci.sh --bench     # ... plus one bench_throughput run that rewrites
#                       #     all three committed baselines:
#                       #     BENCH_throughput.json, BENCH_metrics.json
#                       #     and BENCH_audit.json
#   ./ci.sh --smoke     # ... plus a simulation-neutrality gate: the
#                       #     regenerated BENCH_throughput.json (cold-path
#                       #     sim digest, simulated reuse speedup, nnz)
#                       #     must match the committed file byte for byte
#   ./ci.sh --metrics   # ... plus a metrics gate: the regenerated
#                       #     canonical snapshot (sim counters and
#                       #     histograms) must match BENCH_metrics.json
#                       #     byte for byte
#   ./ci.sh --trace     # ... plus a tracing smoke gate: exports a Chrome
#                       #     trace twice (must be byte-identical), round-
#                       #     trips it through --profile-from, and diffs a
#                       #     trace against itself (all deltas zero)
#   ./ci.sh --audit     # ... plus a decision-audit gate: exports an audit
#                       #     report twice (must be byte-identical), diffs
#                       #     it against itself (zero regret delta), and
#                       #     the regenerated corpus decision statistics +
#                       #     gate accuracy must match BENCH_audit.json
#                       #     byte for byte
#
# Every committed baseline is deterministic and gated with cmp; host time
# is measured by the benchmark/ package, not here. The flags compose into
# ONE bench_throughput invocation (a full run takes minutes), so
# `--smoke --metrics --audit` checks all three baselines against the same
# run. The metrics table, volatile wall and pool gauges included, is
# always written to target/ci/metrics_table.txt for CI job summaries.
set -euo pipefail
cd "$(dirname "$0")"

BENCH_ROUNDS=3

# check_baseline FRESH COMMITTED: fails, naming the drifted lines, unless
# the regenerated FRESH file is byte-identical to the COMMITTED baseline.
# An intentional simulator/algorithm change re-records the baselines with
# ./ci.sh --bench and commits them.
check_baseline() {
    if cmp -s "$1" "$2"; then
        echo "baseline gate: $1 matches $2"
    else
        echo "FAIL: $1 drifted from the committed $2" \
            "(re-record with ./ci.sh --bench if intended):" >&2
        diff -u "$2" "$1" | head -n 40 >&2
        exit 1
    fi
}

run_bench=0
run_smoke=0
run_metrics=0
run_trace=0
run_audit=0
for arg in "$@"; do
    case "$arg" in
        --bench) run_bench=1 ;;
        --smoke) run_smoke=1 ;;
        --metrics) run_metrics=1 ;;
        --trace) run_trace=1 ;;
        --audit) run_audit=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

# Toolchain versions first: when a CI run fails, the log alone must answer
# "which compiler was this?".
echo "==> toolchain"
rustc -V
cargo -V

echo "==> cargo fmt --check"
if ! cargo fmt --version >/dev/null 2>&1; then
    echo "ERROR: 'cargo fmt' is unavailable — install the rustfmt component" >&2
    echo "       (rustup component add rustfmt)" >&2
    exit 3
fi
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
if ! cargo clippy --version >/dev/null 2>&1; then
    echo "ERROR: 'cargo clippy' is unavailable — install the clippy component" >&2
    echo "       (rustup component add clippy)" >&2
    exit 3
fi
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc is the only check that catches dangling intra-doc links. The
# offline shims in shims/* stand in for external crates and are left out.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline \
    -p speck-sparse -p speck-simt -p speck-core -p speck-baselines \
    -p speck-bench -p speck-repro

echo "==> cargo test (workspace, release)"
cargo test --workspace --release

# The benchmark is a package of its own (empty [workspace]), so the
# workspace build above never compiles it; build and test it here so a
# change to an API it uses fails CI.
echo "==> cargo test (benchmark package, release)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

if [ "$run_bench" -eq 1 ] || [ "$run_smoke" -eq 1 ] || [ "$run_metrics" -eq 1 ] \
    || [ "$run_audit" -eq 1 ]; then
    # One bench run serves every enabled gate. --bench writes the
    # committed baselines in place; otherwise fresh copies go to
    # target/ci and are compared below.
    mkdir -p target/ci
    if [ "$run_bench" -eq 1 ]; then
        fresh=.
    else
        fresh=target/ci
    fi
    bench_args=("$BENCH_ROUNDS" "$fresh/BENCH_throughput.json"
        --metrics-table target/ci/metrics_table.txt)
    if [ "$run_bench" -eq 1 ] || [ "$run_metrics" -eq 1 ]; then
        bench_args+=(--metrics-out "$fresh/BENCH_metrics.json")
    fi
    if [ "$run_bench" -eq 1 ] || [ "$run_audit" -eq 1 ]; then
        bench_args+=(--audit-out "$fresh/BENCH_audit.json")
    fi
    echo "==> bench_throughput -> $fresh/BENCH_*.json"
    cargo run --release -p speck-bench --bin bench_throughput -- "${bench_args[@]}"
    echo "metrics table: target/ci/metrics_table.txt"
    if [ "$run_bench" -eq 0 ]; then
        if [ "$run_smoke" -eq 1 ]; then
            check_baseline "$fresh/BENCH_throughput.json" BENCH_throughput.json
        fi
        if [ "$run_metrics" -eq 1 ]; then
            check_baseline "$fresh/BENCH_metrics.json" BENCH_metrics.json
        fi
        if [ "$run_audit" -eq 1 ]; then
            check_baseline "$fresh/BENCH_audit.json" BENCH_audit.json
        fi
    fi
fi

if [ "$run_trace" -eq 1 ]; then
    echo "==> tracing smoke gate (export determinism + profile round trip)"
    mkdir -p target/ci
    runspeck=(cargo run --release -p speck-bench --bin runspeck --)
    # Two exports of the same workload must be byte-identical.
    "${runspeck[@]}" --synthetic mesh3d 2 --iterations 1 --warmup 0 \
        --trace-out target/ci/trace.json --profile \
        >target/ci/trace_profile.txt
    "${runspeck[@]}" --synthetic mesh3d 2 --iterations 1 --warmup 0 \
        --trace-out target/ci/trace_repeat.json >/dev/null
    cmp target/ci/trace.json target/ci/trace_repeat.json \
        || { echo "FAIL: trace export is not deterministic" >&2; exit 1; }
    # Parse -> profile round trip on the exported file.
    "${runspeck[@]}" --profile-from target/ci/trace.json \
        >target/ci/trace_profile_from.txt
    # A trace diffed against itself must show a zero total delta.
    "${runspeck[@]}" --trace-diff target/ci/trace.json target/ci/trace.json \
        | tee target/ci/trace_selfdiff.txt
    grep -q "total delta: +0.000 us" target/ci/trace_selfdiff.txt \
        || { echo "FAIL: self-diff total delta is not zero" >&2; exit 1; }
    echo "trace artifacts: target/ci/trace.json, target/ci/trace_profile.txt"
fi

if [ "$run_audit" -eq 1 ]; then
    echo "==> decision-audit smoke gate (export determinism + self-diff)"
    mkdir -p target/ci
    runspeck=(cargo run --release -p speck-bench --bin runspeck --)
    # Two exports of the same workload must be byte-identical.
    "${runspeck[@]}" --synthetic mesh3d 2 --iterations 1 --warmup 0 \
        --audit-out target/ci/audit.json \
        --audit-table target/ci/audit_table.txt >/dev/null
    "${runspeck[@]}" --synthetic mesh3d 2 --iterations 1 --warmup 0 \
        --audit-out target/ci/audit_repeat.json >/dev/null
    cmp target/ci/audit.json target/ci/audit_repeat.json \
        || { echo "FAIL: audit export is not deterministic" >&2; exit 1; }
    # A report diffed against itself must show a zero regret delta.
    "${runspeck[@]}" --audit-diff target/ci/audit.json target/ci/audit.json \
        | tee target/ci/audit_selfdiff.txt
    grep -q "regret delta: +0.000 cycles" target/ci/audit_selfdiff.txt \
        || { echo "FAIL: self-diff regret delta is not zero" >&2; exit 1; }
    echo "audit artifacts: target/ci/audit.json, target/ci/audit_table.txt"
fi

echo "CI OK"
