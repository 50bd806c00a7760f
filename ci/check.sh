#!/usr/bin/env bash
# Tier-1 verification gate. Run from the repository root:
#
#   ./ci/check.sh
#
# Every step runs with --offline: the workspace has a strict
# zero-external-dependency policy (DESIGN §7), so a checkout with no
# network and no registry cache must build, test, and verify cleanly.
# A step that would touch the network is itself a policy violation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo clippy --offline --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> scheduler and DAG suites with optimizations on"
# The equivalence suites force the threaded expand path
# (expand_threshold: 1); run them optimized too, where the pool's
# timing differs most from the debug build. The flat-adjacency DAG
# oracle runs optimized as well.
cargo test -q --offline --release -p flowtune-sched -p flowtune-dataflow

echo "==> fault determinism suite"
cargo test -q --offline -p flowtune-cloud --test fault_determinism
cargo test -q --offline -p flowtune-core --test fault_recovery
cargo test -q --offline -p flowtune-core --test fault_crash_recovery

echo "==> exp_fault_matrix --smoke"
cargo run -q --offline --release -p flowtune-bench --bin exp_fault_matrix -- --smoke

# All throwaway output from the smoke steps below lands in one scratch
# dir owned by a single cleanup handler. (Stacking per-step
# `trap ... EXIT` lines overwrites the previous handler and leaks the
# earlier dirs — keep every temp path inside $scratch instead.)
scratch="$(mktemp -d)"
cleanup() { rm -rf "$scratch"; }
trap cleanup EXIT

echo "==> bench_sched --smoke (scheduler perf baseline harness)"
# Smoke-sized run into the scratch dir: verifies the optimized-vs-
# reference harness end to end (exit nonzero on any benchmark error)
# without touching the committed full-run BENCH_sched.json baseline.
cargo run -q --offline --release -p flowtune-bench --bin bench_sched -- \
  --smoke --out "$scratch/BENCH_sched.json"
test -s "$scratch/BENCH_sched.json"

echo "==> bench_interleave --smoke (interleaver perf baseline harness)"
cargo run -q --offline --release -p flowtune-bench --bin bench_interleave -- \
  --smoke --out "$scratch/BENCH_interleave.json"
test -s "$scratch/BENCH_interleave.json"

echo "==> committed perf baselines match the harness schemas"
# The smoke runs above just wrote fresh documents; their schema lines
# must agree with the committed full-run baselines, so a harness schema
# bump cannot land without regenerating BENCH_sched.json and
# BENCH_interleave.json (the speedup bars over the committed files live
# in crates/bench/tests/bench_baselines.rs, under plain `cargo test`).
diff <(grep '"schema"' "$scratch/BENCH_sched.json") \
     <(grep '"schema"' BENCH_sched.json)
diff <(grep '"schema"' "$scratch/BENCH_interleave.json") \
     <(grep '"schema"' BENCH_interleave.json)

echo "==> exp_table6_composite --smoke (composite speedup matrix vs golden)"
# The smoke report is fully deterministic (modelled costs and
# touched-row counts, no wall times), so it diffs byte-for-byte.
cargo run -q --offline --release -p flowtune-bench --bin exp_table6_composite -- \
  --smoke > "$scratch/table6_composite.txt"
diff -u tests/golden/table6_composite_smoke.txt "$scratch/table6_composite.txt"

echo "==> observability golden trace (smoke)"
cargo run -q --offline --release -p flowtune-core --bin flowtune -- \
  --quanta 4 --seed 1 --concurrency 1 \
  --trace-out "$scratch/trace.jsonl" --metrics-out "$scratch/metrics.json" \
  > /dev/null
diff -u tests/golden/trace_smoke.jsonl "$scratch/trace.jsonl"
diff -u tests/golden/metrics_smoke.json "$scratch/metrics.json"

echo "==> online interleaver report under faults (vs golden)"
# The smoke trace above plans with the LP interleaver; this pins the
# online interleaver (which reruns the skyline search with optional
# build ops) end to end. The report is deterministic, so it diffs
# byte-for-byte.
cargo run -q --offline --release -p flowtune-core --bin flowtune -- \
  --interleaver online --fault-rate 0.3 --crash-share 0.3 --torn-share 0.3 \
  --recovery-policy retry-gain-penalty --quanta 24 --seed 1 --concurrency 1 \
  > "$scratch/report_online_faults.txt"
diff -u tests/golden/report_online_faults.txt "$scratch/report_online_faults.txt"

echo "==> flowtune rejects a bad config before announcing the run"
# The online interleaver has no load-balance form; ServiceConfig::validate
# must refuse the pair in parse_args: exit 1, an error line, no banner.
status=0
cargo run -q --offline --release -p flowtune-core --bin flowtune -- \
  --scheduler online-lb --interleaver online --quanta 4 \
  > /dev/null 2> "$scratch/bad_config.err" || status=$?
test "$status" -eq 1
grep -q '^error:' "$scratch/bad_config.err"
if grep -q '^running' "$scratch/bad_config.err"; then
  echo "bad config was announced before it was rejected" >&2
  exit 1
fi

echo "==> flowtune-analyze (workspace invariants, JSON report vs baseline)"
# The machine-readable report gates the tree against the committed
# baseline: only findings absent from ANALYZE_baseline.json fail the
# run, so a deliberately accepted finding never blocks CI twice.
cargo run -q --offline -p flowtune-analyze -- \
  --format json --baseline ANALYZE_baseline.json > "$scratch/analyze.json"

echo "All checks passed."
