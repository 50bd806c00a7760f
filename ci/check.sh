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

echo "==> cargo doc --offline (broken intra-doc links are errors)"
# Links to private items stay warnings; a link that resolves to nothing
# (a deleted item, or a module compiled only under cfg(test)) fails.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc --offline --no-deps --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> scheduler and DAG suites with optimizations on"
# The skyline-vs-reference equivalence suites and the flat-adjacency
# DAG oracle run optimized too: the release build is what every run
# and benchmark ships, and its larger DAG cases finish quickly there.
cargo test -q --offline --release -p flowtune-sched -p flowtune-dataflow

echo "==> fault determinism suite"
cargo test -q --offline -p flowtune-cloud --test fault_determinism
cargo test -q --offline -p flowtune-core --test fault_recovery
cargo test -q --offline -p flowtune-core --test fault_crash_recovery

# All throwaway output from the smoke steps below lands in one scratch
# dir owned by a single cleanup handler. (Stacking per-step
# `trap ... EXIT` lines overwrites the previous handler and leaks the
# earlier dirs — keep every temp path inside $scratch instead.)
scratch="$(mktemp -d)"
# Cargo may rewrite perfbench/Cargo.lock when it builds the benchmark
# below; the copy saved here is put back on exit, so the committed
# lockfile never changes.
cp perfbench/Cargo.lock "$scratch/perfbench.Cargo.lock"
cleanup() {
  cp "$scratch/perfbench.Cargo.lock" perfbench/Cargo.lock
  rm -rf "$scratch"
}
trap cleanup EXIT

echo "==> exp_* --smoke reports (vs tests/golden/exp/)"
# Every deterministic experiment binary diffs byte-for-byte against its
# pinned smoke report; exp_fault_matrix is one of them. Two binaries are
# not in this loop: exp_table6_composite has its own golden step below,
# and exp_table6_speedups prints measured wall times, which differ on
# every run, so its step below checks only the speedup ordering.
# Regenerate one golden with
#   cargo run -q --offline --release -p flowtune-bench --bin exp_<name> -- \
#     --smoke > tests/golden/exp/<name>_smoke.txt
for golden in tests/golden/exp/*_smoke.txt; do
  name="$(basename "$golden" _smoke.txt)"
  cargo run -q --offline --release -p flowtune-bench --bin "exp_$name" -- \
    --smoke > "$scratch/exp_$name.txt"
  diff -u "$golden" "$scratch/exp_$name.txt"
done

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

echo "==> exp_table6_speedups --smoke (measured speedup ordering)"
# Wall times are not pinned. The binary exits non-zero unless the
# median of three measurements keeps lookup > small range > large
# range > 1 (EXPERIMENTS.md, Table 6); the table stays in the log.
cargo run -q --offline --release -p flowtune-bench --bin exp_table6_speedups -- --smoke

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

echo "==> index cost models calibrated from measured B+Tree I/O (vs golden)"
# --calibrate-io bulk-builds a calibration tree and probes it; the
# measured page traffic replaces the asserted build I/O in the gain
# model, so this report pins the tree's page accounting end to end.
cargo run -q --offline --release -p flowtune-core --bin flowtune -- \
  --calibrate-io --quanta 40 --seed 7 > "$scratch/calibrate_io.txt"
diff -u tests/golden/calibrate_io_smoke.txt "$scratch/calibrate_io.txt"

echo "==> flowtune rejects a bad config before announcing the run"
# ServiceConfig::validate must refuse each of these in parse_args: exit
# 1, an error line, no banner. The online interleaver has no
# load-balance form, and an estimation error must lie in [0, 1).
reject_config() {
  local status=0
  cargo run -q --offline --release -p flowtune-core --bin flowtune -- "$@" \
    > "$scratch/bad_config.out" 2> "$scratch/bad_config.err" || status=$?
  test "$status" -eq 1
  grep -q '^error:' "$scratch/bad_config.err"
  if grep -q '^running' "$scratch/bad_config.out" "$scratch/bad_config.err"; then
    echo "bad config was announced before it was rejected: $*" >&2
    exit 1
  fi
}
reject_config --scheduler online-lb --interleaver online --quanta 4
reject_config --error 1.5 --quanta 10 --seed 1 --concurrency 1

echo "==> perfbench builds and its tests pass"
# perfbench/ is a workspace of its own, so the root build and tests
# above never compile it. This catches a change that breaks the
# benchmark's build or its replay-vs-service RunReport fidelity test.
cargo test -q --offline --release --manifest-path perfbench/Cargo.toml

echo "==> perfbench peak memory stays under 16 MiB (gain_phases, faults_online)"
# Partition images are ledger records, not page bytes, so a smoke run
# of either index-building workload stays a few MiB resident. When the
# images were 4-KiB witness pages these runs peaked at 174 and 33 MiB;
# the ceiling fails on code that brings such a per-image buffer back.
for workload in gain_phases faults_online; do
  cargo run -q --offline --release --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --smoke --seconds 1 \
    > "$scratch/rss_$workload.json" 2> "$scratch/rss_$workload.err"
  rss="$(grep -o '"peak_rss_mb": {"value": [0-9.e+-]*' "$scratch/rss_$workload.json" \
    | grep -o '[0-9.e+-]*$')"
  echo "$workload peak_rss_mb $rss"
  awk -v rss="$rss" 'BEGIN { exit !(rss > 0 && rss <= 16) }' || {
    echo "$workload: peak_rss_mb $rss is above the 16 MiB ceiling (or unreadable)" >&2
    exit 1
  }
done

echo "==> flowtune-analyze (workspace invariants, JSON report vs baseline)"
# The machine-readable report gates the tree against the committed
# baseline: only findings absent from ANALYZE_baseline.json fail the
# run, so a deliberately accepted finding never blocks CI twice.
cargo run -q --offline -p flowtune-analyze -- \
  --format json --baseline ANALYZE_baseline.json > "$scratch/analyze.json"

echo "All checks passed."
