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

echo "==> cargo doc --offline (every rustdoc warning is an error)"
# A link that resolves to nothing (a deleted item, or a module compiled
# only under cfg(test)) fails, and so does public documentation that
# links to a private item: the rendered docs would carry a dead link.
RUSTDOCFLAGS="-D warnings" \
  cargo doc --offline --no-deps --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> scheduler, DAG, simulator, cache and experiment suites with optimizations on"
# The skyline-vs-reference equivalence suites (the online interleaver's
# offer pass against the reference's in-search offers among them), the
# online interleaver's plain-skyline equality test, the flat-adjacency DAG
# oracle, the simulator's pinned report digests, the LRU
# reference-model test and the experiment smoke goldens run optimized
# too: the release build is what every run and benchmark ships, and its
# larger DAG cases finish quickly there. crates/bench/tests/exp_goldens.rs
# diffs every deterministic experiment's smoke report against
# tests/golden/exp/<name>_smoke.txt. Regenerate one golden with
#   cargo run -q --offline --release -p flowtune-bench --bin flowtune-exp -- \
#     <name> --smoke > tests/golden/exp/<name>_smoke.txt
cargo test -q --offline --release -p flowtune-sched -p flowtune-interleave \
  -p flowtune-dataflow -p flowtune-cloud -p flowtune-storage -p flowtune-bench

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

echo "==> clippy fails on a planted violation of every token-level ban"
# Panics in library code, wall clocks, env lookups, hash-ordered
# collections, `#[allow]` and stale `#[expect]` waivers are clippy lints
# (root Cargo.toml, clippy.toml), which the clippy step above enforces.
# Here a copy of the workspace gets one of each appended to a core
# library file, and clippy must fail naming every one: dropping a lint
# from the workspace table or an entry from clippy.toml fails this step.
# The copy is taken now from this tree, and CLIPPY_CONF_DIR points
# clippy at this tree's clippy.toml, so neither is a maintained copy.
planted="$scratch/planted"
mkdir -p "$planted"
tar -c --exclude=./.git --exclude=./target --exclude=./perfbench/target --exclude=./clippy.toml . \
  | tar -x -C "$planted"
cat >> "$planted/crates/sched/src/lib.rs" <<'PLANTED'

#[allow(dead_code)]
pub fn planted_allow() {}

#[expect(clippy::unwrap_used, reason = "planted: nothing here unwraps")]
pub fn planted_stale_expect() {}

pub fn planted(v: Option<u64>, r: Result<u64, ()>) -> u64 {
    let clock = std::time::Instant::now();
    let wall = std::time::SystemTime::now();
    let host = std::env::var("PLANTED").is_ok();
    let map: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let set: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let hasher = std::hash::RandomState::new();
    if host {
        panic!("planted");
    }
    let _ = (clock, wall, map, set, hasher);
    v.unwrap() + r.expect("planted")
}
PLANTED
planted_status=0
CLIPPY_CONF_DIR="$PWD" CARGO_TARGET_DIR="$scratch/planted-target" \
  cargo clippy -q --offline --manifest-path "$planted/Cargo.toml" -p flowtune-sched \
  -- -D warnings > "$scratch/planted.out" 2>&1 || planted_status=$?
if [ "$planted_status" -eq 0 ]; then
  echo "clippy passed a library file full of planted violations" >&2
  exit 1
fi
for want in \
  'used `unwrap()` on an `Option` value' \
  'used `expect()` on a `Result` value' \
  '`panic` should not be present in production code' \
  'use of a disallowed type `std::time::Instant`' \
  'use of a disallowed type `std::time::SystemTime`' \
  'use of a disallowed type `std::collections::HashMap`' \
  'use of a disallowed type `std::collections::HashSet`' \
  'use of a disallowed type `std::hash::RandomState`' \
  'use of a disallowed method `std::env::var`' \
  '#[allow] attribute found' \
  '`allow` attribute without specifying a reason' \
  'this lint expectation is unfulfilled'; do
  if ! grep -qF -- "$want" "$scratch/planted.out"; then
    cat "$scratch/planted.out" >&2
    echo "planted violation not reported by clippy: $want" >&2
    exit 1
  fi
done

echo "==> flowtune-exp smoke runs of the timed experiments"
# The registry entries that print wall times and have no smoke golden:
# Table 6 exits non-zero unless the measured speedups keep lookup >
# small range > large range > 1 (EXPERIMENTS.md, Table 6); the two perf
# baselines run the optimized-vs-reference harness end to end, equivalence
# re-checks included. A smoke run writes no file, so the committed
# BENCH_*.json must come out of the loop unchanged.
baselines_before="$(cksum BENCH_*.json)"
for name in table6_speedups bench_sched bench_interleave; do
  cargo run -q --offline --release -p flowtune-bench --bin flowtune-exp -- "$name" --smoke
done
if [ "$(cksum BENCH_*.json)" != "$baselines_before" ]; then
  echo "a smoke run wrote into the committed BENCH_*.json" >&2
  exit 1
fi

echo "==> flowtune-exp has no --out flag"
# The full bench runs write BENCH_*.json into the working directory;
# there is no flag to point them elsewhere, so a typo cannot either.
out_status=0
cargo run -q --offline --release -p flowtune-bench --bin flowtune-exp -- \
  bench_sched --out x 2> "$scratch/out_flag.err" || out_status=$?
test "$out_status" -eq 2
grep -q 'unknown flag' "$scratch/out_flag.err"

echo "==> observability golden trace (smoke)"
cargo run -q --offline --release -p flowtune-core --bin flowtune -- \
  --quanta 4 --seed 1 --concurrency 1 \
  --trace-out "$scratch/trace.jsonl" --metrics-out "$scratch/metrics.json" \
  > /dev/null
diff -u tests/golden/trace_smoke.jsonl "$scratch/trace.jsonl"
diff -u tests/golden/metrics_smoke.json "$scratch/metrics.json"

echo "==> online interleaver report under faults (vs golden)"
# The smoke trace above plans with the LP interleaver; this pins the
# online interleaver (build ops offered along each finished skyline
# schedule, step by step) end to end. The report is deterministic, so it diffs
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
# load-balance form, an estimation error must lie in [0, 1), a zero
# horizon would run as nothing, and online interleaving under No Index
# would run as plain No Index (the policy builds nothing).
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
reject_config --quanta 0
reject_config --policy no-index --interleaver online --quanta 4

echo "==> perfbench builds and its tests pass"
# perfbench/ is a workspace of its own, so the root build and tests
# above never compile it. This catches a change that breaks the
# benchmark's build or its replay-vs-service RunReport fidelity test.
cargo test -q --offline --release --manifest-path perfbench/Cargo.toml

echo "==> perfbench smoke runs are correct and stay under 16 MiB"
# Each workload's smoke run must end with a `"correct": true` line.
# Partition images are ledger records, not page bytes, so a smoke run
# stays a few MiB resident. When the images were 4-KiB witness pages
# the two index-building runs peaked at 174 and 33 MiB; the ceiling
# fails on code that brings such a per-image buffer back.
for workload in gain_phases noindex_phases faults_online; do
  cargo run -q --offline --release --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --smoke --seconds 1 \
    > "$scratch/rss_$workload.json" 2> "$scratch/rss_$workload.err"
  case "$(tail -n 1 "$scratch/rss_$workload.json")" in
    '{"correct": true,'*) ;;
    *)
      echo "$workload: the smoke run's last line is not \"correct\": true" >&2
      exit 1
      ;;
  esac
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
