#!/usr/bin/env bash
# Tier-1 verification gate. Run from the repository root:
#
#   ./ci/check.sh
#
# Every step runs with --offline: the workspace has a strict
# zero-external-dependency policy (DESIGN §7), so a checkout with no
# network and no registry cache must build, test, and verify cleanly.
# A step that would touch the network is itself a policy violation.
#
# Plain `cargo test` owns every golden and the workspace analyzer: the
# test that reads a golden diffs it (tests/cli_goldens.rs the CLI's
# reports, trace and metrics, next to the CLI's reject contract;
# tests/fault_crash_recovery.rs the crash-recovery counters;
# crates/bench/tests/exp_goldens.rs tests/golden/exp/), and
# crates/analyze/tests/workspace_clean.rs fails on any flowtune-analyze
# finding. This script diffs no golden and runs no analyzer itself. It
# runs only what `cargo test` cannot: rustfmt, clippy and its
# planted-violation check, rustdoc, the optimized test run, the timed
# experiments' smoke runs, and perfbench.
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

echo "All checks passed."
