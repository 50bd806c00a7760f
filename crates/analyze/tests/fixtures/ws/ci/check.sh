#!/usr/bin/env bash
# Fixture check script for golden-coverage: one good reference, one
# dangling — for both the tests/golden/ files and the root BENCH_*.json
# perf baselines. The scratch-copy path must not count as a reference.
diff tests/golden/used.json tests/golden/used.json
cat tests/golden/missing.json
grep -q schema BENCH_used.json
grep -q schema BENCH_missing.json
cp BENCH_used.json "$scratch/BENCH_orphan.json"
