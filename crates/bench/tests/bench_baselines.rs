//! Regression bars over the committed perf baselines.
//!
//! `BENCH_sched.json` and `BENCH_interleave.json` at the repository
//! root are full runs of `flowtune-exp bench_sched` / `bench_interleave`
//! (regen commands in `EXPERIMENTS.md`). These tests parse the
//! committed files and enforce the DESIGN §5f/§5i speedup bars, so a
//! committed baseline that regresses below a bar — or a file whose
//! `schema` differs from its module's `SCHEMA` — fails plain
//! `cargo test`. The bars are set well
//! below measured medians (e.g. 2x vs a measured ~76–138x headline) so
//! container timer noise between regen runs cannot trip them.
//!
//! The smoke runs in `ci/check.sh` exercise the harness itself; only
//! the committed full-mode files carry bars. The root holds exactly the
//! two baselines the harnesses write, and no flag can point a full run
//! at any other file.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "helpers outside #[test] fns fail fast on a broken fixture"
)]

use flowtune_analyze::json::{parse, Json};
use flowtune_bench::exp::{bench_interleave, bench_sched};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/bench has a grandparent")
        .to_path_buf()
}

fn load(name: &str) -> Json {
    let path = workspace_root().join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"))
}

fn as_num(v: &Json) -> Option<f64> {
    match v {
        Json::Int(n) => Some(*n as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// The `speedup` field of the comparison row with this name.
fn speedup(doc: &Json, name: &str) -> f64 {
    let comps = doc
        .get("comparisons")
        .and_then(Json::as_arr)
        .expect("comparisons array");
    let row = comps
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("no comparison row named `{name}`"));
    as_num(row.get("speedup").expect("speedup field")).expect("numeric speedup")
}

fn assert_full_mode(doc: &Json, file: &str, schema: &str) {
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(schema),
        "{file}: schema differs from the harness's SCHEMA; regenerate it"
    );
    assert_eq!(
        doc.get("mode").and_then(Json::as_str),
        Some("full"),
        "{file}: committed baseline must be a full-mode run, not smoke"
    );
    assert!(
        !doc.get("benchmarks")
            .and_then(Json::as_arr)
            .expect("benchmarks array")
            .is_empty(),
        "{file}: empty benchmarks array"
    );
}

#[test]
fn sched_baseline_meets_speedup_bars() {
    let doc = load("BENCH_sched.json");
    assert_full_mode(&doc, "BENCH_sched.json", bench_sched::SCHEMA);
    // DESIGN §5f acceptance bar: >= 2x on every 100-op headline row.
    for app in ["Montage", "Ligo", "Cybershake"] {
        let s = speedup(&doc, &format!("schedule/{app}"));
        assert!(s >= 2.0, "schedule/{app} speedup {s:.2}x below the 2x bar");
    }
    // DESIGN §5i scale row: the incremental search must beat the
    // reference by an order of magnitude at 1k ops (measured ~450x).
    let s = speedup(&doc, "scale/montage/1000");
    assert!(
        s >= 10.0,
        "scale/montage/1000 speedup {s:.2}x below the 10x bar"
    );
}

#[test]
fn sched_baseline_carries_the_scale_grid() {
    let doc = load("BENCH_sched.json");
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .expect("benchmarks array");
    let names: Vec<&str> = benches
        .iter()
        .filter_map(|b| b.get("name").and_then(Json::as_str))
        .collect();
    // The optimized-only 5k/10k rows (no reference at that scale) must
    // stay in the committed baseline alongside the 1k comparison row.
    for want in [
        "sched/scale/montage/1000",
        "reference/scale/montage/1000",
        "sched/scale/montage/5000",
        "sched/scale/montage/10000",
    ] {
        assert!(names.contains(&want), "missing scale row `{want}`");
    }
}

#[test]
fn interleave_baseline_meets_speedup_bars() {
    let doc = load("BENCH_interleave.json");
    assert_full_mode(&doc, "BENCH_interleave.json", bench_interleave::SCHEMA);
    // DESIGN §5i bars: the run cut must collapse the equal-density
    // adversary by at least 5x (measured ~650–940x: 20 nodes against
    // the reference's 140,997 at n=18) and the service-shaped runs of
    // identical build ops by at least 50x (measured ~780–900x: 29–31
    // nodes against 119,339–140,997). The random/correlated/pack rows
    // are honesty rows, not bars — timer noise on a shared container
    // swings them either side of 1.0x.
    let s = speedup(&doc, "solve/equal_density/n18");
    assert!(
        s >= 5.0,
        "solve/equal_density/n18 speedup {s:.2}x below the 5x bar"
    );
    let s = speedup(&doc, "solve/partition_runs/n18");
    assert!(
        s >= 50.0,
        "solve/partition_runs/n18 speedup {s:.2}x below the 50x bar"
    );
    // The never-engaging rows must still be present (they pin that the
    // optimized solver does not regress tiny searches catastrophically:
    // an honest 0.5x here would mean the lazy-engagement guard broke).
    for row in ["solve/random/n18", "solve/correlated/n18"] {
        let s = speedup(&doc, row);
        assert!(
            s >= 0.5,
            "{row} speedup {s:.2}x: small-search overhead regression"
        );
    }
}

#[test]
fn root_holds_exactly_the_baselines_the_harnesses_write() {
    let on_disk: std::collections::BTreeSet<String> = std::fs::read_dir(workspace_root())
        .expect("workspace root is readable")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into()
        })
        .filter(|name: &String| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    let written = [bench_sched::FILE, bench_interleave::FILE]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(
        on_disk, written,
        "the root's BENCH_*.json must be exactly the files bench_sched and bench_interleave write"
    );
}

#[test]
fn full_runs_have_no_out_flag() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-exp"))
        .args(["bench_sched", "--out", "x"])
        .output()
        .expect("spawn flowtune-exp");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}
