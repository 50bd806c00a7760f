//! The enforcement point: the real workspace must be invariant-clean.
//!
//! Because this is an ordinary integration test, plain `cargo test`
//! (the tier-1 gate) fails the moment anyone introduces an unwaivered
//! `HashMap` on the output path, a wall clock in the simulator, an
//! unwrap in core library code, a raw money/time `f64`, or a dead
//! dependency. Waivers (`// flowtune-allow(<rule>): <reason>`) are the
//! escape hatch and leave an audit trail in the diff.

#[test]
fn real_workspace_has_no_violations() {
    let root = flowtune_analyze::workspace_root();
    let diags = flowtune_analyze::check_workspace(&root).expect("workspace scans");
    assert!(
        diags.is_empty(),
        "workspace invariant violations (waive with `// flowtune-allow(<rule>): <reason>` \
         only when the invariant genuinely holds):\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}

#[test]
fn cli_exits_zero_on_clean_workspace() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .arg(flowtune_analyze::workspace_root())
        .status()
        .expect("spawn analyzer CLI");
    assert_eq!(
        status.code(),
        Some(0),
        "CLI must succeed on the clean workspace"
    );
}

#[test]
fn cli_passes_against_committed_baseline() {
    // The exact invocation ci/check.sh runs: JSON report gated on the
    // committed baseline. A clean tree has nothing to suppress, so the
    // committed ANALYZE_baseline.json must itself be the empty report.
    let root = flowtune_analyze::workspace_root();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .args(["--format", "json", "--baseline"])
        .arg(root.join("ANALYZE_baseline.json"))
        .arg(&root)
        .output()
        .expect("spawn analyzer CLI");
    assert_eq!(out.status.code(), Some(0), "baseline gate must pass");
    let doc = flowtune_analyze::json::parse(&String::from_utf8(out.stdout).expect("utf8"))
        .expect("valid json");
    let findings = doc
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings");
    assert!(findings.is_empty(), "clean tree must report no findings");
}

#[test]
fn committed_baseline_is_canonical_json() {
    // The baseline is machine-written (`--format json` output redirected
    // to a file), so it must round-trip byte-identically through the
    // parser and renderer — any hand edit that drifts from canonical
    // form shows up here rather than as a confusing baseline mismatch.
    let path = flowtune_analyze::workspace_root().join("ANALYZE_baseline.json");
    let text = std::fs::read_to_string(&path).expect("read ANALYZE_baseline.json");
    let doc = flowtune_analyze::json::parse(&text).expect("baseline parses");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("flowtune.analyze.v1")
    );
    assert_eq!(
        text,
        format!("{}\n", doc.render()),
        "baseline must stay in canonical rendered form"
    );
}

#[test]
fn waiver_budget_is_pinned() {
    // Waivers are individually justified, but their total is a budget:
    // this pin makes every new `flowtune-allow` (and every removal) an
    // explicit diff to reviewed expectations, so suppressions cannot
    // accrete silently. Update the counts when a waiver is genuinely
    // added or retired.
    let root = flowtune_analyze::workspace_root();
    let ws = flowtune_analyze::workspace::Workspace::discover(&root).expect("workspace scans");
    let mut counts: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for kr in &ws.crates {
        for file in &kr.files {
            for decl in &file.waiver_decls {
                *counts.entry(decl.rule.clone()).or_insert(0) += 1;
            }
        }
    }
    let want: std::collections::BTreeMap<String, usize> = [
        ("cast-discipline", 1),
        ("determinism", 1),
        ("golden-coverage", 3),
        ("newtype-discipline", 2),
        // +2 obs-discipline: the composite-candidate metrics in
        // crates/tuner/src/candidates.rs fire outside the pinned smoke
        // trace. +4 panic-hygiene: documented invariants in the
        // composite index/query layer (tuple.rs, composite.rs, multi.rs).
        // +1 obs-discipline: the pool-eviction counter left the smoke
        // golden when the page-image store dropped its buffer pool.
        // -1 obs-discipline: `sched.parallel_steps` left with the
        // skyline's expand pool. -3 obs-discipline: the pool hit, miss
        // and eviction counters left with the B+Tree's buffer pool.
        ("obs-discipline", 12),
        // -1 panic-hygiene: the service's lane pick returns `None` on an
        // empty lane set instead of asserting one exists. -2
        // panic-hygiene: the B+Tree's `String` key encoding and its
        // internal-node split left with the insert path. -2
        // panic-hygiene: the page-image store's torn-page pick and image
        // payload left when images became ledger records.
        ("panic-hygiene", 22),
    ]
    .into_iter()
    .map(|(r, n)| (r.to_owned(), n))
    .collect();
    assert_eq!(counts, want, "per-rule waiver budget drifted");
}
