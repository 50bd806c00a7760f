//! Golden test over the fixture mini-workspace in `tests/fixtures/ws`.
//!
//! The fixtures deliberately violate every rule and also carry waivers
//! and `#[cfg(test)]` regions, so this test pins down the analyzer's
//! exact behaviour: what fires, what a waiver suppresses, and what test
//! code is exempt from. Any rule change that shifts a finding shows up
//! here as a precise (file, line, rule) diff.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn fixture_findings_match_golden_list() {
    let diags = flowtune_analyze::check_workspace(&fixture_root()).expect("fixture ws scans");
    let got: Vec<(String, usize, &str)> = diags
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect();
    let want: Vec<(String, usize, &str)> = [
        // A raw `as f64` on a quanta ident; the waived cast (line 6)
        // and the #[cfg(test)] cast (line 15) are absent.
        ("crates/cloud/src/billing.rs", 4, "cast-discipline"),
        // The waiver-audit fixture: a stale cast-discipline waiver, a
        // typo'd rule name, a reason-less waiver, and a leftover waiver
        // for panic-hygiene, a rule clippy enforces now. The stale
        // obs-discipline waiver at line 15 is absent — the
        // waiver-audit waiver directly above it suppresses the finding
        // and is thereby used itself.
        ("crates/cloud/src/stale.rs", 3, "waiver-audit"),
        ("crates/cloud/src/stale.rs", 8, "waiver-audit"),
        ("crates/cloud/src/stale.rs", 11, "waiver-audit"),
        ("crates/cloud/src/stale.rs", 18, "waiver-audit"),
        // Obs naming: a non-snake_case name, a dual-kind recording
        // (observe after count), and a duplicate event emission site.
        // The waived gauge recording (line 8) is absent.
        ("crates/obs/src/names.rs", 5, "obs-discipline"),
        ("crates/obs/src/names.rs", 6, "obs-discipline"),
        ("crates/obs/src/names.rs", 10, "obs-discipline"),
        // Unused dep and dev-dep in the sched fixture manifest.
        ("crates/sched/Cargo.toml", 7, "dep-hygiene"),
        ("crates/sched/Cargo.toml", 10, "dep-hygiene"),
        // The out-of-line test module fixture
        // (crates/sched/src/equivalence_tests.rs) is wholly absent: its
        // file-level #![cfg(test)] exempts the raw `f64` cost and the
        // quanta cast inside.
        // The composite-candidate metric fixture: a malformed name
        // fires; the waived dual-kind recording of
        // `tuner.composite_candidates` (line 8) is absent.
        ("crates/tuner/src/candidates.rs", 9, "obs-discipline"),
        // total_cost: f64 outside flowtune-common; the same shape inside
        // the flowtune-common fixture and inside #[cfg(test)] (line 12)
        // produces nothing.
        ("crates/tuner/src/lib.rs", 4, "newtype-discipline"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_owned(), l, r))
    .collect();
    assert_eq!(got, want, "fixture diagnostics drifted:\n{diags:#?}");
}

#[test]
fn diagnostics_render_as_file_line_rule() {
    let diags = flowtune_analyze::check_workspace(&fixture_root()).expect("fixture ws scans");
    let first = diags.first().expect("fixture has findings");
    let rendered = first.to_string();
    assert!(
        rendered.starts_with("crates/cloud/src/billing.rs:4: [cast-discipline]"),
        "unexpected rendering: {rendered}"
    );
}

#[test]
fn check_workspace_errs_on_a_missing_root() {
    assert!(flowtune_analyze::check_workspace(&fixture_root().join("no-such-dir")).is_err());
}

#[test]
fn the_registry_and_the_waiver_audit_name_the_five_rules() {
    let mut names: Vec<&str> = flowtune_analyze::all_rules()
        .iter()
        .map(|r| r.name())
        .collect();
    names.push(flowtune_analyze::WAIVER_AUDIT);
    assert_eq!(
        names,
        [
            "newtype-discipline",
            "dep-hygiene",
            "cast-discipline",
            "obs-discipline",
            "waiver-audit",
        ]
    );
}
