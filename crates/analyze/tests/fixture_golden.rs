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
fn cli_exits_nonzero_on_fixture_violations() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .arg(fixture_root())
        .status()
        .expect("spawn analyzer CLI");
    assert_eq!(
        status.code(),
        Some(1),
        "CLI must fail on a tree with violations"
    );
}

#[test]
fn cli_json_is_v1_schema_and_its_output_round_trips_as_baseline() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .args(["--format", "json"])
        .arg(fixture_root())
        .output()
        .expect("spawn analyzer CLI");
    assert_eq!(out.status.code(), Some(1), "fixtures have deny findings");
    let text = String::from_utf8(out.stdout).expect("utf8 json");
    let doc = flowtune_analyze::json::parse(&text).expect("valid json");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("flowtune.analyze.v1")
    );
    let findings = doc
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings");
    assert!(!findings.is_empty());
    for f in findings {
        for key in ["file", "rule", "severity", "message"] {
            assert!(
                f.get(key).and_then(|v| v.as_str()).is_some(),
                "missing {key}"
            );
        }
        assert!(f.get("line").and_then(|v| v.as_int()).is_some());
    }

    // A clean run's JSON doubles as a baseline: feeding the report back
    // suppresses every finding, so the same tree now exits 0.
    let baseline = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fixture_base.json");
    std::fs::write(&baseline, &text).expect("write baseline");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .arg("--baseline")
        .arg(&baseline)
        .arg(fixture_root())
        .status()
        .expect("spawn analyzer CLI");
    assert_eq!(status.code(), Some(0), "fully baselined tree must pass");
}

#[test]
fn cli_rule_filter_gates_on_the_selected_rule_only() {
    // waiver-audit findings are warn severity: filtered alone they never
    // fail the run, while a deny rule still does.
    let warn_only = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .args(["--rule", "waiver-audit"])
        .arg(fixture_root())
        .status()
        .expect("spawn analyzer CLI");
    assert_eq!(warn_only.code(), Some(0));
    let deny = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .args(["--rule", "cast-discipline"])
        .arg(fixture_root())
        .status()
        .expect("spawn analyzer CLI");
    assert_eq!(deny.code(), Some(1));
    let unknown = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .args(["--rule", "no-such-rule"])
        .arg(fixture_root())
        .status()
        .expect("spawn analyzer CLI");
    assert_eq!(unknown.code(), Some(2), "unknown rule is a usage error");
}

#[test]
fn cli_lists_all_five_rules() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .arg("--list-rules")
        .output()
        .expect("spawn analyzer CLI");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(text.lines().count(), 5, "one line per rule:\n{text}");
    for rule in [
        "newtype-discipline",
        "dep-hygiene",
        "cast-discipline",
        "obs-discipline",
        "waiver-audit",
    ] {
        assert!(text.contains(rule), "missing rule {rule} in:\n{text}");
    }
}

#[test]
fn cli_exits_two_on_missing_root() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_flowtune-analyze"))
        .arg(fixture_root().join("no-such-dir"))
        .status()
        .expect("spawn analyzer CLI");
    assert_eq!(
        status.code(),
        Some(2),
        "CLI must report I/O errors distinctly"
    );
}
