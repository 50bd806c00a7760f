//! Rule `golden-coverage`: the committed goldens under `tests/golden/`
//! and the code that diffs against them must reference each other both
//! ways. An orphan golden (no test or `ci/check.sh` step reads it)
//! rots silently — it pins nothing — and a dangling reference (a test
//! naming a golden that doesn't exist) fails only at runtime, usually
//! in CI. The rule scans test targets and the check script for
//! `tests/golden/<name>` path literals and cross-checks the files
//! directly under `tests/golden/`. A subdirectory is its owner test's
//! business: `crates/bench/tests/exp_goldens.rs` checks
//! `tests/golden/exp/` against the experiment registry both ways, so
//! references into a subdirectory are skipped here.
//!
//! The committed perf baselines at the repository root (`BENCH_*.json`)
//! get the same treatment: each must be read by a test or a check-script
//! step (otherwise its speedup bars gate nothing), and every `BENCH_*`
//! name a test mentions must exist. A `BENCH_` occurrence preceded by
//! `/` is a scratch-copy path (e.g. `$scratch/BENCH_sched.json` in the
//! smoke steps), not a reference to the committed file, and is ignored.

use super::{Emitter, Rule};
use crate::scan::FileKind;
use crate::workspace::Workspace;
use std::collections::BTreeSet;

#[derive(Debug)]
pub struct GoldenCoverage;

impl Rule for GoldenCoverage {
    fn name(&self) -> &'static str {
        "golden-coverage"
    }

    fn description(&self) -> &'static str {
        "tests/golden files, BENCH_* perf baselines, and their test/ci references must match both ways"
    }

    fn check_workspace(&self, ws: &Workspace, em: &mut Emitter<'_>) {
        // All referenced paths, plus where each reference lives.
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        let mut bench_referenced: BTreeSet<String> = BTreeSet::new();
        for krate in &ws.crates {
            for file in &krate.files {
                if file.kind != FileKind::Test {
                    continue;
                }
                for (idx, raw) in file.raw_lines.iter().enumerate() {
                    for path in refs_in_line(raw) {
                        if ws.golden(&path).is_none() {
                            em.emit(
                                file,
                                idx,
                                format!("referenced golden `{path}` does not exist"),
                            );
                        }
                        referenced.insert(path);
                    }
                    for name in bench_refs_in_line(raw) {
                        if ws.baseline(&name).is_none() {
                            em.emit(
                                file,
                                idx,
                                format!("referenced perf baseline `{name}` does not exist"),
                            );
                        }
                        bench_referenced.insert(name);
                    }
                }
            }
        }
        if let Some(script) = &ws.check_script {
            for (idx, raw) in script.text.lines().enumerate() {
                for path in refs_in_line(raw) {
                    if ws.golden(&path).is_none() {
                        em.emit_raw(
                            script.rel.clone(),
                            idx + 1,
                            format!("referenced golden `{path}` does not exist"),
                        );
                    }
                    referenced.insert(path);
                }
                for name in bench_refs_in_line(raw) {
                    if ws.baseline(&name).is_none() {
                        em.emit_raw(
                            script.rel.clone(),
                            idx + 1,
                            format!("referenced perf baseline `{name}` does not exist"),
                        );
                    }
                    bench_referenced.insert(name);
                }
            }
        }

        for golden in &ws.goldens {
            if !referenced.contains(&golden.rel) {
                em.emit_raw(
                    golden.rel.clone(),
                    1,
                    "golden file is not referenced by any test or ci/check.sh; \
                     it pins nothing"
                        .to_owned(),
                );
            }
        }
        for baseline in &ws.baselines {
            if !bench_referenced.contains(&baseline.rel) {
                em.emit_raw(
                    baseline.rel.clone(),
                    1,
                    "perf baseline is not referenced by any test or ci/check.sh; \
                     its bars gate nothing"
                        .to_owned(),
                );
            }
        }
    }
}

/// Every root-level `BENCH_*.json` occurrence in one line of raw text.
/// An occurrence preceded by `/` is a path component inside some other
/// directory (a scratch copy), not the committed baseline, and is
/// skipped.
fn bench_refs_in_line(line: &str) -> Vec<String> {
    const PREFIX: &str = "BENCH_";
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = line[from..].find(PREFIX) {
        let abs = from + at;
        let preceded_by_slash = line[..abs].ends_with('/');
        let tail = &line[abs + PREFIX.len()..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
            .unwrap_or(tail.len());
        let name = &tail[..end];
        if !preceded_by_slash && name.ends_with(".json") {
            out.push(format!("{PREFIX}{name}"));
        }
        from = abs + PREFIX.len();
    }
    out
}

/// Every `tests/golden/<name>` occurrence in one line of raw text,
/// skipping references into a subdirectory.
fn refs_in_line(line: &str) -> Vec<String> {
    const PREFIX: &str = "tests/golden/";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(PREFIX) {
        let tail = &rest[at + PREFIX.len()..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '/')))
            .unwrap_or(tail.len());
        if end > 0 && !tail[..end].contains('/') {
            out.push(format!("{PREFIX}{}", &tail[..end]));
        }
        rest = &rest[at + PREFIX.len()..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_path_references() {
        assert_eq!(
            refs_in_line(r#"let p = root.join("tests/golden/metrics_smoke.json");"#),
            ["tests/golden/metrics_smoke.json"]
        );
        assert_eq!(
            refs_in_line("diff tests/golden/a.json tests/golden/b.jsonl"),
            ["tests/golden/a.json", "tests/golden/b.jsonl"]
        );
        // A bare directory mention is not a file reference.
        assert!(refs_in_line("ls tests/golden/ | wc -l").is_empty());
        // A reference into a subdirectory is its owner test's business.
        assert!(refs_in_line("for g in tests/golden/exp/*_smoke.txt; do").is_empty());
        assert!(refs_in_line("diff tests/golden/exp/fig3_smoke.txt out").is_empty());
        assert!(refs_in_line("no goldens here").is_empty());
    }

    #[test]
    fn extracts_bench_baseline_references() {
        assert_eq!(
            bench_refs_in_line(r#"let p = root.join("BENCH_sched.json");"#),
            ["BENCH_sched.json"]
        );
        assert_eq!(
            bench_refs_in_line("grep -q schema BENCH_sched.json BENCH_interleave.json"),
            ["BENCH_sched.json", "BENCH_interleave.json"]
        );
        // A scratch-copy path is not a reference to the committed file.
        assert!(bench_refs_in_line(r#"--out "$scratch/BENCH_sched.json""#).is_empty());
        // A non-json mention (e.g. a schema name fragment) is skipped.
        assert!(bench_refs_in_line("the BENCH_ prefix itself").is_empty());
        assert!(bench_refs_in_line("no baselines here").is_empty());
    }
}
