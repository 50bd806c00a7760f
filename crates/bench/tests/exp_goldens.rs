//! Every deterministic experiment's smoke report, diffed byte-for-byte
//! against its golden under `tests/golden/exp/` by plain `cargo test`.
//!
//! The registry and the golden directory must agree both ways: every
//! [`Golden::Smoke`] entry has `<name>_smoke.txt`, and every file there
//! belongs to such an entry, so neither an unpinned experiment nor an
//! orphan golden can slip in. Regenerate one golden with
//!
//! ```bash
//! cargo run -q --release -p flowtune-bench --bin flowtune-exp -- <name> --smoke \
//!   > tests/golden/exp/<name>_smoke.txt
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;

use flowtune_bench::exp::{Experiment, Golden, REGISTRY};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/exp/")
}

fn smoke_entries() -> impl Iterator<Item = &'static Experiment> {
    REGISTRY.iter().filter(|e| e.golden == Golden::Smoke)
}

/// Run `exp` under smoke and diff its report against its golden;
/// `None` when they match.
fn mismatch(exp: &Experiment) -> Option<String> {
    let path = golden_dir().join(format!("{}_smoke.txt", exp.name));
    let mut out = Vec::new();
    let diff = match (exp.report(true, &mut out), std::fs::read_to_string(&path)) {
        (Err(e), _) => format!("the run failed: {e}"),
        (_, Err(e)) => format!("{}: {e}", path.display()),
        (Ok(()), Ok(want)) if want.as_bytes() == out => return None,
        (Ok(()), Ok(want)) => {
            let got = String::from_utf8_lossy(&out);
            let at = got
                .lines()
                .zip(want.lines())
                .take_while(|(g, w)| g == w)
                .count();
            let (g, w) = (got.lines().nth(at), want.lines().nth(at));
            format!("line {} differs:\n  got:  {g:?}\n  want: {w:?}", at + 1)
        }
    };
    Some(format!("{}: {diff}", exp.name))
}

#[test]
fn every_smoke_report_matches_its_golden() {
    // One thread per experiment: the obs recorder is thread-local, and
    // no experiment installs one, so they cannot interfere.
    let failures: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> = smoke_entries()
            .map(|exp| s.spawn(move || mismatch(exp)))
            .collect();
        runs.into_iter()
            .filter_map(|run| run.join().expect("experiment thread panicked"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "smoke reports drifted (regenerate as this file's header says if intended):\n{}",
        failures.join("\n")
    );
}

#[test]
fn golden_dir_and_registry_match_both_ways() {
    // Names are unique already: each is its module's name.
    let on_disk: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .expect("golden dir readable")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into()
        })
        .collect();
    let pinned: BTreeSet<String> = smoke_entries()
        .map(|e| format!("{}_smoke.txt", e.name))
        .collect();
    assert_eq!(
        on_disk, pinned,
        "tests/golden/exp/ must hold exactly one <name>_smoke.txt per Smoke registry entry"
    );
}
