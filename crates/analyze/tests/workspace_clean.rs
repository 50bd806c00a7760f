//! The enforcement point, and the only place the analyzer runs: the
//! real workspace must be invariant-clean.
//!
//! Because this is an ordinary integration test, plain `cargo test`
//! (the tier-1 gate) fails the moment anyone introduces a raw
//! money/time `f64` or `as` cast, a dead dependency, a malformed obs
//! name or a stale waiver, and names each finding's file:line. Waivers
//! (`// flowtune-allow(<rule>): <reason>`) are the escape hatch and
//! leave an audit trail in the diff.
//!
//! The token-level bans (no `HashMap`/`HashSet`, wall clock, env lookup
//! or ambient RNG, and no unwrap, expect or `panic!` in library code)
//! are clippy lints, not analyzer rules. Plain `cargo test` does not
//! run them: the `cargo clippy -- -D warnings` step of `ci/check.sh`
//! does, and its planted-violation step shows each one firing. This
//! file only pins how many `#[expect]` waivers the tree carries.

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

/// Every `#[expect(..)]`/`#![expect(..)]` and `#[allow(..)]`/`#![allow(..)]`
/// attribute in `tokens`, as `(attribute, lints, has_reason)`. String
/// contents are blanked in the code view, so a `reason = "…"` shows as
/// the `reason` key alone.
fn lint_attributes(tokens: &[flowtune_analyze::lexer::Token]) -> Vec<(String, Vec<String>, bool)> {
    let mut out = Vec::new();
    for (at, tok) in tokens.iter().enumerate() {
        if !tok.is_punct("#") {
            continue;
        }
        let mut i = at + 1;
        if tokens.get(i).is_some_and(|t| t.is_punct("!")) {
            i += 1;
        }
        let Some(attr) = tokens
            .get(i + 1)
            .filter(|t| t.is_ident("expect") || t.is_ident("allow"))
        else {
            continue;
        };
        if !(tokens.get(i).is_some_and(|t| t.is_punct("["))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct("(")))
        {
            continue;
        }
        let (mut lints, mut has_reason) = (Vec::new(), false);
        let mut part = String::new();
        for t in &tokens[i + 3..] {
            if t.is_punct(",") || t.is_punct(")") {
                if part == "reason=" {
                    has_reason = true;
                } else if !part.is_empty() {
                    lints.push(std::mem::take(&mut part));
                }
                part.clear();
                if t.is_punct(")") {
                    break;
                }
            } else {
                part.push_str(&t.text);
            }
        }
        out.push((attr.text.clone(), lints, has_reason));
    }
    out
}

#[test]
fn waiver_budget_is_pinned() {
    // Waivers are individually justified, but their total is a budget:
    // this pin makes every new waiver (and every removal) an explicit
    // diff to reviewed expectations, so suppressions cannot accrete
    // silently. It counts the analyzer's `flowtune-allow` comments per
    // rule and clippy's `#[expect]`/`#![expect]` attributes per lint.
    // Update the counts when a waiver is genuinely added or retired.
    //
    // `allow` attributes are pinned at zero. Clippy rejects an outer
    // `#[allow]`, but not an inner `#![allow(lint, reason = "…")]`, and
    // an `allow` never fails once it goes stale, as an `expect` does.
    let root = flowtune_analyze::workspace_root();
    let ws = flowtune_analyze::workspace::Workspace::discover(&root).expect("workspace scans");
    let mut counts: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut allows = Vec::new();
    for kr in &ws.crates {
        for file in &kr.files {
            for decl in &file.waiver_decls {
                *counts.entry(decl.rule.clone()).or_insert(0) += 1;
            }
            for (attr, lints, has_reason) in lint_attributes(&file.tokens) {
                if attr == "allow" {
                    allows.push(file.rel.clone());
                    continue;
                }
                assert!(
                    has_reason,
                    "{}: #[expect({lints:?})] without a reason",
                    file.rel
                );
                for lint in lints {
                    *counts.entry(format!("expect({lint})")).or_insert(0) += 1;
                }
            }
        }
    }
    assert!(
        allows.is_empty(),
        "`allow` attributes in {allows:?}; use #[expect(lint, reason = \"…\")]"
    );
    let want: std::collections::BTreeMap<String, usize> = [
        ("cast-discipline", 1),
        ("newtype-discipline", 2),
        // +2 obs-discipline: the composite-candidate metrics in
        // crates/tuner/src/candidates.rs fire outside the pinned smoke
        // trace. +1 obs-discipline: the pool-eviction counter left the
        // smoke golden when the page-image store dropped its buffer
        // pool. -1 obs-discipline: `sched.parallel_steps` left with the
        // skyline's expand pool. -3 obs-discipline: the pool hit, miss
        // and eviction counters left with the B+Tree's buffer pool. +2
        // obs-discipline: `storage.page_reads` left the smoke golden when
        // the partition-image scan stopped counting it (the B+Tree's two
        // read sites now carry it alone). -1 obs-discipline:
        // `sched.tiebreak_optcount` left with the skyline's optional-count
        // tie-break, which no step could reach.
        ("obs-discipline", 13),
        // Clippy lints. The wall-clock ban is waived only in the bench
        // harness (`flowtune_bench::compare`, the one clock reader), and
        // the env ban in two command-line reads (the `flowtune` and
        // `flowtune-exp` binaries); the hash-order
        // ban in two order-free library maps (the container cache and a
        // dataflow's seen-file set).
        ("expect(clippy::disallowed_methods)", 2),
        ("expect(clippy::disallowed_types)", 3),
        // 20 library sites whose invariant cannot fail (analyzer
        // panic-hygiene waivers until that rule moved to clippy), three
        // bench and test helper sites, and one `#![expect]` in each of
        // 12 tests and examples that fail fast. The experiments return
        // errors since they became a library.
        ("expect(clippy::expect_used)", 35),
        // The lineitem generator's two documented column-name contracts
        // (also former panic-hygiene waivers), one bench site and one
        // baseline test.
        ("expect(clippy::panic)", 4),
        ("expect(clippy::unwrap_used)", 3),
    ]
    .into_iter()
    .map(|(r, n)| (r.to_owned(), n))
    .collect();
    assert_eq!(counts, want, "per-rule waiver budget drifted");
}
