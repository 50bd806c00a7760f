//! The `flowtune` CLI end to end, under plain `cargo test`.
//!
//! Every top-level golden a CLI run prints or writes is byte-compared
//! here, and nowhere else: the online interleaver's report under faults,
//! the report of a run whose cost models are calibrated from measured
//! B+Tree I/O, and the smoke trace and metrics, which cover the
//! recorder's output and the CLI's `--trace-out`/`--metrics-out`
//! writers alike. Each failure prints the command that regenerates the
//! golden.
//!
//! The file also owns the top level of `tests/golden/` as a whole: it
//! must hold exactly the goldens some test reads, so an orphan cannot
//! pin nothing while looking like a check. `exp/` belongs to
//! `crates/bench/tests/exp_goldens.rs`, which checks it against the
//! experiment registry both ways.
//!
//! Last, the CLI's reject contract: a meaningless config exits 1 with an
//! `error:` line before the run is announced.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::{Command, Output};

/// The online interleaver (build ops offered along each finished
/// skyline schedule) under crash, torn-write and revocation faults.
const ONLINE_FAULTS: &str = "report_online_faults.txt";
const ONLINE_FAULTS_ARGS: &str = "--interleaver online --fault-rate 0.3 --crash-share 0.3 \
     --torn-share 0.3 --recovery-policy retry-gain-penalty --quanta 24 --seed 1 --concurrency 1";

/// `--calibrate-io` replaces the asserted build I/O in the gain model
/// with a calibration tree's measured page traffic.
const CALIBRATE_IO: &str = "calibrate_io_smoke.txt";
const CALIBRATE_IO_ARGS: &str = "--calibrate-io --quanta 40 --seed 7";

/// The observability smoke run's trace and metrics files.
const TRACE: &str = "trace_smoke.jsonl";
const METRICS: &str = "metrics_smoke.json";
const SMOKE_ARGS: &str = "--quanta 4 --seed 1 --concurrency 1";

const REGEN: &str = "regenerate with: cargo run -q --release -p flowtune-core --bin flowtune --";

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn flowtune<S: AsRef<OsStr>>(args: impl IntoIterator<Item = S>) -> std::io::Result<Output> {
    Command::new(env!("CARGO_BIN_EXE_flowtune"))
        .args(args)
        .output()
}

/// Compare `got` with golden `name`; the error names the first line
/// that differs.
fn compare(name: &str, got: &[u8]) -> Result<(), String> {
    let path = golden_dir().join(name);
    let want = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if want == got {
        return Ok(());
    }
    let (got, want) = (String::from_utf8_lossy(got), String::from_utf8_lossy(&want));
    let at = got
        .lines()
        .zip(want.lines())
        .take_while(|(g, w)| g == w)
        .count();
    let (g, w) = (got.lines().nth(at), want.lines().nth(at));
    Err(format!(
        "tests/golden/{name}: line {} differs:\n  got:  {g:?}\n  want: {w:?}",
        at + 1
    ))
}

/// Run `flowtune` with `args`, which must succeed, and return its
/// output.
fn run_ok<S: AsRef<OsStr>>(args: impl IntoIterator<Item = S>) -> Result<Output, String> {
    let out = flowtune(args).map_err(|e| format!("spawn flowtune: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "flowtune exited {:?}:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(out)
}

/// Run `flowtune args` and compare its stdout with golden `name`.
fn stdout_matches(name: &str, args: &str) -> Result<(), String> {
    let out = run_ok(args.split_whitespace())?;
    compare(name, &out.stdout).map_err(|e| format!("{e}\n{REGEN} {args} > tests/golden/{name}"))
}

#[test]
fn online_report_under_faults_matches_its_golden() {
    if let Err(e) = stdout_matches(ONLINE_FAULTS, ONLINE_FAULTS_ARGS) {
        panic!("{e}");
    }
}

#[test]
fn calibrated_io_report_matches_its_golden() {
    if let Err(e) = stdout_matches(CALIBRATE_IO, CALIBRATE_IO_ARGS) {
        panic!("{e}");
    }
}

#[test]
fn trace_and_metrics_match_committed_goldens() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (trace, metrics) = (dir.join(TRACE), dir.join(METRICS));
    let outputs = [OsStr::new("--trace-out"), trace.as_os_str()]
        .into_iter()
        .chain([OsStr::new("--metrics-out"), metrics.as_os_str()]);
    let args = SMOKE_ARGS.split_whitespace().map(OsStr::new).chain(outputs);
    if let Err(e) = run_ok(args) {
        panic!("{e}");
    }
    for (name, path) in [(TRACE, &trace), (METRICS, &metrics)] {
        let got = std::fs::read(path).expect("the run wrote its output file");
        if let Err(e) = compare(name, &got) {
            panic!(
                "{e}\n{REGEN} {SMOKE_ARGS} \
                 --trace-out tests/golden/{TRACE} --metrics-out tests/golden/{METRICS}"
            );
        }
    }
}

#[test]
fn golden_dir_holds_exactly_the_goldens_tests_read() {
    let on_disk: std::collections::BTreeSet<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden is readable")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into()
        })
        .collect();
    let read: std::collections::BTreeSet<String> = [
        ONLINE_FAULTS,
        CALIBRATE_IO,
        TRACE,
        METRICS,
        // tests/fault_crash_recovery.rs
        "fault_crash_recovery.txt",
        // crates/bench/tests/exp_goldens.rs
        "exp",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(
        on_disk, read,
        "tests/golden/ must hold exactly the goldens some test reads"
    );
}

#[test]
fn bad_configs_are_rejected_before_the_run_is_announced() {
    // The online interleaver has no load-balance form, an estimation
    // error must lie in [0, 1), a zero horizon would run as nothing, a
    // horizon past `SimDuration::MAX` would wrap, and online
    // interleaving under No Index would run as plain No Index (the
    // policy builds nothing).
    for args in [
        "--scheduler online-lb --interleaver online --quanta 4",
        "--error 1.5 --quanta 10 --seed 1 --concurrency 1",
        "--quanta 0",
        "--quanta 18446744073709551615",
        "--policy no-index --interleaver online --quanta 4",
    ] {
        let out = flowtune(args.split_whitespace()).expect("spawn flowtune");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error:")),
            "{args}: no `error:` line in {stderr:?}"
        );
        assert!(
            !stdout
                .lines()
                .chain(stderr.lines())
                .any(|l| l.starts_with("running")),
            "{args}: announced before it was rejected"
        );
    }
}
