//! `flowtune-perfbench` — whole-run benchmark of `QaasService::run`.
//!
//! ```bash
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload gain_phases --seed 42 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the benchmark measures a suite of workload seeds
//! derived from `--seed` (see [`workload`]): each sample is one child
//! process that builds the service and runs it once, so peak memory is
//! per sample. Samples cycle through the suite until `--seconds` have
//! passed and every seed has run, with the first seed always run twice
//! for the correctness gate ([`gate`]). A suite longer than `--seconds`
//! runs to its end.
//!
//! With `--trace 1` it runs the traced replay on `--seed` itself and
//! reports per-layer metrics ([`trace`]).
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The lines before it record the environment and the report digests.

mod gate;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use flowtune_core::QaasService;

use crate::gate::Gate;
use crate::stats::{mean, median};
use crate::workload::Workload;

/// `QaasService::new` calls timed per sample; the median is the
/// sample's set-up time.
const SETUP_REPS: usize = 15;

/// One named metric value with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    sample: bool,
}

const USAGE: &str = "\
usage: flowtune-perfbench --workload <gain_phases|noindex_phases|faults_online>
                          [--seed N] [--seconds N] [--trace 0|1] [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::GainPhases,
        seed: 42,
        seconds: 20,
        trace: false,
        smoke: false,
        sample: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--sample" => args.sample = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One child-process sample, as parsed from its `sample ...` line.
#[derive(Debug)]
struct Sample {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    issued: usize,
    finished: usize,
    makespan_q: f64,
    cost_usd: f64,
    rss_mb: f64,
    digest: String,
}

/// Child mode: build the service `SETUP_REPS` times, run the last one,
/// print one `sample key=value ...` line.
fn sample_main(args: &Args) -> ExitCode {
    let config = args.workload.config(args.seed, args.smoke);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut svc = None;
    for _ in 0..SETUP_REPS {
        let c = config.clone();
        let t = Instant::now();
        let s = QaasService::new(c);
        setup.push(t.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let Some(mut svc) = svc else {
        return ExitCode::FAILURE;
    };
    let t = Instant::now();
    let cpu0 = process_cpu_s();
    let report = match svc.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cpu_s = process_cpu_s() - cpu0;
    let wall_s = t.elapsed().as_secs_f64();
    if let Err(e) = gate::check_report(&report) {
        eprintln!("error: report check: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "sample setup_s={} wall_s={wall_s} cpu_s={cpu_s} issued={} finished={} makespan_q={} cost_usd={} rss_mb={} digest={}",
        median(&setup),
        report.dataflows_issued,
        report.dataflows_finished,
        report.avg_makespan_quanta().get(),
        report.cost_per_dataflow(),
        peak_rss_mb(),
        gate::digest(&report),
    );
    ExitCode::SUCCESS
}

/// CPU time of this process so far, all threads, in seconds
/// (`utime + stime` of `/proc/self/stat`, in 1/100 s ticks).
fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let after_comm = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = after_comm.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 if unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_sample(stdout: &str) -> Option<Sample> {
    let line = stdout.lines().find_map(|l| l.strip_prefix("sample "))?;
    let kv: BTreeMap<&str, &str> = line
        .split_whitespace()
        .filter_map(|t| t.split_once('='))
        .collect();
    let f = |k: &str| kv.get(k)?.parse::<f64>().ok();
    let u = |k: &str| kv.get(k)?.parse::<usize>().ok();
    Some(Sample {
        setup_s: f("setup_s")?,
        wall_s: f("wall_s")?,
        cpu_s: f("cpu_s")?,
        issued: u("issued")?,
        finished: u("finished")?,
        makespan_q: f("makespan_q")?,
        cost_usd: f("cost_usd")?,
        rss_mb: f("rss_mb")?,
        digest: kv.get("digest")?.to_string(),
    })
}

/// Run one sample of workload seed `seed` in a child process.
fn spawn_sample(args: &Args, seed: u64) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--sample", "--workload", args.workload.name()])
        .args(["--seed", &seed.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn sample: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "sample of seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse_sample(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| format!("sample of seed {seed} printed no result"))
}

/// The benchmark's result line.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `--trace 0`: cycle the suite in child processes until the time is up.
fn measure(args: &Args) -> Outcome {
    let suite = args.workload.suite(args.seed, args.smoke);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut gate = Gate::default();
    let mut samples: BTreeMap<u64, Vec<Sample>> = BTreeMap::new();
    let mut attempted = 0;
    let mut n = 0;
    // Every seed once, the first seed a second time, then round-robin
    // until the budget is spent.
    while n <= suite.len() || start.elapsed() < budget {
        let seed = suite[n % suite.len()];
        n += 1;
        match spawn_sample(args, seed) {
            Ok(s) => {
                attempted += s.issued;
                if !gate.check(seed, &s.digest, s.issued) {
                    eprintln!("gate: seed {seed} report digest {} differs", s.digest);
                }
                eprintln!(
                    "sample {n}: seed {seed}: run {:.3} s CPU, {:.3} s wall, {} dataflows, {:.1} MiB",
                    s.cpu_s, s.wall_s, s.issued, s.rss_mb
                );
                samples.entry(seed).or_default().push(s);
            }
            Err(e) => {
                eprintln!("error: {e}");
                attempted += gate.errored(seed);
            }
        }
    }

    // Per seed: median run time over its samples, and the outputs of its
    // first sample (the gate holds the others to them). Run time and
    // memory are averaged over the suite. Simulated outcomes are the
    // median over its seeds: about one phase-mix seed in ten runs at
    // twice the typical makespan, and a mean would follow it.
    //
    // Run time is the CPU time of `run()` over all threads, not wall
    // time: the two agree within 1% on an idle two-core machine, but a
    // shared host steals 5-30% of the CPU in bursts lasting minutes,
    // which wall time counts and CPU time does not.
    let per_seed_median = |f: fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .values()
            .map(|v| median(&v.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let cpu_s = per_seed_median(|s| s.cpu_s);
    let wall_s = per_seed_median(|s| s.wall_s);
    let firsts: Vec<&Sample> = samples.values().filter_map(|v| v.first()).collect();
    let of_seeds = |f: fn(&Sample) -> f64| firsts.iter().map(|s| f(s)).collect::<Vec<_>>();
    let issued: usize = firsts.iter().map(|s| s.issued).sum();
    let setup: Vec<f64> = samples.values().flatten().map(|s| s.setup_s).collect();
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m(
            "dataflows_per_s",
            issued as f64 / cpu_s.iter().sum::<f64>().max(1e-9),
            "1/s",
        ),
        m("run_s", mean(&cpu_s), "s"),
        m("setup_s", median(&setup), "s"),
        m("peak_rss_mb", mean(&of_seeds(|s| s.rss_mb)), "MiB"),
        m(
            "sim_makespan_q",
            median(&of_seeds(|s| s.makespan_q)),
            "quanta",
        ),
        m("sim_cost_usd", median(&of_seeds(|s| s.cost_usd)), "usd"),
        m(
            "sim_finished",
            median(&of_seeds(|s| s.finished as f64)),
            "count",
        ),
    ];

    let digests: Vec<String> = gate
        .digests()
        .map(|(s, d)| format!("\"{s}\": \"{d}\""))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"samples\": {}, \"wall_run_s\": {}, \"report_digests\": {{{}}}}}",
        args.workload.name(),
        n,
        mean(&wall_s),
        digests.join(", ")
    );
    let complete = suite.iter().all(|s| samples.contains_key(s));
    Outcome {
        correct: gate.bad_samples == 0 && complete,
        attempted: attempted.max(1),
        failed: gate.failed,
        metrics,
    }
}

/// `--trace 1`: the traced replay on `--seed` itself.
fn measure_traced(args: &Args) -> Outcome {
    let config = args.workload.config(args.seed, args.smoke);
    match trace::traced_run(&config) {
        Ok(t) => {
            for mismatch in &t.mismatches {
                eprintln!("replay fidelity: {mismatch}");
            }
            if !t.counters_agree {
                eprintln!("counting passes disagree");
            }
            let counters: Vec<String> = t
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            println!(
                "{{\"workload\": \"{}\", \"report_digest\": \"{}\", \"round_tail_percentile\": {}, \"counters\": {{{}}}}}",
                args.workload.name(),
                gate::digest(&t.report),
                t.tail_p,
                counters.join(", ")
            );
            let checked = gate::check_report(&t.report);
            if let Err(e) = &checked {
                eprintln!("report check: {e}");
            }
            let ok = t.mismatches.is_empty() && t.counters_agree && checked.is_ok();
            let issued = t.report.dataflows_issued.max(1);
            Outcome {
                correct: ok,
                attempted: issued,
                failed: if ok { 0 } else { issued },
                metrics: t.metrics,
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            Outcome {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            }
        }
    }
}

/// The commit the checkout was made from, read from `.git` in the
/// working directory; "unknown" outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_env(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seeds = if args.trace {
        vec![args.seed]
    } else {
        args.workload.suite(args.seed, args.smoke)
    };
    let suite: Vec<String> = seeds.iter().map(u64::to_string).collect();
    println!(
        "{{\"env\": {{\"nproc\": {nproc}, \"expand_threads\": {}, \"profile\": \"{}\", \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"suite\": [{}], \"seconds\": {}, \"trace\": {}, \"smoke\": {}}}}}",
        // `SchedulerConfig::expand_threads` = 0 resolves to this.
        nproc.min(8),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit(),
        args.workload.name(),
        args.seed,
        suite.join(", "),
        args.seconds,
        u8::from(args.trace),
        args.smoke,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.sample {
        return sample_main(&args);
    }
    print_env(&args);
    let outcome = if args.trace {
        measure_traced(&args)
    } else {
        measure(&args)
    };
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
