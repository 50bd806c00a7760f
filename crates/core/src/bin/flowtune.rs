//! `flowtune` — run the QaaS index-auto-tuning service from the command
//! line.
//!
//! ```bash
//! flowtune --policy gain --workload phases --quanta 720 --seed 42
//! flowtune --policy no-index --workload random --quanta 120 --csv
//! ```

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use flowtune_core::{
    IndexPolicy, InterleaverKind, QaasService, RecoveryPolicyKind, SchedulerKind, ServiceConfig,
};
use flowtune_dataflow::WorkloadKind;

const HELP: &str = "\
flowtune — automated index management for dataflow engines (EDBT 2020)

USAGE:
    flowtune [OPTIONS]

OPTIONS:
    --policy <P>       no-index | random | gain-no-delete | gain   [gain]
    --workload <W>     random | phases                             [phases]
    --scheduler <S>    skyline | online-lb                         [skyline]
    --interleaver <I>  lp | online                                 [lp]
    --quanta <N>       simulated horizon in quanta                 [720]
    --seed <N>         workload seed                               [default]
    --alpha <F>        time-money trade-off in [0,1]               [0.5]
    --fading-d <F>     gain fading controller D (quanta)           [1]
    --window-w <F>     tuner window W (quanta)                     [120]
    --concurrency <N>  concurrently executing dataflows            [4]
    --error <F>        runtime/data estimation error fraction      [0]
    --adaptive         learn a fading controller per index
    --deferred         enable deferred batch builds
    --fault-rate <F>   master fault rate in [0,1] (0 = no faults)     [0]
    --fault-seed <N>   seed of the dedicated fault stream             [default]
    --crash-share <F>  crash-during-build probability share in [0,1]  [0]
    --torn-share <F>   torn-page-write probability share in [0,1]     [0]
    --calibrate-io     calibrate index cost models against measured
                       page I/O of a real B+Tree build/probe run
    --recovery-policy <R>
                       no-retry | retry | retry-gain-penalty          [retry]
    --trace-out <PATH>    write the observability event trace (JSONL)
    --metrics-out <PATH>  write the metrics summary (JSON)
    --csv              also print per-dataflow records as CSV
    --help             show this help
";

/// Where to write the observability outputs, from the CLI flags.
#[derive(Debug, Default)]
struct ObsOutputs {
    trace: Option<String>,
    metrics: Option<String>,
}

impl ObsOutputs {
    fn active(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Take the recorder off the thread and write the requested files.
    fn write(&self) -> Result<(), String> {
        let Some(rec) = flowtune_obs::uninstall() else {
            return Ok(());
        };
        if let Some(path) = &self.trace {
            std::fs::write(path, rec.trace_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, rec.metrics_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(())
    }
}

/// The value following flag `name` on the command line, parsed.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, name: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let raw = args.next().ok_or(format!("missing value for {name}"))?;
    raw.parse().map_err(|e| format!("{name}: {e}"))
}

/// Build the run's config from the flags after the program name.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(ServiceConfig, bool, ObsOutputs), String> {
    let mut config = ServiceConfig {
        workload: WorkloadKind::paper_phases(),
        ..Default::default()
    };
    let mut csv = false;
    let mut obs = ObsOutputs::default();
    while let Some(arg) = args.next() {
        let (args, name) = (&mut args, arg.as_str());
        match name {
            "--policy" => {
                config.policy = match value::<String>(args, name)?.as_str() {
                    "no-index" => IndexPolicy::NoIndex,
                    "random" => IndexPolicy::Random,
                    "gain-no-delete" => IndexPolicy::Gain { delete: false },
                    "gain" => IndexPolicy::Gain { delete: true },
                    other => return Err(format!("unknown policy {other:?}")),
                }
            }
            "--workload" => {
                config.workload = match value::<String>(args, name)?.as_str() {
                    "random" => WorkloadKind::Random,
                    "phases" => WorkloadKind::paper_phases(),
                    other => return Err(format!("unknown workload {other:?}")),
                }
            }
            "--scheduler" => {
                config.scheduler = match value::<String>(args, name)?.as_str() {
                    "skyline" => SchedulerKind::Skyline,
                    "online-lb" => SchedulerKind::OnlineLoadBalance,
                    other => return Err(format!("unknown scheduler {other:?}")),
                }
            }
            "--interleaver" => {
                config.interleaver = match value::<String>(args, name)?.as_str() {
                    "lp" => InterleaverKind::Lp,
                    "online" => InterleaverKind::Online,
                    other => return Err(format!("unknown interleaver {other:?}")),
                }
            }
            "--quanta" => config.params.total_quanta = value(args, name)?,
            "--seed" => config.params.seed = value(args, name)?,
            "--alpha" => config.params.tuner.alpha = value(args, name)?,
            "--fading-d" => config.params.tuner.fading_d = value(args, name)?,
            "--window-w" => config.params.tuner.window_w = value(args, name)?,
            "--concurrency" => config.concurrency = value(args, name)?,
            "--error" => {
                let e = value(args, name)?;
                config.estimation_error = (e, e);
            }
            "--adaptive" => config.adaptive_fading = true,
            "--deferred" => config.deferred_builds = true,
            "--fault-rate" => config.faults.rate = value(args, name)?,
            "--fault-seed" => config.faults.seed = value(args, name)?,
            "--crash-share" => config.faults.crash_build_share = value(args, name)?,
            "--torn-share" => config.faults.torn_write_share = value(args, name)?,
            "--calibrate-io" => config.calibrate_index_io = true,
            "--recovery-policy" => {
                config.recovery.policy = RecoveryPolicyKind::parse(&value::<String>(args, name)?)
                    .map_err(|e| e.to_string())?
            }
            "--trace-out" => obs.trace = Some(value(args, name)?),
            "--metrics-out" => obs.metrics = Some(value(args, name)?),
            "--csv" => csv = true,
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok((config, csv, obs))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse the flags, run the service and print its report.
fn run() -> Result<(), String> {
    // flowtune-allow(determinism): CLI argument parsing is this binary's input boundary
    let (config, csv, obs) = parse_args(std::env::args().skip(1))?;
    let (policy, faulted) = (config.policy, config.faults.is_active());
    if obs.active() {
        flowtune_obs::install();
    }
    let quanta = config.params.total_quanta;
    eprintln!("running {} for {} quanta...", policy.label(), quanta);
    let report = QaasService::new(config).run().map_err(|e| e.to_string())?;
    if obs.active() {
        obs.write()?;
    }

    println!("policy:              {}", policy.label());
    println!("dataflows issued:    {}", report.dataflows_issued);
    println!("dataflows finished:  {}", report.dataflows_finished);
    println!(
        "avg time/dataflow:   {:.2} quanta",
        report.avg_makespan_quanta().get()
    );
    println!("cost/dataflow:       ${:.3}", report.cost_per_dataflow());
    println!("compute cost:        {}", report.compute_cost);
    println!("index storage cost:  {}", report.index_storage_cost);
    println!("builds completed:    {}", report.builds_completed);
    println!(
        "builds killed:       {} ({:.1} % of all ops)",
        report.builds_killed,
        report.killed_percentage()
    );
    println!("indexes deleted:     {}", report.indexes_deleted);
    if faulted {
        println!("dataflows failed:    {}", report.dataflows_failed);
        println!("containers revoked:  {}", report.containers_revoked);
        println!("ops killed by fault: {}", report.ops_killed_by_fault);
        println!("storage faults:      {}", report.storage_faults);
        println!("straggler ops:       {}", report.straggler_ops);
        println!(
            "builds failed:       {} (+{} killed by revocation)",
            report.builds_failed, report.builds_killed_by_fault
        );
        println!("retries:             {}", report.retries);
        println!("builds crashed:      {}", report.builds_crashed);
        println!(
            "verify scan:         {} pages, {} bad, {} partitions invalidated",
            report.verify_pages_scanned, report.bad_pages_detected, report.partitions_invalidated
        );
        println!("rebuilds completed:  {}", report.rebuilds_completed);
        println!(
            "wasted:              {:.2} quanta / {}",
            report.wasted_compute_quanta.get(),
            report.wasted_cost
        );
        println!(
            "recovery latency:    p50 {:.2} / p95 {:.2} / p100 {:.2} quanta",
            report.recovery_latency_percentile(50.0),
            report.recovery_latency_percentile(95.0),
            report.recovery_latency_percentile(100.0)
        );
    }
    if csv {
        println!();
        println!("app,issued_quanta,makespan_quanta,indexed_fraction");
        for d in &report.per_dataflow {
            println!(
                "{},{:.3},{:.3},{:.3}",
                d.app,
                d.issued_quanta.get(),
                d.makespan_quanta.get(),
                d.indexed_fraction
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_defaults_match_the_parsed_config() {
        let (config, ..) = parse_args(std::iter::empty()).unwrap();
        let (tuner, faults) = (&config.params.tuner, &config.faults);
        let parsed = [
            ("--quanta", config.params.total_quanta as f64),
            ("--alpha", tuner.alpha),
            ("--fading-d", tuner.fading_d),
            ("--window-w", tuner.window_w),
            ("--concurrency", config.concurrency as f64),
            ("--error", config.estimation_error.0),
            ("--fault-rate", faults.rate),
            ("--crash-share", faults.crash_build_share),
            ("--torn-share", faults.torn_write_share),
        ];
        // Every numeric `[default]` the help prints, by flag.
        let printed: Vec<(&str, f64)> = HELP
            .lines()
            .filter_map(|line| {
                let flag = line.split_whitespace().next()?;
                let default = line.trim_end().strip_suffix(']')?.rsplit_once('[')?.1;
                Some((flag, default.parse().ok()?))
            })
            .collect();
        assert_eq!(printed, parsed);
    }
}
