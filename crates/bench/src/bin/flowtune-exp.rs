//! `flowtune-exp` — run one experiment of the paper's evaluation by
//! name (the entries of `flowtune_bench::exp::REGISTRY`).
//!
//! ```bash
//! flowtune-exp fig12_phase_workload --smoke
//! flowtune-exp fault_matrix --trace-out trace.jsonl --metrics-out metrics.json
//! flowtune-exp bench_sched          # regenerates ./BENCH_sched.json
//! ```
//!
//! Exit status: 0 on success; 1 when the run breaks, one of its checks
//! fails (the Table 6 speedup ordering, say) or an output file cannot
//! be written; 2 on a bad command line, before anything runs.

use std::process::ExitCode;

use flowtune_bench::exp::{Experiment, REGISTRY};

const USAGE: &str =
    "usage: flowtune-exp <name> [--smoke] [--trace-out <path>] [--metrics-out <path>]";

/// What the command line asks for.
#[derive(Debug)]
struct Invocation {
    exp: &'static Experiment,
    smoke: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

/// Parse the arguments after the program name. Every mistake is an
/// error, so a typo cannot silently run the full-size experiment.
fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let (mut name, mut smoke, mut trace_out, mut metrics_out) = (None, false, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--trace-out" => trace_out = Some(path_after(&mut it, arg)?),
            "--metrics-out" => metrics_out = Some(path_after(&mut it, arg)?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            positional => {
                if let Some(first) = name.replace(positional) {
                    return Err(format!(
                        "one experiment per run, got `{first}` and `{positional}`"
                    ));
                }
            }
        }
    }
    let names: Vec<_> = REGISTRY.iter().map(|e| e.name).collect();
    let one_of = format!("one of: {}", names.join(", "));
    let name = name.ok_or_else(|| format!("missing experiment name; {one_of}"))?;
    let exp = REGISTRY
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}`; {one_of}"))?;
    Ok(Invocation {
        exp,
        smoke,
        trace_out,
        metrics_out,
    })
}

/// The path that must follow `flag`.
fn path_after<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, String> {
    it.next()
        .filter(|p| !p.starts_with("--"))
        .cloned()
        .ok_or_else(|| format!("{flag} needs a path"))
}

fn main() -> ExitCode {
    #[expect(
        clippy::disallowed_methods,
        reason = "the command line is the binary's input boundary"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match parse_args(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if inv.trace_out.is_some() || inv.metrics_out.is_some() {
        flowtune_obs::install();
    }
    let ran = inv.exp.report(inv.smoke, &mut std::io::stdout().lock());
    let wrote = flowtune_obs::write_outputs(inv.trace_out.as_deref(), inv.metrics_out.as_deref());
    let mut status = ExitCode::SUCCESS;
    for err in [ran.map_err(|e| e.to_string()), wrote]
        .into_iter()
        .filter_map(Result::err)
    {
        eprintln!("error: {}: {err}", inv.exp.name);
        status = ExitCode::FAILURE;
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        parse_args(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_a_name_and_the_three_flags_in_any_order() {
        let inv = parse(&[
            "--metrics-out",
            "m.json",
            "fig12_phase_workload",
            "--smoke",
            "--trace-out",
            "t.jsonl",
        ])
        .unwrap();
        assert_eq!(inv.exp.name, "fig12_phase_workload");
        assert!(inv.smoke);
        assert_eq!(inv.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(inv.metrics_out.as_deref(), Some("m.json"));
        let plain = parse(&["table4_dataflow_stats"]).unwrap();
        assert!(!plain.smoke && plain.trace_out.is_none() && plain.metrics_out.is_none());
    }

    #[test]
    fn rejects_each_malformed_command_line_and_lists_the_names_when_one_is_wrong() {
        // A misspelt --smoke would otherwise run the 720-quanta
        // experiment. Flag errors stop the parse before any name lookup.
        for (args, want, lists_names) in [
            (&["x", "--smok"][..], "unknown flag `--smok`", false),
            (&["-s", "x"], "unknown flag `-s`", false),
            (&["x", "--trace-out"], "--trace-out needs a path", false),
            (
                &["x", "--metrics-out", "--smoke"],
                "--metrics-out needs",
                false,
            ),
            (&["x", "y"], "one experiment per run, got `x`", false),
            (&["fig99", "--smoke"], "unknown experiment `fig99`", true),
            (&["--smoke"], "missing experiment name", true),
            (&[], "missing experiment name", true),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(want), "{args:?}: {err}");
            for e in REGISTRY {
                assert_eq!(err.contains(e.name), lists_names, "{args:?}: {err}");
            }
        }
    }
}
