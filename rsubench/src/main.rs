//! `rsubench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints a human-readable table, one JSON record with the host stamp, and
//! as the last line `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when a correctness check fails and 2 on a usage error.

use rsubench::rig::Workload;
use rsubench::{run, Spec, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str =
    "usage: rsubench --workload <paper_fleet|dense_fleet|handover> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Spec, String> {
    let mut spec =
        Spec { workload: Workload::PaperFleet, seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                spec.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                spec.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(spec.seconds >= 0.0 && spec.seconds.is_finite()) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    spec.workload = workload.ok_or("--workload is required")?;
    Ok(spec)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("rsubench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&spec) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rsubench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.table());
    println!("{}", report.record_json());
    println!("{}", report.final_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
