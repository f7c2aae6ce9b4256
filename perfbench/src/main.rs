//! The netfi benchmark: four workloads timed end to end, and a traced
//! run that splits the time by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <testbed-saturated|fabric-1000|inject-sample|detect-100> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload` picks the untraced run. A traced run (`--trace 1`) prints
//! the whole per-layer ledger, which covers every workload, so it does not
//! need one and does not depend on it.
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod layers;
mod probe;
mod report;
mod sys;
mod timed;
mod workloads;

use report::{emit, Checks, Metrics, Tally};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "testbed-saturated",
    "fabric-1000",
    "inject-sample",
    "detect-100",
];

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| **w == value);
                workload = Some(*known.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = trace.unwrap_or(false);
    if workload.is_none() && !trace {
        return Err("--workload is required unless --trace 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("netfi-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut checks = Checks::default();
    match args.workload {
        Some(workload) if !args.trace => {
            let run = match workload {
                "testbed-saturated" => timed::testbed,
                "fabric-1000" => timed::fabric,
                "inject-sample" => timed::sample,
                _ => timed::detect,
            };
            let measured = run(args.seed, args.seconds, &mut tally, &mut checks);
            measured.report(workload, &mut metrics);
        }
        _ => layers::ledger(
            args.seed,
            args.seconds,
            &mut metrics,
            &mut tally,
            &mut checks,
        ),
    }
    emit(&metrics, tally, checks.ok());
    ExitCode::SUCCESS
}
