//! `perfbench` — the campaign benchmark of the filter-BIST workspace.
//!
//! One command runs a named workload from a seed, checks every verdict
//! against committed digests, and prints each metric by name with its
//! unit. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sig-lp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` adds a separate traced replay that calls each layer's
//! public entry point under a span and reports per-layer metrics. All
//! times are host time. `perfbench/README.md` describes the workloads
//! and every metric.

mod daemon_mix;
mod digest;
mod heap;
mod inprocess;
mod kernel;
mod replay;
mod report;
mod rng;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "usage: perfbench --workload <sig-lp|trace-grid|proof-topoff|daemon-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The parsed command line.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The seed every generated input derives from.
    pub seed: u64,
    /// How long to keep measuring (at least one batch always runs).
    pub seconds: Duration,
    /// Whether to run the traced replay and report per-layer metrics.
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed '{value}'"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds =
                    Some(Duration::from_secs_f64(s.ok_or(format!("bad --seconds '{value}'"))?));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::DaemonMix => daemon_mix::run(&args),
        _ => inprocess::run(&args),
    };
    match outcome {
        Ok(report) => {
            report.print(args.trace);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(text.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload trace-grid --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::TraceGrid);
        assert_eq!((a.seed, a.seconds, a.trace), (42, Duration::from_secs(10), true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload sig-lp --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload sig-lp --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload sig-lp --seed 1 --trace 0").is_err());
    }
}
