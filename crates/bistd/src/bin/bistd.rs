//! The campaign service daemon binary.
//!
//! ```text
//! bistd --tcp 127.0.0.1:4817 --unix /tmp/bistd.sock \
//!       --workers 4 --queue-cap 32 --cache-cap 128 \
//!       --spill /tmp/bistd-cache.jsonl --deadline-ms 600000
//! ```
//!
//! Runs until a client sends `shutdown`, then drains in-flight jobs,
//! spills the result cache, and exits 0.

use bist_bistd::{Daemon, DaemonConfig, LintMode};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: bistd [options]
  --tcp <host:port>     listen on TCP (e.g. 127.0.0.1:4817; port 0 = ephemeral)
  --unix <path>         listen on a Unix domain socket
  --workers <n>         worker threads, 1 to 64 (default 2)
  --queue-cap <n>       how many jobs may wait for a worker, at least 1
                        (default 16); running jobs do not count, and a
                        cancelled job frees its slot
  --cache-cap <n>       result cache capacity in artifacts (default 64)
  --spill <path>        JSONL cache spill file (loaded at start, written at shutdown)
  --deadline-ms <ms>    default per-job deadline for submits without one
  --lint <mode>         admission-time static analysis: off, annotate
                        (default; diagnostics ride along with the job),
                        or reject (refuse on error-severity diagnostics)
at least one of --tcp / --unix is required";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("bistd: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let daemon = match Daemon::start(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("bistd: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = daemon.tcp_addr() {
        println!("bistd: listening on tcp {addr}");
    }
    if let Some(path) = daemon.unix_path() {
        println!("bistd: listening on unix {}", path.display());
    }
    println!("bistd: ready");
    let _ = std::io::stdout().flush();
    match daemon.join() {
        Ok(()) => {
            println!("bistd: drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bistd: shutdown incomplete: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig::default();
    let mut iter = args.iter();
    let value = |flag: &str, iter: &mut std::slice::Iter<String>| {
        iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--tcp" => config.tcp = Some(value(flag, &mut iter)?),
            "--unix" => config.unix = Some(value(flag, &mut iter)?.into()),
            "--workers" => config.workers = parse_num(flag, &value(flag, &mut iter)?)?,
            "--queue-cap" => config.queue_capacity = parse_num(flag, &value(flag, &mut iter)?)?,
            "--cache-cap" => config.cache_capacity = parse_num(flag, &value(flag, &mut iter)?)?,
            "--spill" => config.spill = Some(value(flag, &mut iter)?.into()),
            "--deadline-ms" => {
                config.default_deadline_ms = Some(parse_num::<u64>(flag, &value(flag, &mut iter)?)?)
            }
            "--lint" => {
                let mode = value(flag, &mut iter)?;
                config.lint = LintMode::parse(&mode)
                    .ok_or_else(|| format!("--lint: '{mode}' is not off/annotate/reject"))?
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag}: '{text}' is not a valid number"))
}
