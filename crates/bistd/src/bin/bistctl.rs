//! The campaign service control client.
//!
//! ```text
//! bistctl --server unix:/tmp/bistd.sock run --design LP --gen LFSR-D --vectors 4096
//! bistctl --server 127.0.0.1:4817 metrics
//! bistctl --server 127.0.0.1:4817 shutdown
//! ```
//!
//! `run` submits and waits, printing one JSON object
//! `{"job":…,"cached":…,"key":…,"artifact":{…}}` on stdout — the
//! `cached` field is what the CI smoke test asserts on. Admission-lint
//! diagnostics from the daemon are rendered human-readably on stderr
//! (one line per diagnostic plus a severity summary); stdout stays
//! pure machine JSON. All errors go to stderr with a non-zero exit:
//! 2 for usage problems (including an unknown `--design`/`--gen`,
//! reported with the known names), 1 for server/transport failures —
//! structured server refusals are unpacked into readable multi-line
//! output instead of a raw JSON dump. A reader that closes stdout
//! early (`bistctl … | head -1`) ends the output quietly with exit 0.

use bist_bistd::{Client, ClientError, ServerAddr};
use bist_core::campaign::{CampaignSpec, KNOWN_DESIGNS, KNOWN_GENERATORS};
use bist_core::session::{ResponseCheck, SatConfig};
use bist_core::{SimEngine, TopOffConfig};
use obs::JsonValue;
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "usage: bistctl --server <addr> <command> [options]
  <addr> is host:port or unix:<path>
commands:
  run      --design <name> --gen <name> --vectors <n>
           [--misr <bits>] [--mode trace|signature] [--threads <n>]
           [--boundaries <c1,c2,...>] [--topoff <block>,<seeds>]
           [--sat <conflicts>[,noequiv]] [--collapse] [--engine kernel|walker]
           [--deadline-ms <ms>]
                                        submit and wait; prints result JSON
  submit   (same options as run)       submit without waiting; prints job JSON
  status   <job>                       print a job's state
  fetch    <job>                       wait for a job and print its artifact
  result   <job> [--residues] [--json] wait for a job and summarize its top-off
                                       and collapse outcome (--residues lists
                                       per-fault verdicts; --json prints the
                                       raw reports)
  cancel   <job>                       cancel a queued or running job
  metrics                              print the daemon's metric snapshot
  shutdown                             drain the daemon and stop it";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|()| out.flush().map_err(CtlError::Output)) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed the pipe early (`bistctl ... | head -1`)
        // has all the output it wants; that is not an error.
        Err(CtlError::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(CtlError::Output(e)) => {
            eprintln!("bistctl: cannot write output: {e}");
            ExitCode::FAILURE
        }
        Err(CtlError::Usage(message)) => {
            eprintln!("bistctl: {message}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CtlError::Client(ClientError::Server { code, message, retry_after_ms })) => {
            // Unpack structured refusals into readable lines instead of
            // one raw "server error (...)" blob.
            eprintln!("bistctl: the daemon refused the request");
            eprintln!("  code: {code}");
            for line in message.lines() {
                eprintln!("  {line}");
            }
            if let Some(ms) = retry_after_ms {
                eprintln!("  retry after: {ms} ms");
            }
            ExitCode::FAILURE
        }
        Err(CtlError::Client(e)) => {
            eprintln!("bistctl: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders admission-lint diagnostics readably on stderr, keeping
/// stdout pure machine JSON for scripted consumers.
fn render_lint(diags: &[obs::Diagnostic]) {
    if diags.is_empty() {
        return;
    }
    let (errors, warns, infos) = obs::diag::severity_counts(diags);
    eprintln!("bistctl: admission lint: {errors} error(s), {warns} warning(s), {infos} info(s)");
    for d in diags {
        eprintln!("  {d}");
    }
}

enum CtlError {
    Usage(String),
    Client(ClientError),
    Output(io::Error),
}

impl From<io::Error> for CtlError {
    fn from(e: io::Error) -> Self {
        CtlError::Output(e)
    }
}

impl From<ClientError> for CtlError {
    fn from(e: ClientError) -> Self {
        CtlError::Client(e)
    }
}

fn usage(message: impl Into<String>) -> CtlError {
    CtlError::Usage(message.into())
}

fn run(args: &[String], out: &mut impl Write) -> Result<(), CtlError> {
    let mut iter = args.iter();
    let server = match (iter.next().map(String::as_str), iter.next()) {
        (Some("--server"), Some(addr)) => ServerAddr::parse(addr),
        _ => return Err(usage("expected --server <addr> first")),
    };
    let command = iter.next().ok_or_else(|| usage("missing command"))?;
    let rest: Vec<&String> = iter.collect();
    let connect = || Client::connect(&server).map_err(CtlError::Client);
    match command.as_str() {
        "run" => {
            let (spec, deadline_ms) = parse_spec(&rest)?;
            let result = connect()?.run_campaign(&spec, deadline_ms)?;
            render_lint(&result.lint);
            let mut line = JsonValue::object()
                .push("job", result.job)
                .push("cached", result.cached)
                .push("key", result.key.as_str())
                .push("mode", result.mode.as_str());
            if !result.lint.is_empty() {
                line = line.push("lint", obs::diag::diagnostics_to_json(&result.lint));
            }
            line = line.push("artifact", result.artifact);
            writeln!(out, "{}", line.to_json())?;
        }
        "submit" => {
            let (spec, deadline_ms) = parse_spec(&rest)?;
            let submission = connect()?.submit(&spec, deadline_ms)?;
            render_lint(&submission.lint);
            let mut line = JsonValue::object()
                .push("job", submission.job)
                .push("cached", submission.cached)
                .push("key", submission.key.as_str())
                .push("mode", submission.mode.as_str());
            if !submission.lint.is_empty() {
                line = line.push("lint", obs::diag::diagnostics_to_json(&submission.lint));
            }
            writeln!(out, "{}", line.to_json())?;
        }
        "status" => {
            let job = parse_job(&rest)?;
            let (state, detail) = connect()?.status(job)?;
            let mut line = JsonValue::object().push("job", job).push("state", state.as_str());
            if let Some(d) = detail {
                line = line.push("detail", d);
            }
            writeln!(out, "{}", line.to_json())?;
        }
        "fetch" => {
            let job = parse_job(&rest)?;
            let (cached, artifact) = connect()?.fetch_artifact(job)?;
            let line = JsonValue::object()
                .push("job", job)
                .push("cached", cached)
                .push("artifact", artifact);
            writeln!(out, "{}", line.to_json())?;
        }
        "result" => {
            let (job, residues, json) = parse_result_args(&rest)?;
            let (_, artifact) = connect()?.fetch_artifact(job)?;
            if json {
                // Either report key may be absent — from a run without
                // the stage, or from a pre-collapse daemon — and both
                // degrade to an explicit null instead of a parse error.
                let optional = |name: &str| match artifact.get(name) {
                    Some(t) => t.clone(),
                    None => JsonValue::Null,
                };
                writeln!(
                    out,
                    "{}",
                    JsonValue::object()
                        .push("job", job)
                        .push("topoff", optional("topoff"))
                        .push("collapse", optional("collapse"))
                        .to_json()
                )?;
            } else {
                render_result(out, job, &artifact, residues)?;
            }
        }
        "cancel" => {
            let job = parse_job(&rest)?;
            connect()?.cancel(job)?;
            writeln!(
                out,
                "{}",
                JsonValue::object().push("job", job).push("cancelled", true).to_json()
            )?;
        }
        "metrics" => {
            let snapshot = connect()?.metrics()?;
            write!(out, "{}", snapshot.to_json_pretty())?;
        }
        "shutdown" => {
            connect()?.shutdown()?;
            writeln!(out, "{}", JsonValue::object().push("shutdown", true).to_json())?;
        }
        other => return Err(usage(format!("unknown command '{other}'"))),
    }
    Ok(())
}

fn parse_job(rest: &[&String]) -> Result<u64, CtlError> {
    match rest {
        [id] => id.parse().map_err(|_| usage(format!("'{id}' is not a job id"))),
        _ => Err(usage("expected exactly one job id")),
    }
}

/// Parses `result <job> [--residues] [--json]`.
fn parse_result_args(rest: &[&String]) -> Result<(u64, bool, bool), CtlError> {
    let (mut job, mut residues, mut json) = (None, false, false);
    for arg in rest {
        match arg.as_str() {
            "--residues" => residues = true,
            "--json" => json = true,
            id if job.is_none() => {
                job = Some(id.parse().map_err(|_| usage(format!("'{id}' is not a job id")))?);
            }
            other => return Err(usage(format!("unknown option '{other}'"))),
        }
    }
    Ok((job.ok_or_else(|| usage("result needs a job id"))?, residues, json))
}

/// Human-readable `result` rendering: the run's headline coverage line
/// plus the top-off verdict partition and plan storage, and (with
/// `--residues`) one line per residual fault with its site provenance.
fn render_result(
    out: &mut impl Write,
    job: u64,
    artifact: &JsonValue,
    residues: bool,
) -> io::Result<()> {
    let text = |v: Option<&JsonValue>| v.and_then(JsonValue::as_str).unwrap_or("?").to_string();
    let count = |v: Option<&JsonValue>| v.and_then(JsonValue::as_u64).unwrap_or(0);
    let coverage = artifact.get("coverage").and_then(JsonValue::as_f64).unwrap_or(0.0);
    writeln!(
        out,
        "job {job}: {} on {}, coverage {:.2}% ({}/{}, {} missed)",
        text(artifact.get("generator")),
        text(artifact.get("design")),
        100.0 * coverage,
        count(artifact.get("detected")),
        count(artifact.get("total_faults")),
        count(artifact.get("missed")),
    )?;
    if let Some(collapse) = artifact.get("collapse") {
        let ratio = collapse.get("reduction_vs_raw").and_then(JsonValue::as_f64).unwrap_or(0.0);
        writeln!(
            out,
            "collapse: {} raw line(s) -> {} class(es) ({} prime, {:.1}% reduction), \
             {} machine(s) simulated",
            count(collapse.get("raw_lines")),
            count(collapse.get("classes_after")),
            count(collapse.get("prime_classes")),
            100.0 * ratio,
            count(collapse.get("classes_after")),
        )?;
    }
    if let Some(sat) = artifact.get("sat") {
        writeln!(
            out,
            "sat: {}/{} candidate(s) proven redundant (universe {} -> {}), \
             {} witness(es) confirmed, {} over budget",
            count(sat.get("redundant_proven")),
            count(sat.get("candidates")),
            count(sat.get("universe_before")),
            count(sat.get("universe_before")) - count(sat.get("redundant_proven")),
            count(sat.get("witnesses_confirmed")),
            count(sat.get("unknown")),
        )?;
        if sat.get("equiv_checked").and_then(JsonValue::as_bool).unwrap_or(false) {
            let proved = sat.get("equiv_proved").and_then(JsonValue::as_bool).unwrap_or(false);
            writeln!(
                out,
                "  equivalence: {} ({} lemma(s))",
                if proved { "proved" } else { "REFUTED" },
                count(sat.get("equiv_lemmas")),
            )?;
        }
    }
    let Some(top) = artifact.get("topoff") else {
        writeln!(out, "no top-off report (submit with --topoff to enable the stage)")?;
        return Ok(());
    };
    let redundant = count(top.get("redundant"));
    let redundant_note =
        if redundant == 0 { String::new() } else { format!(", {redundant} redundant") };
    writeln!(
        out,
        "top-off: {} residual — {} detected, {} untestable{redundant_note}, {} unresolved",
        count(top.get("residue")),
        count(top.get("detected")),
        count(top.get("untestable")),
        count(top.get("unresolved")),
    )?;
    writeln!(
        out,
        "  plan: {} seed(s) ({} bits) + {} stored pattern(s) ({} bits), \
         {} top-off vectors (block {})",
        count(top.get("seeds")),
        count(top.get("seed_bits")),
        count(top.get("stored_patterns")),
        count(top.get("stored_bits")),
        count(top.get("total_vectors")),
        count(top.get("block_len")),
    )?;
    writeln!(
        out,
        "  screened untestable before simulation: {}",
        count(top.get("screened_untestable"))
    )?;
    if !residues {
        return Ok(());
    }
    let verdicts = top.get("verdicts").and_then(JsonValue::as_array);
    match verdicts {
        None => writeln!(out, "residues: (none recorded)")?,
        Some(list) => {
            writeln!(out, "residues:")?;
            for v in list {
                let stuck = if v.get("stuck_one").and_then(JsonValue::as_bool).unwrap_or(false) {
                    1
                } else {
                    0
                };
                writeln!(
                    out,
                    "  fault {:>5}  {}[cell {}] {} s-a-{stuck}  {}",
                    count(v.get("fault")),
                    text(v.get("node")),
                    count(v.get("cell")),
                    text(v.get("line")),
                    text(v.get("verdict")),
                )?;
            }
        }
    }
    Ok(())
}

/// Builds a [`CampaignSpec`] from `run`/`submit` flags, validating it
/// locally so typos fail with the known names instead of a round trip.
fn parse_spec(rest: &[&String]) -> Result<(CampaignSpec, Option<u64>), CtlError> {
    let (mut design, mut generator, mut vectors, mut mode) = (None, None, None, None);
    let (mut misr, mut threads, mut boundaries, mut deadline_ms) = (None, None, None, None);
    let (mut topoff, mut sat) = (None, None);
    let mut collapse = false;
    let mut engine = None;
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        // Valueless switches come before the flag/value pairing.
        if flag.as_str() == "--collapse" {
            collapse = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--design" => design = Some(value.to_string()),
            "--gen" => generator = Some(value.to_string()),
            "--vectors" => vectors = Some(num(flag, value)?),
            "--misr" => misr = Some(num::<u32>(flag, value)?),
            "--mode" => {
                mode = Some(ResponseCheck::parse(value).ok_or_else(|| {
                    usage(format!("--mode: '{value}' is not 'trace' or 'signature'"))
                })?);
            }
            "--threads" => threads = Some(num(flag, value)?),
            "--engine" => {
                engine = Some(SimEngine::parse(value).ok_or_else(|| {
                    usage(format!("--engine: '{value}' is not 'kernel' or 'walker'"))
                })?);
            }
            "--deadline-ms" => deadline_ms = Some(num::<u64>(flag, value)?),
            "--boundaries" => {
                let cycles: Result<Vec<u32>, _> =
                    value.split(',').map(|c| num(flag, c.trim())).collect();
                boundaries = Some(cycles?);
            }
            "--sat" => {
                let (conflicts, equiv) = match value.split_once(',') {
                    None => (value.as_str(), true),
                    Some((c, "noequiv")) => (c, false),
                    Some((_, tail)) => {
                        return Err(usage(format!(
                            "--sat: '{tail}' is not 'noequiv' (expected \
                             <max_conflicts>[,noequiv])"
                        )));
                    }
                };
                sat = Some(SatConfig { max_conflicts: num(flag, conflicts.trim())?, equiv });
            }
            "--topoff" => {
                let parts: Vec<&str> = value.split(',').collect();
                let [block, seeds] = parts.as_slice() else {
                    return Err(usage(format!(
                        "--topoff: '{value}' is not <block_len>,<max_seeds>"
                    )));
                };
                topoff = Some(TopOffConfig {
                    block_len: num(flag, block.trim())?,
                    max_seeds: num(flag, seeds.trim())?,
                });
            }
            other => return Err(usage(format!("unknown option '{other}'"))),
        }
    }
    let design = design.ok_or_else(|| usage("--design is required"))?;
    let generator = generator.ok_or_else(|| usage("--gen is required"))?;
    let vectors = vectors.ok_or_else(|| usage("--vectors is required"))?;
    let mut spec = CampaignSpec::new(design, generator, vectors);
    if let Some(m) = misr {
        spec.misr_width = m;
    }
    if let Some(m) = mode {
        spec.mode = m;
    }
    if let Some(t) = threads {
        spec.threads = t;
    }
    spec.boundaries = boundaries;
    spec.topoff = topoff;
    spec.sat = sat;
    spec.collapse = collapse;
    if let Some(e) = engine {
        spec.engine = e;
    }
    spec.validate().map_err(|e| {
        usage(format!(
            "{e}\n  known designs: {}\n  known generators: {}, or Mixed@<n>",
            KNOWN_DESIGNS.join(", "),
            KNOWN_GENERATORS.join(", ")
        ))
    })?;
    Ok((spec, deadline_ms))
}

fn num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, CtlError> {
    text.parse().map_err(|_| usage(format!("{flag}: '{text}' is not a valid number")))
}
