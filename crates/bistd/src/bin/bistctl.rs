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
//! `cached` field is what the smoke test (`tests/smoke.rs`) asserts
//! on. Admission-lint diagnostics from the daemon are rendered
//! human-readably on stderr (one line per diagnostic plus a severity
//! summary); stdout stays pure machine JSON. All errors go to stderr with a non-zero exit:
//! 2 for usage problems (including an unknown `--design`/`--gen`,
//! reported with the known names), 1 for server/transport failures —
//! structured server refusals are unpacked into readable multi-line
//! output instead of a raw JSON dump. A reader that closes stdout
//! early (`bistctl … | head -1`) ends the output quietly with exit 0.

use bist_bistd::{Client, ClientError, ServerAddr};
use bist_core::campaign::{CampaignSpec, KNOWN_DESIGNS, KNOWN_GENERATORS};
use bist_core::session::{ResponseCheck, SatConfig};
use bist_core::TopOffConfig;
use obs::JsonValue;
use std::io::{self, Write};
use std::process::ExitCode;

/// The usage text; [`usage_text`] fills `{run_flags}` in from
/// [`RUN_FLAGS`].
const USAGE: &str = "usage: bistctl --server <addr> <command> [options]
  <addr> is host:port or unix:<path>
commands:
  run      {run_flags}
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

/// What `run` and `submit` send: the campaign and its optional deadline.
struct Submission {
    spec: CampaignSpec,
    deadline_ms: Option<u64>,
}

/// One `run`/`submit` option: its flag, its value syntax (empty for a
/// switch), whether it is required, and how its value lands in the
/// submission. A setter's error text is prefixed with the flag.
type RunFlag = (&'static str, &'static str, bool, fn(&mut Submission, &str) -> Result<(), String>);

/// Every `run`/`submit` option; a knob without a flag keeps its
/// [`CampaignSpec::new`] default.
const RUN_FLAGS: [RunFlag; 11] = [
    ("--design", "<name>", true, |s, v| parse(v).map(|x| s.spec.design = x)),
    ("--gen", "<name>", true, |s, v| parse(v).map(|x| s.spec.generator = x)),
    ("--vectors", "<n>", true, |s, v| parse(v).map(|x| s.spec.vectors = x)),
    ("--misr", "<bits>", false, |s, v| parse(v).map(|x| s.spec.misr_width = x)),
    ("--mode", "trace|signature", false, |s, v| {
        let mode = ResponseCheck::parse(v).ok_or(format!("'{v}' is not 'trace' or 'signature'"));
        mode.map(|m| s.spec.mode = m)
    }),
    ("--threads", "<n>", false, |s, v| parse(v).map(|x| s.spec.threads = x)),
    ("--boundaries", "<c1,c2,...>", false, |s, v| {
        v.split(',').map(parse).collect::<Result<_, _>>().map(|c| s.spec.boundaries = Some(c))
    }),
    ("--topoff", "<block>,<seeds>", false, |s, v| {
        let Some((block, seeds)) = v.split_once(',').filter(|(_, seeds)| !seeds.contains(','))
        else {
            return Err(format!("'{v}' is not <block_len>,<max_seeds>"));
        };
        s.spec.topoff = Some(TopOffConfig { block_len: parse(block)?, max_seeds: parse(seeds)? });
        Ok(())
    }),
    ("--sat", "<conflicts>[,noequiv]", false, |s, v| {
        let (conflicts, equiv) = match v.split_once(',') {
            None => (v, true),
            Some((c, "noequiv")) => (c, false),
            Some((_, tail)) => {
                return Err(format!(
                    "'{tail}' is not 'noequiv' (expected <max_conflicts>[,noequiv])"
                ))
            }
        };
        s.spec.sat = Some(SatConfig { max_conflicts: parse(conflicts)?, equiv });
        Ok(())
    }),
    ("--collapse", "", false, |s, _| {
        s.spec.collapse = true;
        Ok(())
    }),
    ("--deadline-ms", "<ms>", false, |s, v| parse(v).map(|x| s.deadline_ms = Some(x))),
];

/// The usage text, with the `run` options rendered from [`RUN_FLAGS`].
fn usage_text() -> String {
    let mut lines: Vec<String> = Vec::new();
    for (flag, value, required, _) in RUN_FLAGS {
        let synopsis = format!("{flag} {value}");
        let synopsis = synopsis.trim_end();
        let item = if required { synopsis.to_string() } else { format!("[{synopsis}]") };
        match lines.last_mut() {
            Some(line) if line.len() + 1 + item.len() <= 68 => {
                line.push(' ');
                line.push_str(&item);
            }
            _ => lines.push(item),
        }
    }
    USAGE.replace("{run_flags}", &lines.join("\n           "))
}

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
            eprintln!("bistctl: {message}\n{}", usage_text());
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
            let Submission { spec, deadline_ms } = parse_spec(&rest)?;
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
            let Submission { spec, deadline_ms } = parse_spec(&rest)?;
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

/// Builds a [`Submission`] from `run`/`submit` flags (see
/// [`RUN_FLAGS`]), validating the spec locally so typos fail with the
/// known names instead of a round trip.
fn parse_spec(rest: &[&String]) -> Result<Submission, CtlError> {
    let mut submission = Submission { spec: CampaignSpec::new("", "", 0), deadline_ms: None };
    let mut given = Vec::new();
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        let &(_, syntax, _, set) = RUN_FLAGS
            .iter()
            .find(|row| row.0 == flag.as_str())
            .ok_or_else(|| usage(format!("unknown option '{flag}'")))?;
        let value = if syntax.is_empty() {
            ""
        } else {
            iter.next().ok_or_else(|| usage(format!("{flag} needs a value")))?
        };
        set(&mut submission, value).map_err(|e| usage(format!("{flag}: {e}")))?;
        given.push(flag.as_str());
    }
    if let Some((flag, ..)) = RUN_FLAGS.iter().find(|row| row.2 && !given.contains(&row.0)) {
        return Err(usage(format!("{flag} is required")));
    }
    submission.spec.validate().map_err(|e| {
        usage(format!(
            "{e}\n  known designs: {}\n  known generators: {}, or Mixed@<n>",
            KNOWN_DESIGNS.join(", "),
            KNOWN_GENERATORS.join(", ")
        ))
    })?;
    Ok(submission)
}

/// Parses one flag value (a name or a number; only numbers can fail).
fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.trim().parse().map_err(|_| format!("'{text}' is not a valid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(line: &str) -> Result<Submission, CtlError> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_spec(&args.iter().collect::<Vec<_>>())
    }

    #[test]
    fn every_run_flag_lands_in_the_spec() {
        let submission = parse_args(
            "--design LP-MINI --gen LFSR-D --vectors 1024 --misr 12 --mode signature \
             --boundaries 16,128,512 --threads 2 --topoff 64,8 --sat 20000 --collapse \
             --deadline-ms 500",
        )
        .ok()
        .expect("the full flag set parses");
        let golden = include_str!("../../../core/tests/golden/canonical_keys.txt");
        assert_eq!(Some(submission.spec.canonical().as_str()), golden.lines().last());
        assert_eq!(submission.deadline_ms, Some(500));
        // Flags left out keep the spec defaults.
        let plain = parse_args("--design LP --gen Ramp --vectors 64").ok().expect("parses");
        assert_eq!(plain.spec, CampaignSpec::new("LP", "Ramp", 64));
        assert_eq!(plain.deadline_ms, None);
    }

    #[test]
    fn bad_flags_are_usage_errors_naming_the_flag() {
        let base = "--design LP-MINI --gen LFSR-D --vectors 64";
        for (line, needle) in [
            (format!("{base} --topoff 64"), "--topoff"),
            (format!("{base} --sat 10,foo"), "--sat"),
            (format!("{base} --misr x"), "--misr"),
            (format!("{base} --misr 63"), "misr_width"),
            (format!("{base} --boundaries 64,32"), "boundaries"),
            (format!("{base} --threads"), "--threads needs a value"),
            ("--gen LFSR-D --vectors 64".to_string(), "--design is required"),
            (format!("{base} --engine kernel"), "unknown option '--engine'"),
        ] {
            match parse_args(&line) {
                Err(CtlError::Usage(message)) => {
                    assert!(message.contains(needle), "{line}: {message}")
                }
                _ => panic!("{line}: expected a usage error"),
            }
        }
    }

    #[test]
    fn usage_lists_every_run_flag() {
        let text = usage_text();
        for (flag, ..) in RUN_FLAGS {
            assert!(text.contains(flag), "{flag}");
        }
        assert!(!text.contains("{run_flags}"));
    }
}
