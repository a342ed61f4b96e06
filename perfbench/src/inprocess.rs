//! The in-process workloads (`sig-lp`, `trace-grid`, `proof-topoff`):
//! batches of campaigns driven straight through `BistSession::run`.
//! With `--trace 1` every untraced batch is followed by a traced batch
//! that replays the same campaigns layer by layer.

use crate::digest::{Digest, Expected};
use crate::replay::{self, Totals};
use crate::report::{median, ms_since, quantile, Report};
use crate::trace::{self, Span, Tracer};
use crate::workload::batch_order;
use crate::Args;
use bist_core::campaign::{build_design, CampaignSpec};
use bist_core::session::{BistRun, BistSession};
use filters::FilterDesign;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Where traced runs write their spans.
pub const WORK_DIR: &str = ".perfbench";

/// One set-up's timings.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    /// The whole set-up, in seconds.
    pub total_s: f64,
    /// Design elaboration, in ms.
    pub build_ms: f64,
    /// `BistSession::new` over every design, in ms.
    pub session_ms: f64,
}

/// The designs a workload needs, elaborated, with their sessions.
pub struct Prepared {
    names: Vec<String>,
    sessions: Vec<BistSession<'static>>,
    /// Every set-up's timings.
    pub timings: Vec<SetupTiming>,
}

impl Prepared {
    /// Elaborates every design `cells` name and builds its session,
    /// [`SETUP_REPS`] times; the last set-up is kept.
    pub fn new(cells: &[CampaignSpec]) -> Result<Prepared, String> {
        let mut names: Vec<String> = Vec::new();
        for cell in cells {
            if !names.contains(&cell.design) {
                names.push(cell.design.clone());
            }
        }
        let sessions_for = |designs: &'static [FilterDesign]| {
            designs
                .iter()
                .map(|d| BistSession::new(d).map_err(|e| format!("session for {}: {e}", d.name())))
                .collect::<Result<Vec<_>, _>>()
        };
        let mut timings = Vec::with_capacity(SETUP_REPS);
        for rep in 1..=SETUP_REPS {
            let started = Instant::now();
            let designs = names
                .iter()
                .map(|n| build_design(n))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("elaborating designs: {e}"))?;
            let build_ms = ms_since(started);
            // Sessions borrow their designs for the rest of the process;
            // the throwaway set-ups leak only their (small) designs.
            let designs: &'static [FilterDesign] = Box::leak(designs.into_boxed_slice());
            let sessions_started = Instant::now();
            let sessions = sessions_for(designs)?;
            timings.push(SetupTiming {
                total_s: started.elapsed().as_secs_f64(),
                build_ms,
                session_ms: ms_since(sessions_started),
            });
            if rep == SETUP_REPS {
                return Ok(Prepared { names, sessions, timings });
            }
        }
        unreachable!("SETUP_REPS is positive")
    }

    /// The session of `design`.
    pub fn session(&self, design: &str) -> &BistSession<'static> {
        let index = self.names.iter().position(|n| n == design).expect("a session per design");
        &self.sessions[index]
    }

    /// Median set-up timings: `(total_s, build_ms, session_ms)`.
    pub fn median_timings(&self) -> (f64, f64, f64) {
        let pick =
            |f: fn(&SetupTiming) -> f64| median(&self.timings.iter().map(f).collect::<Vec<_>>());
        (pick(|t| t.total_s), pick(|t| t.build_ms), pick(|t| t.session_ms))
    }
}

/// Runs one campaign through `BistSession::run`; returns the run and
/// its host time in ms.
fn run_campaign(session: &BistSession<'_>, spec: &CampaignSpec) -> Result<(BistRun, f64), String> {
    let mut generator = spec.build_generator().map_err(|e| e.to_string())?;
    let config = spec.run_config(None);
    let started = Instant::now();
    let run = session.run(&mut *generator, &config).map_err(|e| e.to_string())?;
    Ok((run, ms_since(started)))
}

/// What the untraced batches of a run measured.
#[derive(Debug, Default)]
struct Measured {
    /// Each cell's campaign times, indexed like the workload's cells.
    campaign_ms: Vec<Vec<f64>>,
    batch_s: Vec<f64>,
    fault_vectors: f64,
    campaign_s: f64,
}

/// Runs every cell once, in the batch's seeded order, checking each
/// verdict against the committed digests; returns each cell's digest.
fn untraced_batch(
    prepared: &Prepared,
    cells: &[CampaignSpec],
    expected: &Expected,
    order: &[usize],
    report: &mut Report,
    measured: &mut Measured,
) -> Vec<Option<Digest>> {
    let started = Instant::now();
    let mut digests = vec![None; cells.len()];
    for &i in order {
        let spec = &cells[i];
        let session = prepared.session(&spec.design);
        report.attempted += 1;
        match run_campaign(session, spec) {
            Ok((run, ms)) => {
                measured.campaign_ms[i].push(ms);
                measured.campaign_s += ms / 1e3;
                measured.fault_vectors += session.universe().len() as f64 * spec.vectors as f64;
                let digest = Digest::of_run(&run);
                if let Err(e) = expected.check(&spec.canonical(), &digest) {
                    report.fail(&e);
                }
                digests[i] = Some(digest);
            }
            Err(e) => {
                measured.campaign_ms[i].push(f64::INFINITY);
                report.fail(&format!("{}: {e}", spec.canonical()));
            }
        }
    }
    measured.batch_s.push(started.elapsed().as_secs_f64());
    digests
}

/// Runs an in-process workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let cells = args.workload.cells();
    let expected = Expected::committed()?;
    let prepared = Prepared::new(&cells)?;
    let mut report = Report::default();
    let mut measured =
        Measured { campaign_ms: vec![Vec::new(); cells.len()], ..Measured::default() };
    let (setup_s, build_ms, session_ms) = prepared.median_timings();
    let started = Instant::now();

    if !args.trace {
        for batch in 0.. {
            let order = batch_order(args.seed, batch, cells.len());
            untraced_batch(&prepared, &cells, &expected, &order, &mut report, &mut measured);
            if started.elapsed() >= args.seconds {
                break;
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        // Percentiles over the cells, each cell taken at its median over
        // the batches: a few repeats of a handful of campaigns are too
        // few samples for a raw tail percentile.
        let cell_ms: Vec<f64> = measured.campaign_ms.iter().map(|ms| median(ms)).collect();
        report.set("setup_s", setup_s, Some(prepared.timings.len()));
        report.set("batch_s", median(&measured.batch_s), Some(measured.batch_s.len()));
        report.set("campaign_ms_p50", quantile(&cell_ms, 0.5), Some(cell_ms.len()));
        report.set("req_ms_p95", quantile(&cell_ms, 0.95), Some(cell_ms.len()));
        report.set("fault_vectors_per_s", measured.fault_vectors / measured.campaign_s, None);
        report.set("req_per_s", report.attempted as f64 / wall_s, None);
        report.set("peak_heap_mb", crate::heap::peak_mb(), None);
        return Ok(report);
    }

    // Traced: alternate untraced and traced batches over the same
    // campaigns; each traced batch yields one sample of every metric.
    let origin = Instant::now();
    let mut all_spans: Vec<Span> = Vec::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for batch in 0.. {
        let order = batch_order(args.seed, batch, cells.len());
        let untraced_started = Instant::now();
        let reference =
            untraced_batch(&prepared, &cells, &expected, &order, &mut report, &mut measured);
        let untraced_s = untraced_started.elapsed().as_secs_f64();

        let traced_started = Instant::now();
        let mut tracer = Tracer::new(origin);
        let mut totals = Totals::default();
        for &i in &order {
            let spec = &cells[i];
            report.attempted += 1;
            tracer.set_campaign(batch * cells.len() as u64 + i as u64);
            let replayed = match replay::replay(&mut tracer, prepared.session(&spec.design), spec) {
                Ok(r) => r,
                Err(e) => {
                    report.fail(&format!("traced {}: {e}", spec.canonical()));
                    continue;
                }
            };
            if let Err(e) = expected.check(&spec.canonical(), &replayed.digest) {
                report.fail(&format!("traced replay: {e}"));
            } else if reference[i].as_ref().is_some_and(|r| *r != replayed.digest) {
                report.fail(&format!(
                    "traced replay of {} differs from its untraced run",
                    spec.canonical()
                ));
            }
            if let Err(e) = &replayed.work {
                report.fail(&format!("{}: {e}", spec.canonical()));
            }
            totals.add(&replayed);
        }
        let traced_s = traced_started.elapsed().as_secs_f64();

        let spans = tracer.spans();
        let mut values = totals.layer_metrics(spans);
        let rooted_ms = trace::total_ms(spans, |s| s.parent.is_none());
        values.push(("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0));
        values.push(("trace.unattributed_ms", traced_s * 1e3 - rooted_ms));
        for (name, value) in values {
            samples.entry(name).or_default().push(value);
        }
        tracer.drain_into(&mut all_spans);
        if started.elapsed() >= args.seconds {
            break;
        }
    }
    report.set_all(samples.iter().map(|(name, v)| (*name, median(v))));
    report.set("filters.build_ms", build_ms, Some(prepared.timings.len()));
    report.set("core.session_new_ms", session_ms, Some(prepared.timings.len()));
    report.set_all(DAEMON_ONLY.map(|name| (name, 0.0)));
    write_spans(args, &all_spans)?;
    Ok(report)
}

/// Per-layer metrics of layers only `daemon-mix` calls.
const DAEMON_ONLY: [&str; 9] = [
    "lint.admission_ms",
    "bistd.submit_ms",
    "bistd.fetch_ms",
    "bistd.job_ms",
    "bistd.queue_wait_ms",
    "bistd.reply_bytes",
    "bistd.cache_hit_ratio",
    "bistd.hit_ms_p50",
    "bistd.miss_ms_p50",
];

/// Writes a traced run's spans to `.perfbench/trace-<workload>-<seed>.jsonl`.
pub fn write_spans(args: &Args, spans: &[Span]) -> Result<(), String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    trace::write(&format!("{WORK_DIR}/trace-{}-{}.jsonl", args.workload.name(), args.seed), spans)
}
