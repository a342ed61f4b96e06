//! The `daemon-mix` workload: an in-process `bistd::Daemon` on a Unix
//! socket with two workers, and two closed-loop clients sending a
//! seeded stream of LP-MINI campaigns. Each client's block of ten
//! requests per round holds eight drawn from a hot set of eight specs
//! (warmed into the cache at set-up, so they hit) and two fresh cold
//! specs (one trace, one signature), which miss.

use crate::digest::{Digest, Expected};
use crate::inprocess::{write_spans, Prepared, WORK_DIR};
use crate::replay::{self, Totals};
use crate::report::{mean, median, ms_since, quantile, Report};
use crate::rng::Rng;
use crate::trace::{self, Span, Tracer};
use crate::Args;
use bist_core::campaign::{CampaignSpec, KNOWN_GENERATORS};
use bist_core::session::ResponseCheck;
use bistd::{Client, Daemon, DaemonConfig, ServerAddr};
use obs::JsonValue;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Hot requests per client per round.
const HOT_PER_BLOCK: usize = 8;
/// Test length of the hot specs.
const HOT_VECTORS: usize = 1024;
/// Daemon set-ups per run (each warms the hot set); `setup_s` is
/// their median.
const SETUP_REPS: usize = 3;
/// Test-length range of the cold specs.
const COLD_VECTORS: (usize, usize) = (960, 1024);

/// The hot set: LP-MINI × four generators × both response checks, one
/// simulation thread each.
pub fn hot_set() -> Vec<CampaignSpec> {
    ["LFSR-1", "LFSR-D", "LFSR-M", "Ramp"]
        .into_iter()
        .flat_map(|generator| {
            [ResponseCheck::Trace, ResponseCheck::Signature].map(|mode| {
                CampaignSpec { threads: 1, ..CampaignSpec::new("LP-MINI", generator, HOT_VECTORS) }
                    .with_mode(mode)
            })
        })
        .collect()
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The campaign to submit.
    pub spec: CampaignSpec,
    /// Whether it comes from the hot set (and has a committed digest).
    pub hot: bool,
}

/// The seeded request stream: the same seed gives the same requests.
pub struct Stream {
    rng: Rng,
    hot: Vec<CampaignSpec>,
    seen: HashSet<String>,
}

impl Stream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Stream {
        let hot = hot_set();
        let seen = hot.iter().map(CampaignSpec::canonical).collect();
        Stream { rng: Rng::new(seed), hot, seen }
    }

    /// The next round: one block of requests per client, each eight
    /// hot requests and two cold ones in seeded order.
    pub fn next_round(&mut self) -> Vec<Vec<Request>> {
        (0..CLIENTS)
            .map(|_| {
                let mut block: Vec<Request> = (0..HOT_PER_BLOCK)
                    .map(|_| Request {
                        spec: self.hot[self.rng.below(self.hot.len())].clone(),
                        hot: true,
                    })
                    .collect();
                for mode in [ResponseCheck::Trace, ResponseCheck::Signature] {
                    block.push(Request { spec: self.cold(mode), hot: false });
                }
                self.rng.shuffle(&mut block);
                block
            })
            .collect()
    }

    /// A spec never requested before: generator and length are drawn
    /// from the seed.
    fn cold(&mut self, mode: ResponseCheck) -> CampaignSpec {
        loop {
            let generator = KNOWN_GENERATORS[self.rng.below(KNOWN_GENERATORS.len())];
            let vectors = COLD_VECTORS.0 + self.rng.below(COLD_VECTORS.1 - COLD_VECTORS.0 + 1);
            let spec =
                CampaignSpec { threads: 1, ..CampaignSpec::new("LP-MINI", generator, vectors) }
                    .with_mode(mode);
            if self.seen.insert(spec.canonical()) {
                return spec;
            }
        }
    }
}

/// A running daemon and its connected clients.
struct Service {
    daemon: Daemon,
    clients: Vec<Client>,
}

impl Service {
    /// Starts a daemon on `.perfbench/bistd-<pid>-<tag>.sock` (a
    /// relative path, well inside the socket-path length limit) and
    /// connects the clients.
    fn start(tag: usize) -> Result<Service, String> {
        std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
        let socket = PathBuf::from(format!("{WORK_DIR}/bistd-{}-{tag}.sock", std::process::id()));
        let daemon = Daemon::start(DaemonConfig {
            unix: Some(socket.clone()),
            workers: WORKERS,
            cache_capacity: 256,
            ..DaemonConfig::default()
        })
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let addr = ServerAddr::Unix(socket);
        match (0..CLIENTS).map(|_| Client::connect(&addr)).collect::<Result<Vec<_>, _>>() {
            Ok(clients) => Ok(Service { daemon, clients }),
            Err(e) => {
                daemon.begin_shutdown();
                let _ = daemon.join();
                Err(format!("connecting to the daemon: {e}"))
            }
        }
    }

    /// Closes the connections, drains the daemon and joins its threads.
    fn stop(self) -> Result<(), String> {
        self.daemon.begin_shutdown();
        drop(self.clients);
        self.daemon.join().map_err(|e| format!("stopping the daemon: {e}"))
    }

    /// Sum and count of the daemon's `bistd.job_ms` histogram.
    fn job_ms(&mut self) -> Result<(f64, f64), String> {
        let snapshot = self.clients[0].metrics().map_err(|e| format!("metrics: {e}"))?;
        let hist = snapshot.get("histograms").and_then(|h| h.get("bistd.job_ms"));
        let field =
            |name: &str| hist.and_then(|h| h.get(name)).and_then(JsonValue::as_f64).unwrap_or(0.0);
        Ok((field("sum"), field("count")))
    }
}

/// Checks replies: a hit must be byte-identical to the first reply for
/// its key, a hot spec must match its committed digest, and a cold one
/// must be self-consistent.
struct Checker<'e> {
    expected: &'e Expected,
    first: Mutex<HashMap<String, String>>,
}

impl Checker<'_> {
    fn check(
        &self,
        request: &Request,
        cached: bool,
        artifact: &JsonValue,
        bytes: &str,
    ) -> Result<(), String> {
        let key = request.spec.canonical();
        {
            let mut first = self.first.lock().expect("no client thread panics holding the lock");
            match first.get(&key) {
                Some(reply) if cached && reply != bytes => {
                    return Err(format!(
                        "cache hit for {key} is not byte-identical to its first reply"
                    ))
                }
                Some(_) => {}
                None => {
                    first.insert(key.clone(), bytes.to_string());
                }
            }
        }
        let digest = Digest::of_artifact(artifact)?;
        if request.hot {
            return self.expected.check(&key, &digest);
        }
        let total = artifact.get("total_faults").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
        let vectors = artifact.get("vectors").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
        let mode = artifact.get("mode").and_then(JsonValue::as_str).unwrap_or("");
        if total == 0 || digest.detected + digest.missed != total {
            return Err(format!("{key}: detected + missed != total_faults"));
        }
        if vectors != request.spec.vectors || mode != request.spec.mode.as_str() {
            return Err(format!("{key}: artifact describes another campaign"));
        }
        Ok(())
    }
}

/// One request's outcome.
#[derive(Debug, Clone)]
struct Sample {
    /// Submit to artifact, in ms; infinite for a failed request.
    latency_ms: f64,
    submit_ms: f64,
    fetch_ms: f64,
    cached: bool,
    error: Option<String>,
    reply_bytes: usize,
    /// Universe × vectors simulated for this request (0 for a hit).
    fault_vectors: f64,
    /// Client-side admission-lint time, traced rounds only.
    lint_ms: Option<f64>,
}

impl Sample {
    fn failed(error: String) -> Sample {
        Sample {
            latency_ms: f64::INFINITY,
            submit_ms: 0.0,
            fetch_ms: 0.0,
            cached: false,
            error: Some(error),
            reply_bytes: 0,
            fault_vectors: 0.0,
            lint_ms: None,
        }
    }
}

/// Runs `f`, under a span when tracing; returns its value and ms.
fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = match tracer.as_deref_mut() {
        Some(t) => t.leaf(name, f),
        None => f(),
    };
    (value, ms_since(started))
}

/// Sends one request and checks the reply. A traced request first runs
/// the daemon's admission lint client-side under `lint.admission`.
fn serve(
    client: &mut Client,
    request: &Request,
    checker: &Checker<'_>,
    mut tracer: Option<&mut Tracer>,
) -> Sample {
    let mut lint_ms = None;
    if tracer.is_some() {
        let (linted, ms) =
            timed(&mut tracer, "lint.admission", || lint::admission_lint(&request.spec, None));
        if let Err(e) = linted {
            return Sample::failed(format!("admission lint: {e}"));
        }
        lint_ms = Some(ms);
    }
    let started = Instant::now();
    let (submitted, submit_ms) =
        timed(&mut tracer, "bistd.submit", || client.submit(&request.spec, None));
    let submission = match submitted {
        Ok(s) => s,
        Err(e) => return Sample::failed(format!("submit {}: {e}", request.spec.canonical())),
    };
    let (fetched, fetch_ms) =
        timed(&mut tracer, "bistd.fetch", || client.fetch_artifact(submission.job));
    let latency_ms = ms_since(started);
    let (fetch_cached, artifact) = match fetched {
        Ok(reply) => reply,
        Err(e) => return Sample::failed(format!("fetch {}: {e}", request.spec.canonical())),
    };
    let cached = submission.cached || fetch_cached;
    let bytes = artifact.to_json();
    let universe = artifact.get("total_faults").and_then(JsonValue::as_u64).unwrap_or(0);
    Sample {
        latency_ms,
        submit_ms,
        fetch_ms,
        cached,
        error: checker.check(request, cached, &artifact, &bytes).err(),
        reply_bytes: bytes.len(),
        fault_vectors: if cached { 0.0 } else { universe as f64 * request.spec.vectors as f64 },
        lint_ms,
    }
}

/// Serves one round: each client works through its block, closed
/// loop. Returns the samples and the round's wall time in seconds.
fn round(
    service: &mut Service,
    blocks: Vec<Vec<Request>>,
    checker: &Checker<'_>,
    tracers: Option<&mut [Tracer]>,
    first_id: u64,
) -> Result<(Vec<Sample>, f64), String> {
    let started = Instant::now();
    let mut slots: Vec<Option<&mut Tracer>> = match tracers {
        Some(tracers) => tracers.iter_mut().map(Some).collect(),
        None => (0..CLIENTS).map(|_| None).collect(),
    };
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = service
            .clients
            .iter_mut()
            .zip(blocks)
            .zip(slots.iter_mut())
            .enumerate()
            .map(|(c, ((client, block), tracer))| {
                scope.spawn(move || {
                    block
                        .iter()
                        .enumerate()
                        .map(|(i, request)| {
                            if let Some(t) = tracer.as_deref_mut() {
                                t.set_campaign(first_id + (c * block.len() + i) as u64);
                            }
                            serve(client, request, checker, tracer.as_deref_mut())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((samples.into_iter().flatten().collect(), started.elapsed().as_secs_f64()))
}

/// Counts samples into the report: one attempted op each, failed ones
/// named on stderr.
fn tally(report: &mut Report, samples: &[Sample]) {
    for sample in samples {
        report.attempted += 1;
        if let Some(e) = &sample.error {
            report.fail(e);
        }
    }
}

/// Runs `daemon-mix`.
pub fn run(args: &Args) -> Result<Report, String> {
    let expected = Expected::committed()?;
    let mut report = Report::default();

    // Set-up: start a daemon, connect the clients and warm the hot set
    // into the cache (each first reply is what later hits must repeat).
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 1..=SETUP_REPS {
        let started = Instant::now();
        let mut service = Service::start(rep)?;
        let checker = Checker { expected: &expected, first: Mutex::new(HashMap::new()) };
        let warm: Vec<Sample> = hot_set()
            .into_iter()
            .map(|spec| {
                serve(&mut service.clients[0], &Request { spec, hot: true }, &checker, None)
            })
            .collect();
        setup_s.push(started.elapsed().as_secs_f64());
        tally(&mut report, &warm);
        if rep < SETUP_REPS {
            service.stop()?;
        } else {
            kept = Some((service, checker));
        }
    }
    let (mut service, checker) = kept.expect("SETUP_REPS is positive");

    let mut stream = Stream::new(args.seed);
    let origin = Instant::now();
    let jobs_before = service.job_ms()?;
    let mut plain: Vec<Sample> = Vec::new();
    let mut plain_rounds: Vec<f64> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut traced_rounds: Vec<f64> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut unattributed_ms: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut next_id = 0u64;
    while plain_rounds.is_empty() || started.elapsed() < args.seconds {
        let blocks = stream.next_round();
        let requests = blocks.iter().map(Vec::len).sum::<usize>() as u64;
        let (samples, wall) = round(&mut service, blocks, &checker, None, next_id)?;
        next_id += requests;
        tally(&mut report, &samples);
        plain.extend(samples);
        plain_rounds.push(wall);
        if args.trace {
            let blocks = stream.next_round();
            let requests = blocks.iter().map(Vec::len).sum::<usize>() as u64;
            let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(origin)).collect();
            let (samples, wall) =
                round(&mut service, blocks, &checker, Some(tracers.as_mut_slice()), next_id)?;
            next_id += requests;
            tally(&mut report, &samples);
            traced.extend(samples);
            traced_rounds.push(wall);
            let covered: f64 =
                tracers.iter().map(|t| trace::total_ms(t.spans(), |s| s.parent.is_none())).sum();
            unattributed_ms.push(wall * 1e3 * CLIENTS as f64 - covered);
            for tracer in tracers {
                tracer.drain_into(&mut spans);
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let jobs_after = service.job_ms()?;
    service.stop()?;

    if !args.trace {
        let latencies: Vec<f64> = plain.iter().map(|s| s.latency_ms).collect();
        report.set("setup_s", median(&setup_s), Some(setup_s.len()));
        report.set("batch_s", median(&plain_rounds), Some(plain_rounds.len()));
        report.set("campaign_ms_p50", quantile(&latencies, 0.5), Some(latencies.len()));
        report.set("req_ms_p95", quantile(&latencies, 0.95), Some(latencies.len()));
        report.set(
            "fault_vectors_per_s",
            plain.iter().map(|s| s.fault_vectors).sum::<f64>() / wall_s,
            None,
        );
        report.set("req_per_s", plain.len() as f64 / wall_s, None);
        report.set("peak_heap_mb", crate::heap::peak_mb(), None);
        return Ok(report);
    }

    let all: Vec<&Sample> = plain.iter().chain(&traced).filter(|s| s.error.is_none()).collect();
    let pick = |keep: fn(&Sample) -> bool, value: fn(&Sample) -> f64| -> Vec<f64> {
        all.iter().filter(|s| keep(s)).map(|s| value(s)).collect()
    };
    let miss_fetch = pick(|s| !s.cached, |s| s.fetch_ms);
    let miss_latency = pick(|s| !s.cached, |s| s.latency_ms);
    let jobs = jobs_after.1 - jobs_before.1;
    let job_ms = if jobs > 0.0 { (jobs_after.0 - jobs_before.0) / jobs } else { 0.0 };
    let lint: Vec<f64> = traced.iter().filter_map(|s| s.lint_ms).collect();
    let hit_ms: Vec<f64> = plain.iter().filter(|s| s.cached).map(|s| s.latency_ms).collect();
    let miss_ms: Vec<f64> =
        plain.iter().filter(|s| !s.cached && s.error.is_none()).map(|s| s.latency_ms).collect();
    report.set("lint.admission_ms", median(&lint), Some(lint.len()));
    report.set("bistd.submit_ms", median(&pick(|_| true, |s| s.submit_ms)), Some(all.len()));
    report.set("bistd.fetch_ms", median(&miss_fetch), Some(miss_fetch.len()));
    report.set("bistd.job_ms", job_ms, Some(jobs as usize));
    // A miss's time in the daemon outside its job: queueing plus
    // admission and framing (a worker may claim the job before the
    // submit reply is out, so the fetch leg alone can undercut job_ms).
    report.set("bistd.queue_wait_ms", (mean(&miss_latency) - job_ms).max(0.0), None);
    report.set("bistd.reply_bytes", mean(&pick(|_| true, |s| s.reply_bytes as f64)), None);
    report.set(
        "bistd.cache_hit_ratio",
        pick(|s| s.cached, |_| 1.0).len() as f64 / all.len() as f64,
        None,
    );
    report.set("bistd.hit_ms_p50", median(&hit_ms), Some(hit_ms.len()));
    report.set("bistd.miss_ms_p50", median(&miss_ms), Some(miss_ms.len()));
    let (plain_round, traced_round) = (median(&plain_rounds), median(&traced_rounds));
    report.set("trace.overhead_pct", (traced_round - plain_round) / plain_round * 100.0, None);
    report.set("trace.unattributed_ms", median(&unattributed_ms), Some(unattributed_ms.len()));

    // The hot campaigns, replayed in-process layer by layer: the
    // simulation layers' share of what the daemon's workers do.
    let hot = hot_set();
    let prepared = Prepared::new(&hot)?;
    let (_, build_ms, session_ms) = prepared.median_timings();
    let mut tracer = Tracer::new(origin);
    let mut totals = Totals::default();
    for (i, spec) in hot.iter().enumerate() {
        report.attempted += 1;
        tracer.set_campaign(next_id + i as u64);
        match replay::replay(&mut tracer, prepared.session(&spec.design), spec) {
            Ok(replayed) => {
                if let Err(e) = expected.check(&spec.canonical(), &replayed.digest) {
                    report.fail(&format!("traced replay: {e}"));
                }
                if let Err(e) = &replayed.work {
                    report.fail(&format!("{}: {e}", spec.canonical()));
                }
                totals.add(&replayed);
            }
            Err(e) => report.fail(&format!("traced {}: {e}", spec.canonical())),
        }
    }
    report.set_all(totals.layer_metrics(tracer.spans()));
    report.set("filters.build_ms", build_ms, Some(prepared.timings.len()));
    report.set("core.session_new_ms", session_ms, Some(prepared.timings.len()));
    tracer.drain_into(&mut spans);
    write_spans(args, &spans)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_request_stream() {
        let rounds = |seed| {
            let mut stream = Stream::new(seed);
            (0..5).map(|_| stream.next_round()).collect::<Vec<_>>()
        };
        assert_eq!(rounds(11), rounds(11));
        assert_ne!(rounds(11), rounds(12));
    }

    #[test]
    fn each_block_is_eighty_percent_hot_and_cold_specs_never_repeat() {
        let hot: HashSet<String> = hot_set().iter().map(CampaignSpec::canonical).collect();
        assert_eq!(hot.len(), 8);
        let mut stream = Stream::new(3);
        let mut cold = HashSet::new();
        for _ in 0..50 {
            for block in stream.next_round() {
                assert_eq!(block.len(), 10);
                for request in &block {
                    let key = request.spec.canonical();
                    assert_eq!(request.hot, hot.contains(&key), "{key}");
                    assert!(request.hot || cold.insert(key.clone()), "{key} repeated");
                    request.spec.validate().unwrap();
                }
                assert_eq!(block.iter().filter(|r| r.hot).count(), HOT_PER_BLOCK);
            }
        }
    }
}
