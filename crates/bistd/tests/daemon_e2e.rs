//! End-to-end daemon tests: real sockets, real campaigns (on the
//! LP-MINI design so each runs in milliseconds), real shutdown.

use bist_bistd::{Client, ClientError, Daemon, DaemonConfig, ServerAddr};
use bist_core::campaign::CampaignSpec;
use bist_core::session::ResponseCheck;
use obs::JsonValue;
use std::path::PathBuf;
use std::time::Instant;

fn tcp_daemon(config: DaemonConfig) -> (Daemon, ServerAddr) {
    let daemon = Daemon::start(DaemonConfig { tcp: Some("127.0.0.1:0".into()), ..config }).unwrap();
    let addr = ServerAddr::Tcp(daemon.tcp_addr().unwrap().to_string());
    (daemon, addr)
}

fn temp_path(name: &str) -> PathBuf {
    let unique = format!(
        "bistd-test-{}-{name}",
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    );
    std::env::temp_dir().join(unique)
}

fn mini_spec(vectors: usize) -> CampaignSpec {
    CampaignSpec { threads: 1, ..CampaignSpec::new("LP-MINI", "LFSR-D", vectors) }
}

/// A slow campaign: the full LP design over a long test with a stage
/// boundary every 256 cycles, so cancellation always has a nearby
/// boundary to land on.
fn slow_spec() -> CampaignSpec {
    CampaignSpec {
        threads: 1,
        boundaries: Some((1..3900).map(|i| i * 256).collect()),
        ..CampaignSpec::new("LP", "LFSR-D", 1_000_000)
    }
}

#[test]
fn resubmitted_campaign_hits_the_cache_bit_identically() {
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    let spec = mini_spec(64);
    let cold = client.run_campaign(&spec, None).unwrap();
    assert!(!cold.cached, "first run computes");
    assert_eq!(cold.key, spec.canonical());
    assert_eq!(cold.artifact.get("design").and_then(JsonValue::as_str), Some("LP-MINI"));

    let warm = client.run_campaign(&spec, None).unwrap();
    assert!(warm.cached, "identical resubmission is a cache hit");
    assert_ne!(warm.job, cold.job, "hits still get fresh job ids");
    assert_eq!(warm.artifact.to_json(), cold.artifact.to_json(), "cache replay is bit-identical");

    // Any single-field change misses.
    let changed = CampaignSpec { vectors: 65, ..spec.clone() };
    let miss = client.run_campaign(&changed, None).unwrap();
    assert!(!miss.cached);
    assert_ne!(miss.key, cold.key);

    // The daemon's metrics saw exactly one hit and two misses.
    let metrics = client.metrics().unwrap();
    let counters = metrics.get("counters").unwrap();
    assert_eq!(counters.get("bistd.cache.hits").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(counters.get("bistd.cache.misses").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(counters.get("bistd.jobs_completed").and_then(JsonValue::as_u64), Some(2));
    // Gauges and per-stage histograms are being served too.
    assert!(metrics.get("gauges").unwrap().get("bistd.queue_depth").is_some());
    assert!(metrics.get("histograms").unwrap().get("bistd.stage.session.fault_sim").is_some());

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn tcp_round_trips_do_not_wait_out_a_delayed_ack() {
    // A frame written in pieces, without TCP_NODELAY, waits for the
    // peer's delayed ACK (tens of milliseconds) on every round trip.
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let job = client.submit(&mini_spec(64), None).unwrap().job;
    client.fetch_artifact(job).unwrap();
    let mut trips_ms: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            assert_eq!(client.status(job).unwrap().0, "done");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    trips_ms.sort_by(f64::total_cmp);
    let median = trips_ms[trips_ms.len() / 2];
    assert!(median < 20.0, "median status round trip {median:.1} ms over TCP: {trips_ms:?}");
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn unix_socket_serves_the_same_protocol() {
    let socket = temp_path("e2e.sock");
    let daemon =
        Daemon::start(DaemonConfig { unix: Some(socket.clone()), ..DaemonConfig::default() })
            .unwrap();
    let addr = ServerAddr::Unix(socket.clone());
    let mut client = Client::connect(&addr).unwrap();
    let result = client.run_campaign(&mini_spec(32), None).unwrap();
    assert!(!result.cached);
    assert_eq!(result.artifact.get("vectors").and_then(JsonValue::as_u64), Some(32));
    // The one miss waited in the queue once.
    let metrics = client.metrics().unwrap();
    let wait = metrics.get("histograms").and_then(|h| h.get("bistd.wait_ms"));
    assert_eq!(wait.and_then(|w| w.get("count")).and_then(JsonValue::as_u64), Some(1));
    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert!(!socket.exists(), "socket file removed on clean shutdown");
}

#[test]
fn topoff_specs_round_trip_through_the_daemon() {
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    let spec = CampaignSpec {
        topoff: Some(bist_core::TopOffConfig { block_len: 64, max_seeds: 8 }),
        ..mini_spec(64)
    };
    let cold = client.run_campaign(&spec, None).unwrap();
    assert!(cold.key.ends_with(";topoff=block64,seeds8"), "{}", cold.key);
    let report = cold.artifact.get("topoff").expect("artifact carries the top-off report");
    let residue = report.get("residue").and_then(JsonValue::as_u64).unwrap();
    let parts: u64 = ["untestable", "detected", "unresolved"]
        .iter()
        .map(|k| report.get(k).and_then(JsonValue::as_u64).unwrap())
        .sum();
    assert_eq!(parts, residue, "verdicts partition the residue");

    // The same campaign without the stage is a distinct cache entry
    // whose artifact has no top-off key at all.
    let plain = client.run_campaign(&mini_spec(64), None).unwrap();
    assert!(!plain.cached);
    assert!(plain.artifact.get("topoff").is_none());

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn sat_specs_round_trip_through_the_daemon() {
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    let spec = CampaignSpec {
        sat: Some(bist_core::session::SatConfig { max_conflicts: 500, equiv: true }),
        ..mini_spec(64)
    };
    let cold = client.run_campaign(&spec, None).unwrap();
    assert!(cold.key.ends_with(";sat=conf500,equiv1"), "{}", cold.key);
    let report = cold.artifact.get("sat").expect("artifact carries the sat report");
    // LP-MINI's screen yields no candidates, but the stage still runs
    // the equivalence certificate and the census lands in the artifact.
    assert_eq!(report.get("candidates").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(report.get("equiv_proved").and_then(JsonValue::as_bool), Some(true));
    // The admission lint carried the L6xx census over the wire.
    assert!(cold.lint.iter().any(|d| d.code == "L601"), "{:?}", cold.lint);

    // The same campaign without the stage is a distinct cache entry
    // whose artifact has no sat key at all.
    let plain = client.run_campaign(&mini_spec(64), None).unwrap();
    assert!(!plain.cached);
    assert!(plain.artifact.get("sat").is_none());

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn collapse_specs_round_trip_through_the_daemon() {
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    let spec = CampaignSpec { collapse: true, ..mini_spec(64) };
    let cold = client.run_campaign(&spec, None).unwrap();
    assert!(cold.key.ends_with(";collapse=on"), "{}", cold.key);
    let report = cold.artifact.get("collapse").expect("artifact carries the collapse census");
    let classes = report.get("classes_after").and_then(JsonValue::as_u64).unwrap();
    let sites = report.get("sites_before").and_then(JsonValue::as_u64).unwrap();
    assert!(classes < sites, "collapse removed machines: {classes} vs {sites}");
    // The admission lint carried the L7xx census over the wire.
    assert!(cold.lint.iter().any(|d| d.code == "L701"), "{:?}", cold.lint);

    // The same campaign without the stage is a distinct cache entry
    // whose artifact has no collapse key — and whose detection verdicts
    // are identical, the stage being strictly observational.
    let plain = client.run_campaign(&mini_spec(64), None).unwrap();
    assert!(!plain.cached);
    assert!(plain.artifact.get("collapse").is_none());
    for field in ["detected", "missed", "coverage", "signature", "total_faults"] {
        assert_eq!(
            cold.artifact.get(field).map(JsonValue::to_json),
            plain.artifact.get(field).map(JsonValue::to_json),
            "{field} must not change under collapse"
        );
    }

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn bistctl_rejects_the_retired_engine_flag() {
    // `--engine` is not a campaign option: it is refused as unknown,
    // before any connection is attempted.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_bistctl"))
        .args(["--server", "127.0.0.1:1", "run", "--design", "LP-MINI", "--gen", "LFSR-D"])
        .args(["--vectors", "64", "--engine", "walker"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option '--engine'"), "{stderr}");
}

/// Rebuilds a JSON value with every `ms` object entry dropped, so two
/// artifacts can be compared byte-for-byte modulo wall-clock timings.
fn without_timings(v: &JsonValue) -> JsonValue {
    if let Some(pairs) = v.as_object() {
        let mut out = JsonValue::object();
        for (key, value) in pairs {
            if key != "ms" {
                out = out.push(key.as_str(), without_timings(value));
            }
        }
        out
    } else if let Some(items) = v.as_array() {
        items.iter().map(without_timings).collect::<Vec<_>>().into()
    } else {
        v.clone()
    }
}

#[test]
fn remote_artifact_matches_inline_run_byte_for_byte() {
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let spec = mini_spec(48);
    let remote = client.run_campaign(&spec, None).unwrap();
    // The daemon (default: annotate) attaches admission lint to the
    // artifact, so the equivalent inline run is the linted one.
    let admission = lint::admission_lint(&spec, None).unwrap();
    let inline = spec.run_linted(None, admission).unwrap();
    // Stage wall-clock timings are the one nondeterministic field;
    // everything else must agree byte-for-byte.
    assert_eq!(
        without_timings(&remote.artifact).to_json(),
        without_timings(&inline.artifact.to_json()).to_json(),
        "the daemon path and the inline path produce identical artifacts"
    );
    assert_eq!(remote.lint, inline.artifact.lint, "submit reply carries the same diagnostics");
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn cancel_stops_a_job_and_reports_cancelled() {
    let (daemon, addr) = tcp_daemon(DaemonConfig { workers: 1, ..DaemonConfig::default() });
    let mut client = Client::connect(&addr).unwrap();
    let sub = client.submit(&slow_spec(), None).unwrap();
    assert!(!sub.cached);
    let job = sub.job;
    client.cancel(job).unwrap();
    let err = client.fetch_artifact(job).unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, "cancelled"),
        other => panic!("expected a cancelled error, got {other}"),
    }
    let (state, detail) = client.status(job).unwrap();
    assert_eq!(state, "cancelled");
    assert!(detail.is_some());
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn deadline_expires_a_job_with_deadline_detail() {
    let (daemon, addr) = tcp_daemon(DaemonConfig { workers: 1, ..DaemonConfig::default() });
    let mut client = Client::connect(&addr).unwrap();
    let job = client.submit(&slow_spec(), Some(1)).unwrap().job;
    let err = client.fetch_artifact(job).unwrap_err();
    match err {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, "cancelled");
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected a deadline error, got {other}"),
    }
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

/// Polls `job`'s status until a worker has started it.
fn wait_until_running(client: &mut Client, job: u64) {
    let started = Instant::now();
    loop {
        let (state, detail) = client.status(job).unwrap();
        match state.as_str() {
            "running" => return,
            "queued" => {}
            other => panic!("job {job} ended {other} before it ran: {detail:?}"),
        }
        assert!(started.elapsed().as_secs() < 120, "job {job} never started");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// A one-worker daemon with a one-slot queue, and a client whose first
/// slow job (returned) is running, so the queue's one slot is free.
fn one_slot_daemon() -> (Daemon, Client, u64) {
    let (daemon, addr) =
        tcp_daemon(DaemonConfig { workers: 1, queue_capacity: 1, ..DaemonConfig::default() });
    let mut client = Client::connect(&addr).unwrap();
    let running = client.submit(&slow_spec(), None).unwrap().job;
    wait_until_running(&mut client, running);
    (daemon, client, running)
}

/// Distinct slow campaigns, each its own cache key.
fn slow_specs(n: usize) -> Vec<CampaignSpec> {
    (0..n).map(|i| CampaignSpec { vectors: 200_000 + i, ..slow_spec() }).collect()
}

/// Cancels `jobs`, then shuts the daemon down.
fn cancel_and_shut_down(daemon: Daemon, mut client: Client, jobs: &[u64]) {
    for job in jobs {
        client.cancel(*job).unwrap();
    }
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn full_queue_rejects_with_retry_hint_and_keeps_serving() {
    // With the one worker busy and a one-slot queue, of two more
    // distinct slow campaigns exactly one is accepted.
    let (daemon, mut client, running) = one_slot_daemon();
    let mut accepted = vec![running];
    let mut rejected = 0;
    for spec in &slow_specs(2) {
        match client.submit(spec, None) {
            Ok(sub) => accepted.push(sub.job),
            Err(ClientError::Server { code, retry_after_ms, .. }) => {
                assert_eq!(code, "queue_full");
                assert!(retry_after_ms.unwrap_or(0) > 0, "backpressure carries a retry hint");
                rejected += 1;
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert_eq!(rejected, 1, "exactly the submit beyond the one free slot hits backpressure");
    // The daemon still answers after rejecting.
    assert!(client.metrics().is_ok());
    cancel_and_shut_down(daemon, client, &accepted);
}

#[test]
fn a_cancelled_queued_job_frees_its_slot_at_once() {
    let (daemon, mut client, running) = one_slot_daemon();
    let specs = slow_specs(2);
    let queued = client.submit(&specs[0], None).unwrap().job;
    assert_eq!(client.status(queued).unwrap().0, "queued");
    client.cancel(queued).unwrap();
    assert_eq!(client.status(queued).unwrap().0, "cancelled");
    let next = match client.submit(&specs[1], None) {
        Ok(sub) => sub.job,
        Err(e) => panic!("the cancelled job still holds the only slot: {e}"),
    };
    assert_eq!(counter(&mut client, "bistd.jobs_cancelled"), 1, "counted when cancelled");
    cancel_and_shut_down(daemon, client, &[running, next]);
}

#[test]
fn a_refused_submit_makes_no_job_record() {
    let (daemon, mut client, running) = one_slot_daemon();
    let specs = slow_specs(2);
    let queued = client.submit(&specs[0], None).unwrap().job;
    match client.submit(&specs[1], None) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "queue_full"),
        other => panic!("expected queue_full, got {other:?}"),
    }
    // Once the queued job starts, the slot is free again, and the next
    // accepted job takes the id after the queued one's.
    client.cancel(running).unwrap();
    wait_until_running(&mut client, queued);
    let next = client.submit(&specs[1], None).unwrap().job;
    assert_eq!(next, queued + 1, "the refusal burnt no id");
    let metrics = client.metrics().unwrap();
    let gauge =
        |name: &str| metrics.get("gauges").and_then(|g| g.get(name)).and_then(JsonValue::as_f64);
    assert_eq!(gauge("bistd.jobs.failed"), Some(0.0), "the refusal left no failed record");
    assert_eq!(gauge("bistd.queue_depth"), gauge("bistd.jobs.queued"));
    cancel_and_shut_down(daemon, client, &[queued, next]);
}

#[test]
fn unknown_jobs_and_draining_submits_are_structured_errors() {
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    match client.status(999).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, "unknown_job"),
        other => panic!("{other}"),
    }
    match client.cancel(999).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, "unknown_job"),
        other => panic!("{other}"),
    }
    // Server-side validation: a bogus generator is a bad_request with
    // the registry spelled out, not a panic.
    match client.submit(&CampaignSpec::new("LP-MINI", "bogus", 16), None).unwrap_err() {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, "bad_request");
            assert!(message.contains("unknown generator"), "{message}");
            assert!(message.contains("LFSR-D"), "lists known names: {message}");
        }
        other => panic!("{other}"),
    }
    client.shutdown().unwrap();
    // After shutdown, new submissions on a still-open connection are
    // refused in a structured way.
    match client.submit(&mini_spec(16), None).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, "shutting_down"),
        other => panic!("{other}"),
    }
    daemon.join().unwrap();
}

#[test]
fn untabulated_misr_widths_are_refused_at_submit() {
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    for spec in [
        CampaignSpec { misr_width: 63, ..mini_spec(64) },
        CampaignSpec { misr_width: 0, ..mini_spec(64) }.with_mode(ResponseCheck::Signature),
    ] {
        match client.submit(&spec, None).unwrap_err() {
            ClientError::Server { code, message, .. } => {
                assert_eq!(code, "bad_request", "{spec:?}");
                assert!(message.contains("misr_width"), "{message}");
            }
            other => panic!("{spec:?}: {other}"),
        }
    }
    // Neither refusal became a job.
    let metrics = client.metrics().unwrap();
    let counters = metrics.get("counters").unwrap();
    assert_eq!(counters.get("bistd.jobs_submitted").and_then(JsonValue::as_u64), None);
    assert_eq!(counters.get("bistd.bad_requests").and_then(JsonValue::as_u64), Some(2));
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn shutdown_drains_in_flight_jobs_and_spills_the_cache() {
    let spill = temp_path("spill.jsonl");
    let (daemon, addr) = tcp_daemon(DaemonConfig {
        workers: 1,
        spill: Some(spill.clone()),
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    // Queue two jobs, then shut down immediately: both must still
    // complete (drain), and their artifacts must reach the spill file.
    let sub_a = client.submit(&mini_spec(64), None).unwrap();
    let sub_b = client.submit(&mini_spec(96), None).unwrap();
    let ((job_a, key_a), (job_b, key_b)) = ((sub_a.job, sub_a.key), (sub_b.job, sub_b.key));
    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert!(job_a != job_b);
    let spilled = std::fs::read_to_string(&spill).unwrap();
    assert_eq!(spilled.lines().count(), 2, "both drained artifacts spilled");
    assert!(spilled.contains(&key_a));
    assert!(spilled.contains(&key_b));

    // A fresh daemon reloading that spill serves both as cache hits.
    let (daemon, addr) =
        tcp_daemon(DaemonConfig { spill: Some(spill.clone()), ..DaemonConfig::default() });
    let mut client = Client::connect(&addr).unwrap();
    let warm = client.run_campaign(&mini_spec(64), None).unwrap();
    assert!(warm.cached, "spill reload restores the cache");
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_file(&spill);
}

#[test]
fn lint_modes_annotate_reject_and_off() {
    use bist_bistd::LintMode;
    // Annotate (default): the spectrally incompatible LP x LFSR-1
    // pairing is accepted but the reply carries the L201 error.
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let incompatible = CampaignSpec { threads: 1, ..CampaignSpec::new("LP", "LFSR-1", 16) };
    let sub = client.submit(&incompatible, None).unwrap();
    assert!(sub.lint.iter().any(|d| d.code == "L201"), "{:?}", sub.lint);
    client.cancel(sub.job).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();

    // Reject: the same submission is refused with lint_rejected, no
    // fault-simulation cycle runs, and compatible work still passes.
    let (daemon, addr) = tcp_daemon(DaemonConfig { lint: LintMode::Reject, ..Default::default() });
    let mut client = Client::connect(&addr).unwrap();
    match client.submit(&incompatible, None).unwrap_err() {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, "lint_rejected");
            assert!(message.contains("L201"), "{message}");
        }
        other => panic!("{other}"),
    }
    let ok = client.run_campaign(&mini_spec(16), None).unwrap();
    assert!(ok.artifact.get("lint").is_some(), "annotations still attach under reject");
    client.shutdown().unwrap();
    daemon.join().unwrap();

    // Off: no diagnostics anywhere, wire bytes match the pre-lint form.
    let (daemon, addr) = tcp_daemon(DaemonConfig { lint: LintMode::Off, ..Default::default() });
    let mut client = Client::connect(&addr).unwrap();
    let sub = client.submit(&incompatible, None).unwrap();
    assert!(sub.lint.is_empty());
    client.cancel(sub.job).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn lru_cap_bounds_the_cache() {
    let (daemon, addr) = tcp_daemon(DaemonConfig { cache_capacity: 2, ..DaemonConfig::default() });
    let mut client = Client::connect(&addr).unwrap();
    let a = mini_spec(16);
    let b = mini_spec(17);
    let c = mini_spec(18);
    assert!(!client.run_campaign(&a, None).unwrap().cached);
    assert!(!client.run_campaign(&b, None).unwrap().cached);
    assert!(!client.run_campaign(&c, None).unwrap().cached, "evicts a");
    assert!(client.run_campaign(&c, None).unwrap().cached);
    assert!(client.run_campaign(&b, None).unwrap().cached);
    assert!(!client.run_campaign(&a, None).unwrap().cached, "a was the LRU victim");
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn bistctl_exits_quietly_when_its_stdout_is_closed() {
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let spec = CampaignSpec {
        topoff: Some(bist_core::TopOffConfig { block_len: 64, max_seeds: 8 }),
        ..mini_spec(64)
    };
    let job = client.run_campaign(&spec, None).unwrap().job;

    // Like `bistctl ... | head -1`, except that the reader is gone
    // before the first line is written, so every write hits EPIPE.
    let tcp = daemon.tcp_addr().unwrap().to_string();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bistctl"))
        .args(["--server", &tcp, "result", &job.to_string(), "--residues"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "bistctl panicked on a closed pipe: {stderr}");
    assert!(output.status.success(), "{:?}: {stderr}", output.status);

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

/// A daemon counter's value, with a counter never touched reading 0.
fn counter(client: &mut Client, name: &str) -> u64 {
    let metrics = client.metrics().unwrap();
    metrics.get("counters").and_then(|c| c.get(name)).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// The four admission counters, in a fixed order:
/// `(hits, misses, lint.diagnostics, lint.rejections)`.
fn admission_counters(client: &mut Client) -> [u64; 4] {
    ["bistd.cache.hits", "bistd.cache.misses", "bistd.lint.diagnostics", "bistd.lint.rejections"]
        .map(|name| counter(client, name))
}

#[test]
fn hits_reply_with_the_diagnostics_of_a_fresh_admission() {
    let (daemon, addr) = tcp_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let spec = mini_spec(1024);
    let fresh = |deadline| lint::admission_lint(&spec, deadline).unwrap();
    // A 1 ms deadline is below LP-MINI's cost bound at 1,024 vectors.
    assert!(fresh(Some(1)).iter().any(|d| d.code == "L303"), "{:?}", fresh(Some(1)));
    assert!(fresh(None).iter().all(|d| d.code != "L303"));

    let cold = client.run_campaign(&spec, None).unwrap();
    assert!(!cold.cached);
    assert_eq!(cold.lint, fresh(None));
    let mut diagnostics = cold.lint.len() as u64;
    // Alternate the deadline on one key, then repeat one so a hit
    // reuses what the previous hit stored.
    let deadlines = [Some(1), None, Some(1), None, None, Some(1), Some(1)];
    for deadline in deadlines {
        let hit = client.submit(&spec, deadline).unwrap();
        assert!(hit.cached, "deadline {deadline:?}");
        assert_eq!(hit.lint, fresh(deadline), "deadline {deadline:?}");
        diagnostics += hit.lint.len() as u64;
        // Annotate never refuses, and a hit's artifact is the cold run's.
        let (cached, artifact) = client.fetch_artifact(hit.job).unwrap();
        assert!(cached);
        assert_eq!(artifact.to_json(), cold.artifact.to_json());
    }
    let expected = [deadlines.len() as u64, 1, diagnostics, 0];
    assert_eq!(admission_counters(&mut client), expected, "hits, misses, diagnostics, rejections");

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn a_reject_daemon_refuses_reloaded_entries_whose_lint_has_an_error() {
    use bist_bistd::LintMode;
    let spill = temp_path("reject-spill.jsonl");
    // LP-MINI x LFSR-1 draws the L201 spectral error; LFSR-D is clean
    // until a deadline below its cost bound draws L303.
    let incompatible = CampaignSpec { threads: 1, ..CampaignSpec::new("LP-MINI", "LFSR-1", 64) };
    let clean = mini_spec(1024);
    let fresh = |spec: &CampaignSpec, deadline| lint::admission_lint(spec, deadline).unwrap();
    let has_error = |spec: &CampaignSpec, deadline| {
        fresh(spec, deadline).iter().any(|d| d.severity == obs::Severity::Error)
    };
    assert!(has_error(&incompatible, None));
    assert!(!has_error(&clean, None));
    assert!(has_error(&clean, Some(1)));

    // An annotating daemon runs and caches both, then spills them.
    let (daemon, addr) =
        tcp_daemon(DaemonConfig { spill: Some(spill.clone()), ..DaemonConfig::default() });
    let mut client = Client::connect(&addr).unwrap();
    let annotated = client.run_campaign(&incompatible, None).unwrap();
    assert!(annotated.lint.iter().any(|d| d.code == "L201"), "{:?}", annotated.lint);
    let served = client.run_campaign(&clean, None).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();

    let (daemon, addr) = tcp_daemon(DaemonConfig {
        spill: Some(spill.clone()),
        lint: LintMode::Reject,
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(counter(&mut client, "bistd.cache.spill_loaded"), 2);
    let requests = [
        (&incompatible, None),
        (&clean, None),
        (&incompatible, None),
        (&clean, Some(1)),
        (&clean, None),
        (&clean, Some(1)),
    ];
    let mut expected = [0u64; 4];
    for (spec, deadline) in requests {
        let diagnostics = fresh(spec, deadline);
        expected[2] += diagnostics.len() as u64;
        match client.submit(spec, deadline) {
            Ok(hit) => {
                assert!(!has_error(spec, deadline), "{spec:?} {deadline:?} was not refused");
                assert!(hit.cached, "the reloaded entry serves {spec:?}");
                assert_eq!(hit.lint, diagnostics);
                let (_, artifact) = client.fetch_artifact(hit.job).unwrap();
                assert_eq!(artifact.to_json(), served.artifact.to_json());
                expected[0] += 1;
            }
            Err(ClientError::Server { code, message, .. }) => {
                assert!(has_error(spec, deadline), "{spec:?} {deadline:?}: {message}");
                assert_eq!(code, "lint_rejected");
                let first = diagnostics.iter().find(|d| d.severity == obs::Severity::Error);
                assert!(message.contains(&first.unwrap().code), "{message}");
                expected[3] += 1;
            }
            Err(other) => panic!("{other}"),
        }
    }
    assert_eq!(admission_counters(&mut client), expected, "hits, misses, diagnostics, rejections");
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_file(&spill);
}

#[test]
fn cancel_racing_completion_never_caches_a_cancelled_run() {
    // A Unix socket: each request's round trip is far shorter than the
    // run, so a cancel can land at any point of it.
    let socket = temp_path("cancel-race.sock");
    let daemon = Daemon::start(DaemonConfig {
        unix: Some(socket.clone()),
        workers: 1,
        ..DaemonConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&ServerAddr::Unix(socket)).unwrap();
    // Time one short job end to end, then sweep the cancel delay from
    // zero to twice that, so the cancel lands before, during and after
    // the run. Each job has its own vector count, so its own key.
    let started = std::time::Instant::now();
    client.run_campaign(&mini_spec(320), None).unwrap();
    let run = started.elapsed();
    const STEPS: u32 = 12;
    let (mut done, mut cancelled) = (0, 0);
    for step in 0..STEPS {
        let spec = mini_spec(321 + step as usize);
        let job = client.submit(&spec, None).unwrap();
        assert!(!job.cached, "{}", job.key);
        std::thread::sleep(run * 2 * step / STEPS);
        client.cancel(job.job).unwrap();
        match client.fetch_artifact(job.job) {
            Ok((cached, artifact)) => {
                assert!(!cached);
                assert_eq!(
                    artifact.get("vectors").and_then(JsonValue::as_u64),
                    Some(spec.vectors as u64),
                    "a done job carries its artifact"
                );
                let again = client.run_campaign(&spec, None).unwrap();
                assert!(again.cached, "a finished run reached the cache");
                assert_eq!(again.artifact.to_json(), artifact.to_json());
                done += 1;
            }
            Err(ClientError::Server { code, .. }) if code == "cancelled" => {
                let again = client.submit(&spec, None).unwrap();
                assert!(!again.cached, "a cancelled run never reaches the cache");
                // Let it finish so the next step starts on an idle worker.
                let (_, artifact) = client.fetch_artifact(again.job).unwrap();
                assert!(artifact.get("vectors").is_some());
                cancelled += 1;
            }
            Err(other) => panic!("step {step}: {other}"),
        }
    }
    // An immediate cancel lands well inside the run and one at twice
    // its length lands after it, so the sweep sees both outcomes.
    assert!(done > 0 && cancelled > 0, "{done} done, {cancelled} cancelled");
    client.shutdown().unwrap();
    daemon.join().unwrap();
}
