//! End-to-end daemon tests: real sockets, real campaigns (on the
//! LP-MINI design so each runs in milliseconds), real shutdown.

use bist_bistd::{Client, ClientError, Daemon, DaemonConfig, ServerAddr};
use bist_core::campaign::CampaignSpec;
use obs::JsonValue;
use std::path::PathBuf;

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

#[test]
fn full_queue_rejects_with_retry_hint_and_keeps_serving() {
    let (daemon, addr) =
        tcp_daemon(DaemonConfig { workers: 1, queue_capacity: 1, ..DaemonConfig::default() });
    let mut client = Client::connect(&addr).unwrap();
    // With one worker and a one-slot queue, three instant submissions
    // of distinct slow campaigns cannot all be accepted.
    let specs: Vec<CampaignSpec> =
        (0..3).map(|i| CampaignSpec { vectors: 200_000 + i, ..slow_spec() }).collect();
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for spec in &specs {
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
    assert!(rejected >= 1, "at least one submit must hit backpressure");
    // The daemon still answers after rejecting.
    for job in &accepted {
        client.cancel(*job).unwrap();
    }
    assert!(client.metrics().is_ok());
    client.shutdown().unwrap();
    daemon.join().unwrap();
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
