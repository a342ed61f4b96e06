//! Adversarial wire-level tests: garbage headers, oversized and
//! truncated frames, malformed payloads, mid-stream disconnects. The
//! daemon must answer each with a structured error where a reply is
//! still possible, and must keep serving other (and, for payload-level
//! problems, the same) connections afterwards.

use bist_bistd::{Client, Daemon, DaemonConfig, ServerAddr};
use bist_core::campaign::CampaignSpec;
use obs::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

struct Harness {
    daemon: Option<Daemon>,
    addr: ServerAddr,
}

impl Harness {
    fn start() -> Harness {
        let daemon = Daemon::start(DaemonConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..DaemonConfig::default()
        })
        .unwrap();
        let addr = ServerAddr::Tcp(daemon.tcp_addr().unwrap().to_string());
        Harness { daemon: Some(daemon), addr }
    }

    fn raw(&self) -> TcpStream {
        let ServerAddr::Tcp(addr) = &self.addr else { unreachable!() };
        TcpStream::connect(addr).unwrap()
    }

    /// Proof of life: a fresh, well-behaved connection round-trips.
    fn assert_still_serving(&self) {
        let mut client = Client::connect(&self.addr).unwrap();
        let snapshot = client.metrics().unwrap();
        assert!(snapshot.get("counters").is_some());
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            daemon.begin_shutdown();
            let _ = daemon.join();
        }
    }
}

/// Sends raw bytes, half-closes the write side so the daemon sees EOF
/// even on incomplete frames, reads until the daemon closes, and
/// returns everything it said.
fn send_raw(harness: &Harness, bytes: &[u8]) -> String {
    let mut stream = harness.raw();
    stream.write_all(bytes).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    reply
}

/// Extracts the error code from a one-frame error reply.
fn error_code(reply: &str) -> String {
    let payload = reply
        .split_once('\n')
        .map(|(_, rest)| rest.trim_end())
        .unwrap_or_else(|| panic!("no frame in reply {reply:?}"));
    let v = JsonValue::parse(payload).unwrap_or_else(|e| panic!("unparseable {payload:?}: {e}"));
    assert_eq!(v.get("reply").and_then(JsonValue::as_str), Some("error"), "{payload}");
    v.get("code").and_then(JsonValue::as_str).unwrap().to_string()
}

#[test]
fn garbage_header_gets_structured_error_then_close() {
    let harness = Harness::start();
    let reply = send_raw(&harness, b"GET / HTTP/1.1\r\n\r\n");
    assert_eq!(error_code(&reply), "bad_frame");
    harness.assert_still_serving();
}

#[test]
fn future_protocol_version_is_named_explicitly() {
    let harness = Harness::start();
    let reply = send_raw(&harness, b"BISTD/2 2\n{}\n");
    assert_eq!(error_code(&reply), "unsupported_version");
    assert!(reply.contains("version 2"), "{reply}");
    harness.assert_still_serving();
}

#[test]
fn oversized_frame_is_rejected_before_payload() {
    let harness = Harness::start();
    // Advertise 8 MiB but send nothing: the daemon must reject on the
    // header alone rather than buffering.
    let reply = send_raw(&harness, b"BISTD/1 8388608\n");
    assert_eq!(error_code(&reply), "bad_frame");
    assert!(reply.contains("exceeds"), "{reply}");
    harness.assert_still_serving();
}

#[test]
fn truncated_frame_and_midstream_disconnect_do_not_wedge() {
    let harness = Harness::start();
    // Truncated header.
    drop(send_raw(&harness, b"BISTD/1 10"));
    // Header promising more payload than ever arrives, then hangup.
    {
        let mut stream = harness.raw();
        stream.write_all(b"BISTD/1 100\n{\"op\":\"st").unwrap();
    }
    // Hangup with no bytes at all.
    drop(harness.raw());
    harness.assert_still_serving();
}

#[test]
fn malformed_payload_answers_and_connection_keeps_serving() {
    let harness = Harness::start();
    let stream = harness.raw();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let read_payload = |reader: &mut BufReader<TcpStream>| {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let len: usize = header.trim_end().strip_prefix("BISTD/1 ").unwrap().parse().unwrap();
        let mut payload = vec![0u8; len + 1];
        reader.read_exact(&mut payload).unwrap();
        payload.pop();
        String::from_utf8(payload).unwrap()
    };

    // Frame 1: well-framed, unparseable JSON → bad_frame, stay open.
    writer.write_all(b"BISTD/1 5\n{nope\n").unwrap();
    let v = JsonValue::parse(&read_payload(&mut reader)).unwrap();
    assert_eq!(v.get("code").and_then(JsonValue::as_str), Some("bad_frame"));

    // Frame 2: valid JSON, unknown op → bad_request, stay open.
    let unknown = "{\"op\":\"frobnicate\"}";
    writer.write_all(format!("BISTD/1 {}\n{unknown}\n", unknown.len()).as_bytes()).unwrap();
    let v = JsonValue::parse(&read_payload(&mut reader)).unwrap();
    assert_eq!(v.get("code").and_then(JsonValue::as_str), Some("bad_request"));
    assert!(v.get("message").and_then(JsonValue::as_str).unwrap().contains("frobnicate"));

    // Frame 3: a real request on the SAME connection still works.
    let metrics = "{\"op\":\"metrics\"}";
    writer.write_all(format!("BISTD/1 {}\n{metrics}\n", metrics.len()).as_bytes()).unwrap();
    let v = JsonValue::parse(&read_payload(&mut reader)).unwrap();
    assert_eq!(v.get("reply").and_then(JsonValue::as_str), Some("metrics"));
    let counters = v.get("snapshot").unwrap().get("counters").unwrap();
    assert!(
        counters.get("bistd.bad_requests").and_then(JsonValue::as_u64).unwrap_or(0) >= 2,
        "both malformed frames were counted"
    );
}

#[test]
fn submit_with_invalid_spec_content_is_bad_request_not_panic() {
    let harness = Harness::start();
    let mut client = Client::connect(&harness.addr).unwrap();
    for spec in [
        CampaignSpec::new("NOPE", "LFSR-D", 64),
        CampaignSpec::new("LP-MINI", "NOPE", 64),
        CampaignSpec::new("LP-MINI", "LFSR-D", 0),
        CampaignSpec {
            boundaries: Some(vec![64, 64]),
            ..CampaignSpec::new("LP-MINI", "LFSR-D", 64)
        },
        CampaignSpec { threads: 1000, ..CampaignSpec::new("LP-MINI", "LFSR-D", 64) },
    ] {
        match client.submit(&spec, None) {
            Err(bist_bistd::ClientError::Server { code, .. }) => {
                assert_eq!(code, "bad_request", "{spec:?}")
            }
            other => panic!("{spec:?}: expected bad_request, got {other:?}"),
        }
    }
    harness.assert_still_serving();
}
