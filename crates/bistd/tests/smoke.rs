//! Smoke test of the real `bistd` and `bistctl` binaries, once over a
//! Unix socket and once over TCP: a daemon must serve a campaign,
//! answer the identical resubmission from its result cache, keep the
//! historical cache key of a default spec, and exit 0 on `shutdown`;
//! and a queue capacity or worker count out of bounds must exit 2
//! before it listens.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `bistd` and its stdout. Dropping it kills the daemon if it
/// has not exited, so a failing test leaves no process behind.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `bistd` with `listen` and one worker.
    fn start(listen: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bistd"))
            .args(listen)
            .args(["--workers", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("bistd starts");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Daemon { child, stdout }
    }

    /// The daemon's log lines up to `bistd: ready`.
    fn startup_log(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let read = self.stdout.read_line(&mut line).expect("read the bistd log");
            assert!(read > 0, "bistd exited before it was ready: {lines:?}");
            let line = line.trim_end().to_string();
            if line == "bistd: ready" {
                return lines;
            }
            lines.push(line);
        }
    }

    /// Runs the checks against the daemon at `server`, then shuts it
    /// down and waits for it to exit 0.
    fn check_and_shut_down(mut self, server: &str) {
        let spec = ["--design", "LP-MINI", "--gen", "LFSR-D", "--vectors", "64"];
        let run = || bistctl(server, &[&["run"][..], &spec].concat());
        let (cold, warm) = (run(), run());
        assert!(cold.contains(r#""cached":false"#), "cold run over {server} was cached: {cold}");
        assert!(warm.contains(r#""cached":true"#), "warm run over {server} missed: {warm}");
        // A default spec keeps its historical cache key byte for byte.
        let key = concat!(
            r#""key":"design=LP-MINI;generator=LFSR-D;vectors=64;misr=16;mode=trace;"#,
            r#"schedule=64,256,1024;threads=0;topoff=off""#
        );
        assert!(cold.contains(key), "cold run over {server} has the wrong cache key: {cold}");
        bistctl(server, &["shutdown"]);
        // Read the log to its end, so the daemon's last line has a reader.
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("read the bistd log");
        let status = self.child.wait().expect("bistd exits");
        assert!(status.success(), "bistd over {server} exited with {status}: {rest}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Runs `bistctl --server <server> <args>` and returns its stdout.
fn bistctl(server: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bistctl"))
        .args(["--server", server])
        .args(args)
        .output()
        .expect("bistctl runs");
    assert!(out.status.success(), "bistctl {args:?} over {server} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 reply")
}

#[test]
fn daemon_serves_caches_and_shuts_down_over_a_unix_socket() {
    let unique = format!("bistd-smoke-{}.sock", std::process::id());
    let socket: PathBuf = std::env::temp_dir().join(unique);
    let _ = std::fs::remove_file(&socket);
    let path = socket.to_str().expect("utf-8 temp path");
    let mut daemon = Daemon::start(&["--unix", path]);
    let log = daemon.startup_log();
    assert!(log.contains(&format!("bistd: listening on unix {path}")), "{log:?}");
    daemon.check_and_shut_down(&format!("unix:{path}"));
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn daemon_serves_caches_and_shuts_down_over_tcp() {
    // Port 0 binds an ephemeral port; the daemon logs the address it got.
    let mut daemon = Daemon::start(&["--tcp", "127.0.0.1:0"]);
    let log = daemon.startup_log();
    let addr = log
        .iter()
        .find_map(|line| line.strip_prefix("bistd: listening on tcp "))
        .unwrap_or_else(|| panic!("bistd never reported its tcp address: {log:?}"))
        .to_string();
    daemon.check_and_shut_down(&addr);
}

#[test]
fn out_of_bound_queue_capacity_and_worker_count_exit_2_before_listening() {
    for bad in [["--queue-cap", "0"], ["--workers", "65"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bistd"))
            .args(["--tcp", "127.0.0.1:0"])
            .args(bad)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("bistd runs");
        // A daemon that started anyway is killed, so the test fails
        // rather than waits for a shutdown that never comes.
        let started = Instant::now();
        while child.try_wait().expect("poll bistd").is_none() {
            if started.elapsed() > Duration::from_secs(60) {
                let _ = child.kill();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("bistd output");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stdout} {stderr}");
        assert!(!stdout.contains("listening"), "{bad:?} listened: {stdout}");
        assert!(stderr.contains("usage: bistd"), "{bad:?} printed no usage: {stderr}");
    }
}
