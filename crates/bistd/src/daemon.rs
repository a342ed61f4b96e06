//! The campaign daemon: accept loops, request dispatch, lifecycle.
//!
//! A [`Daemon`] listens on TCP (localhost) and/or a Unix domain
//! socket, speaks the framed protocol of [`crate::frame`] /
//! [`crate::proto`], and drives submitted campaigns through the job
//! table's bounded queue and the worker pool. Shutdown is graceful by
//! construction: the accept loops stop, the table closes (refusing new
//! work while still draining everything queued), workers finish their
//! in-flight jobs, and the result cache spills to disk.
//!
//! Per-connection threads hold no daemon state beyond an `Arc` to
//! the daemon's shared internals, and every malformed input path answers with
//! a structured [`Response::Error`] — the daemon never panics or
//! silently drops a request it could still reply to.

use crate::cache::ResultCache;
use crate::frame::{self, FrameError};
use crate::jobs::{JobState, JobTable, Refused};
use crate::proto::{codes, Request, Response};
use crate::worker;
use bist_core::campaign::{CampaignSpec, MAX_THREADS};
use faultsim::CancelToken;
use obs::Registry;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an accept loop sleeps between polls while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Upper bound on one `fetch` request's server-side wait, so a client
/// asking for "forever" still gets periodic status replies to keep the
/// connection visibly alive.
const MAX_FETCH_WAIT: Duration = Duration::from_secs(30);

/// What the daemon does with admission-time static analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// No admission linting; submits behave exactly as before.
    Off,
    /// Lint every submit and attach the diagnostics to the reply and
    /// the job (they end up in the run artifact), but never refuse. A
    /// cache hit reuses the diagnostics stored with its artifact for
    /// the same effective deadline.
    #[default]
    Annotate,
    /// Like `Annotate`, but refuse submissions carrying an
    /// error-severity diagnostic with [`codes::LINT_REJECTED`].
    Reject,
}

impl LintMode {
    /// Parses the `--lint` flag value.
    pub fn parse(s: &str) -> Option<LintMode> {
        match s {
            "off" => Some(LintMode::Off),
            "annotate" => Some(LintMode::Annotate),
            "reject" => Some(LintMode::Reject),
            _ => None,
        }
    }
}

/// Everything configurable about a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// TCP listen address (e.g. `127.0.0.1:0` for an ephemeral port);
    /// `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix domain socket path; `None` disables the Unix listener.
    pub unix: Option<PathBuf>,
    /// Worker threads executing campaigns (0 runs 1, at most
    /// [`MAX_THREADS`]).
    pub workers: usize,
    /// How many jobs may wait for a worker (at least 1). Running jobs
    /// do not count, and a cancelled job frees its slot at once; a
    /// submit beyond it gets `queue_full`.
    pub queue_capacity: usize,
    /// Result cache capacity, in artifacts.
    pub cache_capacity: usize,
    /// JSONL spill file: loaded at start, rewritten at shutdown.
    pub spill: Option<PathBuf>,
    /// Deadline applied to jobs that submit without one.
    pub default_deadline_ms: Option<u64>,
    /// Admission-time static-analysis policy.
    pub lint: LintMode,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            tcp: None,
            unix: None,
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            spill: None,
            default_deadline_ms: None,
            lint: LintMode::default(),
        }
    }
}

impl DaemonConfig {
    /// Checks the config without binding or spawning anything.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a config with no listener, a
    /// queue capacity of 0, or more than [`MAX_THREADS`] workers.
    pub fn validate(&self) -> io::Result<()> {
        let problem = if self.tcp.is_none() && self.unix.is_none() {
            "daemon config needs a tcp address or a unix socket path".to_string()
        } else if self.queue_capacity == 0 {
            "the job queue capacity must be at least 1".to_string()
        } else if self.workers > MAX_THREADS {
            format!("at most {MAX_THREADS} workers, not {}", self.workers)
        } else {
            return Ok(());
        };
        Err(io::Error::new(io::ErrorKind::InvalidInput, problem))
    }
}

struct Shared {
    jobs: Arc<JobTable>,
    cache: Arc<Mutex<ResultCache>>,
    metrics: Arc<Registry>,
    shutdown: AtomicBool,
    default_deadline_ms: Option<u64>,
    lint: LintMode,
}

/// A running campaign daemon.
pub struct Daemon {
    shared: Arc<Shared>,
    accept_handles: Vec<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    spill: Option<PathBuf>,
}

impl Daemon {
    /// Validates the config, binds the configured listeners, reloads
    /// the cache spill (if any), and spawns the worker pool and accept
    /// loops.
    ///
    /// # Errors
    ///
    /// [`DaemonConfig::validate`]'s [`io::ErrorKind::InvalidInput`]
    /// before anything is bound or spawned; bind failures, before
    /// anything is spawned; spawn failures, after the threads already
    /// spawned have been wound down.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        config.validate()?;
        // Bind every listener first: a failed bind returns here, with
        // the other listener dropped and no thread started.
        let tcp = match &config.tcp {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let tcp_addr = tcp.as_ref().map(TcpListener::local_addr).transpose()?;
        let unix = match &config.unix {
            Some(path) => {
                // A previous unclean exit may have left the socket file.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                if let Err(e) = listener.set_nonblocking(true) {
                    let _ = std::fs::remove_file(path);
                    return Err(e);
                }
                Some(listener)
            }
            None => None,
        };

        let metrics = Arc::new(Registry::new());
        let mut cache = ResultCache::new(config.cache_capacity);
        if let Some(path) = &config.spill {
            if let Ok(file) = std::fs::File::open(path) {
                let (loaded, skipped) = cache.load(BufReader::new(file));
                metrics.counter("bistd.cache.spill_loaded").add(loaded as u64);
                metrics.counter("bistd.cache.spill_skipped").add(skipped as u64);
            }
        }
        let shared = Arc::new(Shared {
            jobs: Arc::new(JobTable::new(config.queue_capacity, Arc::clone(&metrics))),
            cache: Arc::new(Mutex::new(cache)),
            metrics,
            shutdown: AtomicBool::new(false),
            default_deadline_ms: config.default_deadline_ms,
            lint: config.lint,
        });
        let mut daemon = Daemon {
            worker_handles: worker::spawn_workers(
                config.workers,
                &shared.jobs,
                &shared.cache,
                &shared.metrics,
            ),
            shared,
            accept_handles: Vec::new(),
            tcp_addr,
            unix_path: config.unix.clone(),
            spill: None,
        };
        if let Err(e) = daemon.spawn_accept_loops(tcp, unix) {
            // Wind down what did start; the spill is left as it was.
            daemon.begin_shutdown();
            let _ = daemon.join();
            return Err(e);
        }
        daemon.spill = config.spill;
        Ok(daemon)
    }

    /// Spawns one accept loop per bound listener.
    fn spawn_accept_loops(
        &mut self,
        tcp: Option<TcpListener>,
        unix: Option<UnixListener>,
    ) -> io::Result<()> {
        if let Some(listener) = tcp {
            let shared = Arc::clone(&self.shared);
            self.accept_handles.push(
                std::thread::Builder::new().name("bistd-accept-tcp".into()).spawn(move || {
                    accept_loop(
                        &shared,
                        || listener.accept().map(|(s, _)| s),
                        |s| {
                            s.set_nonblocking(false)?;
                            // Replies are whole frames: send each at
                            // once, not after the peer's delayed ACK.
                            s.set_nodelay(true)?;
                            let reader = BufReader::new(s.try_clone()?);
                            Ok((
                                Box::new(reader) as Box<dyn BufRead + Send>,
                                Box::new(s) as Box<dyn Write + Send>,
                            ))
                        },
                    );
                })?,
            );
        }
        if let Some(listener) = unix {
            let shared = Arc::clone(&self.shared);
            self.accept_handles.push(
                std::thread::Builder::new().name("bistd-accept-unix".into()).spawn(move || {
                    accept_loop(
                        &shared,
                        || listener.accept().map(|(s, _)| s),
                        |s| {
                            s.set_nonblocking(false)?;
                            let reader = BufReader::new(s.try_clone()?);
                            Ok((
                                Box::new(reader) as Box<dyn BufRead + Send>,
                                Box::new(s) as Box<dyn Write + Send>,
                            ))
                        },
                    );
                })?,
            );
        }
        Ok(())
    }

    /// The bound TCP address (with the real port when the config asked
    /// for an ephemeral one).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path, if any.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// Initiates shutdown exactly as a `shutdown` request would: stop
    /// accepting, close the job table (whose queue still drains).
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the daemon has fully drained: accept loops exited,
    /// all queued and in-flight jobs terminal, cache spilled. Returns
    /// once a `shutdown` request (or [`Daemon::begin_shutdown`])
    /// triggers the wind-down.
    ///
    /// # Errors
    ///
    /// Propagates spill-file I/O errors (the drain itself cannot fail).
    pub fn join(self) -> io::Result<()> {
        for handle in self.accept_handles {
            let _ = handle.join();
        }
        for handle in self.worker_handles {
            let _ = handle.join();
        }
        if let Some(path) = &self.spill {
            let cache = &self.shared.cache;
            let spilled = replace_file(path, |file| crate::lock(cache).spill(file))? as u64;
            self.shared.metrics.counter("bistd.cache.spilled").add(spilled);
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Writes a file through `write` and puts it at `path` whole or not at
/// all: `write` fills a sibling temporary file, which is synced and then
/// renamed over `path`. A failed write removes the temporary file and
/// leaves whatever `path` held before.
fn replace_file<T>(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<File>) -> io::Result<T>,
) -> io::Result<T> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let written = File::create(&tmp).and_then(|file| {
        let mut writer = io::BufWriter::new(file);
        let out = write(&mut writer)?;
        writer.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        Ok(out)
    });
    match written.and_then(|out| std::fs::rename(&tmp, path).map(|()| out)) {
        Ok(out) => Ok(out),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Polls `accept` until shutdown, spawning one detached handler thread
/// per connection. Handler threads die with their connection (or the
/// process); they are not joined, so an idle client cannot stall the
/// drain.
fn accept_loop<S>(
    shared: &Arc<Shared>,
    mut accept: impl FnMut() -> io::Result<S>,
    split: impl Fn(S) -> io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)>
        + Send
        + Copy
        + 'static,
) where
    S: Send + 'static,
{
    while !shared.shutdown.load(Ordering::Acquire) {
        match accept() {
            Ok(stream) => {
                shared.metrics.counter("bistd.connections").inc();
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new().name("bistd-conn".into()).spawn(
                    move || match split(stream) {
                        Ok((reader, writer)) => serve_connection(&conn_shared, reader, writer),
                        Err(_) => conn_shared.metrics.counter("bistd.connection_errors").inc(),
                    },
                );
                if spawned.is_err() {
                    shared.metrics.counter("bistd.connection_errors").inc();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// One connection's request loop. Framing errors get a best-effort
/// structured reply and close the connection (the stream can no longer
/// be trusted to re-synchronize); malformed payloads inside a valid
/// frame are answered and the connection keeps serving.
fn serve_connection(
    shared: &Arc<Shared>,
    mut reader: Box<dyn BufRead + Send>,
    mut writer: Box<dyn Write + Send>,
) {
    loop {
        match frame::read_frame(&mut reader) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                shared.metrics.counter("bistd.requests").inc();
                let response = match Request::parse(&payload) {
                    Ok(request) => shared.handle(request),
                    Err(e) => {
                        shared.metrics.counter("bistd.bad_requests").inc();
                        Response::Error {
                            code: e.code.into(),
                            message: e.message,
                            retry_after_ms: None,
                        }
                    }
                };
                if frame::write_frame(&mut writer, &response.to_wire()).is_err() {
                    break;
                }
            }
            Err(error) => {
                shared.metrics.counter("bistd.frame_errors").inc();
                let code = match &error {
                    FrameError::UnsupportedVersion { .. } => codes::UNSUPPORTED_VERSION,
                    _ => codes::BAD_FRAME,
                };
                let reply = Response::Error {
                    code: code.into(),
                    message: error.to_string(),
                    retry_after_ms: None,
                };
                let _ = frame::write_frame(&mut writer, &reply.to_json().to_json());
                break;
            }
        }
    }
}

impl Shared {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            self.jobs.close();
        }
    }

    fn handle(&self, request: Request) -> Response {
        match request {
            Request::Submit { spec, deadline_ms } => self.submit(spec, deadline_ms),
            Request::Status { job } => match self.jobs.get(job) {
                Some(record) => Response::JobStatus {
                    job,
                    state: record.state.name().into(),
                    detail: record.detail,
                },
                None => unknown_job(job),
            },
            Request::Fetch { job, wait_ms } => self.fetch(job, wait_ms),
            Request::Cancel { job } => {
                if self.jobs.cancel(job) {
                    self.metrics.counter("bistd.cancel_requests").inc();
                    Response::Ok
                } else {
                    unknown_job(job)
                }
            }
            Request::Metrics => {
                self.refresh_gauges();
                Response::Metrics { snapshot: self.metrics.snapshot().to_json() }
            }
            Request::Shutdown => {
                self.begin_shutdown();
                Response::Ok
            }
        }
    }

    fn submit(&self, spec: CampaignSpec, deadline_ms: Option<u64>) -> Response {
        if self.shutdown.load(Ordering::Acquire) {
            return shutting_down();
        }
        if let Err(e) = spec.validate() {
            self.metrics.counter("bistd.bad_requests").inc();
            return Response::Error {
                code: codes::BAD_REQUEST.into(),
                message: e.to_string(),
                retry_after_ms: None,
            };
        }
        // Admission-time static analysis: the cheap pairing and spec
        // passes, no fault-simulation cycle. `Annotate` attaches the
        // diagnostics; `Reject` additionally refuses on error severity.
        // They depend on the canonical spec and the deadline alone, so a
        // cached key reuses the diagnostics stored with its artifact and
        // a hit does no design work.
        let key = spec.canonical();
        let effective_deadline = deadline_ms.or(self.default_deadline_ms);
        let stored = match self.lint {
            LintMode::Off => Some(Arc::from([])),
            _ => crate::lock(&self.cache).admission(&key, effective_deadline),
        };
        let lint: Arc<[obs::Diagnostic]> = match stored {
            Some(lint) => lint,
            None => match lint::admission_lint(&spec, effective_deadline) {
                Ok(diags) => {
                    let diags: Arc<[obs::Diagnostic]> = diags.into();
                    // Kept only if the key is cached; a miss's entry
                    // is made by its worker and lints on its first hit.
                    crate::lock(&self.cache).set_admission(
                        &key,
                        effective_deadline,
                        Arc::clone(&diags),
                    );
                    diags
                }
                // `validate` passed, so this is a design-construction
                // failure the worker would also hit; refuse it here.
                Err(e) => {
                    self.metrics.counter("bistd.bad_requests").inc();
                    return Response::Error {
                        code: codes::BAD_REQUEST.into(),
                        message: e.to_string(),
                        retry_after_ms: None,
                    };
                }
            },
        };
        self.metrics.counter("bistd.lint.diagnostics").add(lint.len() as u64);
        if self.lint == LintMode::Reject {
            if let Some(first) = lint.iter().find(|d| d.severity == obs::Severity::Error) {
                self.metrics.counter("bistd.lint.rejections").inc();
                return Response::Error {
                    code: codes::LINT_REJECTED.into(),
                    message: format!("admission lint refused the campaign: {first}"),
                    retry_after_ms: None,
                };
            }
        }
        let mode = spec.mode.as_str().to_string();
        let reply = lint.to_vec();
        // Looked up again only now, so a refused request neither counts
        // as a hit nor refreshes the entry's LRU position.
        let hit = crate::lock(&self.cache).get(&key);
        if let Some(artifact) = hit {
            self.metrics.counter("bistd.cache.hits").inc();
            let job = self.jobs.create_done(spec, key.clone(), artifact, lint);
            return Response::Submitted { job, cached: true, key, mode, lint: reply };
        }
        self.metrics.counter("bistd.cache.misses").inc();
        let mut token = CancelToken::new();
        if let Some(ms) = effective_deadline {
            token = token.with_deadline(Instant::now() + Duration::from_millis(ms));
        }
        match self.jobs.submit(spec, key.clone(), token, lint) {
            Ok(job) => {
                self.metrics.counter("bistd.jobs_submitted").inc();
                Response::Submitted { job, cached: false, key, mode, lint: reply }
            }
            Err(Refused::Full { queued }) => {
                self.metrics.counter("bistd.queue_rejections").inc();
                // Heuristic backpressure hint: a slot frees when a job
                // starts or is cancelled, so scale the wait with the
                // backlog, which at refusal is the capacity.
                Response::Error {
                    code: codes::QUEUE_FULL.into(),
                    message: format!("job queue is at capacity ({queued}); retry later"),
                    retry_after_ms: Some(250 * (queued as u64 + 1)),
                }
            }
            Err(Refused::Closed) => shutting_down(),
        }
    }

    fn fetch(&self, job: u64, wait_ms: u64) -> Response {
        let wait = Duration::from_millis(wait_ms).min(MAX_FETCH_WAIT);
        let Some(record) = self.jobs.wait_terminal(job, wait) else {
            return unknown_job(job);
        };
        match record.state {
            JobState::Done => Response::Artifact {
                job,
                cached: record.cached,
                artifact: record.artifact.unwrap_or_else(|| Arc::new(obs::JsonValue::Null)),
            },
            JobState::Failed => Response::Error {
                code: codes::JOB_FAILED.into(),
                message: record.detail.unwrap_or_else(|| "job failed".into()),
                retry_after_ms: None,
            },
            JobState::Cancelled => Response::Error {
                code: codes::CANCELLED.into(),
                message: record.detail.unwrap_or_else(|| "job cancelled".into()),
                retry_after_ms: None,
            },
            state => Response::JobStatus { job, state: state.name().into(), detail: None },
        }
    }

    fn refresh_gauges(&self) {
        let counts = self.jobs.counts();
        self.metrics.set_gauge("bistd.queue_depth", counts[0].1 as f64);
        self.metrics.set_gauge("bistd.cache.entries", crate::lock(&self.cache).len() as f64);
        for (state, count) in counts {
            self.metrics.set_gauge(&format!("bistd.jobs.{state}"), count as f64);
        }
    }
}

fn shutting_down() -> Response {
    Response::Error {
        code: codes::SHUTTING_DOWN.into(),
        message: "daemon is draining and accepts no new campaigns".into(),
        retry_after_ms: None,
    }
}

fn unknown_job(job: u64) -> Response {
    Response::Error {
        code: codes::UNKNOWN_JOB.into(),
        message: format!("no job with id {job}"),
        retry_after_ms: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane_and_listenerless_start_is_rejected() {
        let config = DaemonConfig::default();
        assert!(config.workers >= 1);
        assert!(config.queue_capacity > 0);
        assert!(config.cache_capacity > 0);
        match Daemon::start(config) {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidInput),
            Ok(_) => panic!("a daemon with no listeners must not start"),
        }
    }

    #[test]
    fn out_of_bound_configs_fail_before_any_bind_or_spawn() {
        let socket = std::env::temp_dir().join(format!("bistd-bounds-{}.sock", std::process::id()));
        let base = DaemonConfig { unix: Some(socket.clone()), ..DaemonConfig::default() };
        for config in [
            DaemonConfig { queue_capacity: 0, ..base.clone() },
            DaemonConfig { workers: MAX_THREADS + 1, ..base.clone() },
            DaemonConfig { workers: usize::MAX, ..base.clone() },
        ] {
            match Daemon::start(config.clone()) {
                Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{config:?}"),
                Ok(_) => panic!("{config:?} must not start"),
            }
            assert!(!socket.exists(), "{config:?} bound its socket");
        }
        // The library clamps zero workers to one rather than refusing.
        assert!(DaemonConfig { workers: 0, ..base.clone() }.validate().is_ok());
        assert!(DaemonConfig { workers: MAX_THREADS, ..base }.validate().is_ok());
    }

    /// A writer that fails once `left` bytes have gone through.
    struct FailAfter<W> {
        inner: W,
        left: usize,
    }

    impl<W: Write> Write for FailAfter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("disk gone"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            self.inner.write(&buf[..n])
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn a_spill_that_fails_halfway_leaves_the_previous_spill_whole() {
        let dir = std::env::temp_dir().join(format!("bistd-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let mut cache = ResultCache::new(8);
        for key in ["a", "b", "c"] {
            cache.insert(key, obs::JsonValue::object().push("key", key));
        }
        assert_eq!(replace_file(&path, |w| cache.spill(w)).unwrap(), 3);
        let before = std::fs::read(&path).unwrap();

        cache.insert("d", obs::JsonValue::object().push("key", "d"));
        let half = before.len() / 2;
        let failed = replace_file(&path, |w| cache.spill(&mut FailAfter { inner: w, left: half }));
        assert!(failed.is_err(), "the writer failed");
        assert_eq!(std::fs::read(&path).unwrap(), before, "the previous spill is untouched");
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "no temporary file is left behind");
        let mut reloaded = ResultCache::new(8);
        let loaded = reloaded.load(BufReader::new(File::open(&path).unwrap()));
        assert_eq!(loaded, (3, 0));

        // A spill that succeeds replaces the file whole.
        assert_eq!(replace_file(&path, |w| cache.spill(w)).unwrap(), 4);
        let mut reloaded = ResultCache::new(8);
        assert_eq!(reloaded.load(BufReader::new(File::open(&path).unwrap())), (4, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let daemon = Daemon::start(DaemonConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..DaemonConfig::default()
        })
        .unwrap();
        assert!(daemon.tcp_addr().is_some());
        daemon.begin_shutdown();
        daemon.begin_shutdown();
        daemon.join().unwrap();
    }

    #[test]
    fn fetch_replies_with_the_stored_artifact_not_a_copy() {
        let daemon = Daemon::start(DaemonConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..DaemonConfig::default()
        })
        .unwrap();
        let stored = Arc::new(obs::JsonValue::object().push("schema", 1u64));
        let spec = CampaignSpec::new("LP-MINI", "LFSR-D", 64);
        let job =
            daemon.shared.jobs.create_done(spec, "k".into(), Arc::clone(&stored), Arc::new([]));
        match daemon.shared.fetch(job, 0) {
            Response::Artifact { artifact, .. } => assert!(Arc::ptr_eq(&artifact, &stored)),
            other => panic!("expected an artifact reply, got {other:?}"),
        }
        daemon.begin_shutdown();
        daemon.join().unwrap();
    }
}
