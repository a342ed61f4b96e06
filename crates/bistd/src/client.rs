//! The client side of the campaign service: connect, speak frames, and
//! drive whole campaigns to completion.
//!
//! Used by the `bistctl` binary and by the `bench` harness's
//! `--server` mode. A [`Client`] owns one connection and issues one
//! request at a time (the protocol is strictly request/response per
//! frame); [`Client::run_campaign`] wraps submit-then-fetch, polling
//! with bounded server-side waits until the job is terminal.

use crate::frame::{self, FrameError};
use crate::proto::{Request, Response};
use bist_core::campaign::CampaignSpec;
use obs::JsonValue;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;

/// Where a daemon lives: `unix:<path>` or a TCP `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerAddr {
    /// TCP, e.g. `127.0.0.1:4817`.
    Tcp(String),
    /// Unix domain socket path.
    Unix(PathBuf),
}

impl ServerAddr {
    /// Parses an address string: a `unix:` prefix selects a Unix
    /// socket, anything else is a TCP `host:port`.
    pub fn parse(text: &str) -> ServerAddr {
        match text.strip_prefix("unix:") {
            Some(path) => ServerAddr::Unix(PathBuf::from(path)),
            None => ServerAddr::Tcp(text.to_string()),
        }
    }
}

impl fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerAddr::Tcp(addr) => write!(f, "{addr}"),
            ServerAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The stream carried unreadable framing.
    Frame(FrameError),
    /// The daemon replied with something the protocol does not allow
    /// here.
    Protocol(String),
    /// The daemon replied with a structured error.
    Server {
        /// One of [`crate::proto::codes`].
        code: String,
        /// The daemon's explanation.
        message: String,
        /// Backpressure hint, when the daemon offered one.
        retry_after_ms: Option<u64>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A successful submit reply.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The server-assigned job id.
    pub job: u64,
    /// Whether the result was served from the cache.
    pub cached: bool,
    /// The spec's canonical cache key.
    pub key: String,
    /// The accepted response-check mode (`"trace"` or `"signature"`).
    pub mode: String,
    /// Admission-time lint diagnostics (empty when the daemon does not
    /// lint, or found nothing).
    pub lint: Vec<obs::Diagnostic>,
}

/// The outcome of one complete campaign round trip.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The server-assigned job id.
    pub job: u64,
    /// Whether the artifact was served from the result cache.
    pub cached: bool,
    /// The spec's canonical cache key.
    pub key: String,
    /// The accepted response-check mode (`"trace"` or `"signature"`).
    pub mode: String,
    /// Admission-time lint diagnostics from the submit reply.
    pub lint: Vec<obs::Diagnostic>,
    /// The `RunArtifact` JSON object.
    pub artifact: JsonValue,
}

/// One connection to a campaign daemon.
pub struct Client {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection cannot be established.
    pub fn connect(addr: &ServerAddr) -> Result<Client, ClientError> {
        match addr {
            ServerAddr::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                // Requests are whole frames: send each at once.
                stream.set_nodelay(true)?;
                let reader = BufReader::new(stream.try_clone()?);
                Ok(Client { reader: Box::new(reader), writer: Box::new(stream) })
            }
            ServerAddr::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                let reader = BufReader::new(stream.try_clone()?);
                Ok(Client { reader: Box::new(reader), writer: Box::new(stream) })
            }
        }
    }

    /// Sends one request and reads its reply.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s; a structured daemon refusal is
    /// returned as `Ok(Response::Error { .. })`, not an `Err`.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        frame::write_frame(&mut self.writer, &request.to_json().to_json())?;
        let payload = frame::read_frame(&mut self.reader)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        Response::parse(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Submits a campaign.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for structured refusals (including
    /// `queue_full` backpressure and `lint_rejected` admission
    /// refusals), transport errors otherwise.
    pub fn submit(
        &mut self,
        spec: &CampaignSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Submission, ClientError> {
        match self.request(&Request::Submit { spec: spec.clone(), deadline_ms })? {
            Response::Submitted { job, cached, key, mode, lint } => {
                Ok(Submission { job, cached, key, mode, lint })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Fetches a job's artifact, blocking until the job is terminal.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code `job_failed` / `cancelled` for
    /// jobs that ended without an artifact.
    pub fn fetch_artifact(&mut self, job: u64) -> Result<(bool, JsonValue), ClientError> {
        loop {
            match self.request(&Request::Fetch { job, wait_ms: 30_000 })? {
                Response::Artifact { cached, artifact, .. } => {
                    return Ok((cached, Arc::unwrap_or_clone(artifact)))
                }
                Response::JobStatus { .. } => continue,
                other => return Err(unexpected(other)),
            }
        }
    }

    /// Submits and fetches in one call: the remote equivalent of
    /// `CampaignSpec::run`.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the submit or fetch legs.
    pub fn run_campaign(
        &mut self,
        spec: &CampaignSpec,
        deadline_ms: Option<u64>,
    ) -> Result<CampaignResult, ClientError> {
        let submission = self.submit(spec, deadline_ms)?;
        let (fetch_cached, artifact) = self.fetch_artifact(submission.job)?;
        Ok(CampaignResult {
            job: submission.job,
            cached: submission.cached || fetch_cached,
            key: submission.key,
            mode: submission.mode,
            lint: submission.lint,
            artifact,
        })
    }

    /// Queries a job's state, returning `(state, detail)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code `unknown_job` for bad ids.
    pub fn status(&mut self, job: u64) -> Result<(String, Option<String>), ClientError> {
        match self.request(&Request::Status { job })? {
            Response::JobStatus { state, detail, .. } => Ok((state, detail)),
            other => Err(unexpected(other)),
        }
    }

    /// Cancels a job.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code `unknown_job` for bad ids.
    pub fn cancel(&mut self, job: u64) -> Result<(), ClientError> {
        match self.request(&Request::Cancel { job })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Snapshots the daemon's metrics registry as JSON.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s.
    pub fn metrics(&mut self) -> Result<JsonValue, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to drain and stop.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(response: Response) -> ClientError {
    match response {
        Response::Error { code, message, retry_after_ms } => {
            ClientError::Server { code, message, retry_after_ms }
        }
        other => ClientError::Protocol(format!("unexpected reply {:?}", other.to_json().to_json())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_parse_and_display_round_trip() {
        assert_eq!(ServerAddr::parse("127.0.0.1:4817"), ServerAddr::Tcp("127.0.0.1:4817".into()));
        assert_eq!(
            ServerAddr::parse("unix:/tmp/bistd.sock"),
            ServerAddr::Unix(PathBuf::from("/tmp/bistd.sock"))
        );
        for text in ["127.0.0.1:4817", "unix:/tmp/bistd.sock"] {
            assert_eq!(ServerAddr::parse(text).to_string(), text);
        }
    }

    #[test]
    fn errors_display_their_layer() {
        let e = ClientError::Server {
            code: "queue_full".into(),
            message: "try later".into(),
            retry_after_ms: Some(250),
        };
        assert_eq!(e.to_string(), "server error (queue_full): try later");
        let e = ClientError::Protocol("weird".into());
        assert!(e.to_string().contains("protocol"));
        let e = ClientError::from(io::Error::new(io::ErrorKind::ConnectionRefused, "nope"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn connecting_to_nothing_is_an_io_error() {
        let err = Client::connect(&ServerAddr::Unix(PathBuf::from("/nonexistent/bistd.sock")))
            .err()
            .expect("no daemon there");
        assert!(matches!(err, ClientError::Io(_)), "{err}");
    }
}
