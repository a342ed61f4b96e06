//! The request/response messages of the campaign service, and their
//! JSON wire forms.
//!
//! Every frame payload is one JSON object. Requests carry an `"op"`
//! discriminator; responses carry `"reply"`. Malformed or unknown
//! messages never panic — they parse into a [`ProtoError`] which the
//! daemon turns into a structured [`Response::Error`] so the client
//! always learns *why* it was refused.

use bist_core::campaign::CampaignSpec;
use obs::JsonValue;
use std::fmt;
use std::sync::Arc;

/// Machine-readable error codes carried by [`Response::Error`].
pub mod codes {
    /// The frame payload was not parseable as a protocol message.
    pub const BAD_FRAME: &str = "bad_frame";
    /// The message parsed but its content was invalid (unknown design,
    /// zero vectors, ...).
    pub const BAD_REQUEST: &str = "bad_request";
    /// No job with the given id exists.
    pub const UNKNOWN_JOB: &str = "unknown_job";
    /// The job queue is at capacity; retry after the hinted delay.
    pub const QUEUE_FULL: &str = "queue_full";
    /// The daemon is draining and accepts no new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The job ran and failed; the message carries the cause.
    pub const JOB_FAILED: &str = "job_failed";
    /// The job was cancelled (explicitly or by its deadline).
    pub const CANCELLED: &str = "cancelled";
    /// Admission-time static analysis found an error-severity
    /// diagnostic and the daemon is configured to reject on error; the
    /// message carries the first offending diagnostic.
    pub const LINT_REJECTED: &str = "lint_rejected";
    /// The client's frame header advertised a protocol generation this
    /// daemon does not speak.
    pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
}

/// One client→daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a campaign (or hit the result cache).
    Submit {
        /// What to run.
        spec: CampaignSpec,
        /// Per-job wall-clock budget; `None` uses the daemon default.
        deadline_ms: Option<u64>,
    },
    /// Query a job's current state.
    Status {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Fetch a job's artifact, optionally blocking until it is
    /// terminal.
    Fetch {
        /// Job id from [`Response::Submitted`].
        job: u64,
        /// How long to block waiting for completion (0 = poll).
        wait_ms: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Snapshot the daemon's metric registry.
    Metrics,
    /// Stop accepting work, drain the queue, flush the cache spill.
    Shutdown,
}

impl Request {
    /// Renders the request as its JSON wire object.
    pub fn to_json(&self) -> JsonValue {
        match self {
            Request::Submit { spec, deadline_ms } => {
                let mut v = JsonValue::object().push("op", "submit").push("spec", spec.to_json());
                if let Some(ms) = deadline_ms {
                    v = v.push("deadline_ms", *ms);
                }
                v
            }
            Request::Status { job } => JsonValue::object().push("op", "status").push("job", *job),
            Request::Fetch { job, wait_ms } => {
                JsonValue::object().push("op", "fetch").push("job", *job).push("wait_ms", *wait_ms)
            }
            Request::Cancel { job } => JsonValue::object().push("op", "cancel").push("job", *job),
            Request::Metrics => JsonValue::object().push("op", "metrics"),
            Request::Shutdown => JsonValue::object().push("op", "shutdown"),
        }
    }

    /// Parses a request from frame payload text.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] describing what was malformed; the daemon maps it
    /// to [`codes::BAD_FRAME`] / [`codes::BAD_REQUEST`].
    pub fn parse(payload: &str) -> Result<Request, ProtoError> {
        let v = JsonValue::parse(payload)
            .map_err(|e| ProtoError { code: codes::BAD_FRAME, message: e.to_string() })?;
        let op = v.get("op").and_then(JsonValue::as_str).ok_or(ProtoError {
            code: codes::BAD_REQUEST,
            message: "request has no 'op' field".into(),
        })?;
        let job = |v: &JsonValue| {
            v.get("job").and_then(JsonValue::as_u64).ok_or(ProtoError {
                code: codes::BAD_REQUEST,
                message: "request needs a numeric 'job' field".into(),
            })
        };
        match op {
            "submit" => {
                let spec_json = v.get("spec").ok_or(ProtoError {
                    code: codes::BAD_REQUEST,
                    message: "submit needs a 'spec' object".into(),
                })?;
                let spec = CampaignSpec::from_json(spec_json)
                    .map_err(|e| ProtoError { code: codes::BAD_REQUEST, message: e.to_string() })?;
                Ok(Request::Submit {
                    spec,
                    deadline_ms: v.get("deadline_ms").and_then(JsonValue::as_u64),
                })
            }
            "status" => Ok(Request::Status { job: job(&v)? }),
            "fetch" => Ok(Request::Fetch {
                job: job(&v)?,
                wait_ms: v.get("wait_ms").and_then(JsonValue::as_u64).unwrap_or(0),
            }),
            "cancel" => Ok(Request::Cancel { job: job(&v)? }),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError {
                code: codes::BAD_REQUEST,
                message: format!("unknown op '{other}'"),
            }),
        }
    }
}

/// One daemon→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A submit was accepted (or served from cache).
    Submitted {
        /// The job id for later `status`/`fetch`/`cancel`.
        job: u64,
        /// Whether the result came from the content-addressed cache.
        cached: bool,
        /// The canonical cache key the spec hashed to.
        key: String,
        /// The accepted spec's response-check mode (`"trace"` or
        /// `"signature"`), echoed so clients know which verdict
        /// semantics the artifact will carry.
        mode: String,
        /// Admission-time static-analysis diagnostics (empty when
        /// linting is off or found nothing; omitted from the wire form
        /// when empty).
        lint: Vec<obs::Diagnostic>,
    },
    /// A job's current, possibly non-terminal state.
    JobStatus {
        /// The queried job.
        job: u64,
        /// `queued` / `running` / `done` / `failed` / `cancelled`.
        state: String,
        /// Failure or cancellation detail, when there is one.
        detail: Option<String>,
    },
    /// A completed job's artifact.
    Artifact {
        /// The fetched job.
        job: u64,
        /// Whether the artifact came from the cache.
        cached: bool,
        /// The `RunArtifact` JSON object, shared with the daemon's
        /// job table and result cache.
        artifact: Arc<JsonValue>,
    },
    /// A metrics snapshot (`obs::Snapshot::to_json` shape).
    Metrics {
        /// Counters, gauges, histograms and spans.
        snapshot: JsonValue,
    },
    /// Generic success (cancel acknowledged, shutdown begun).
    Ok,
    /// A structured refusal; the daemon never silently drops a request.
    Error {
        /// One of [`codes`].
        code: String,
        /// Human-readable cause.
        message: String,
        /// Backpressure hint for [`codes::QUEUE_FULL`].
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// Renders the response as its JSON wire object.
    pub fn to_json(&self) -> JsonValue {
        match self {
            Response::Submitted { job, cached, key, mode, lint } => {
                let mut v = JsonValue::object()
                    .push("reply", "submitted")
                    .push("job", *job)
                    .push("cached", *cached)
                    .push("key", key.as_str())
                    .push("mode", mode.as_str());
                if !lint.is_empty() {
                    v = v.push("lint", obs::diag::diagnostics_to_json(lint));
                }
                v
            }
            Response::JobStatus { job, state, detail } => {
                let mut v = JsonValue::object()
                    .push("reply", "status")
                    .push("job", *job)
                    .push("state", state.as_str());
                if let Some(d) = detail {
                    v = v.push("detail", d.as_str());
                }
                v
            }
            Response::Artifact { job, cached, artifact } => {
                Self::artifact_head(*job, *cached).push("artifact", JsonValue::clone(artifact))
            }
            Response::Metrics { snapshot } => {
                JsonValue::object().push("reply", "metrics").push("snapshot", snapshot.clone())
            }
            Response::Ok => JsonValue::object().push("reply", "ok"),
            Response::Error { code, message, retry_after_ms } => {
                let mut v = JsonValue::object()
                    .push("reply", "error")
                    .push("code", code.as_str())
                    .push("message", message.as_str());
                if let Some(ms) = retry_after_ms {
                    v = v.push("retry_after_ms", *ms);
                }
                v
            }
        }
    }

    /// The compact wire text of [`Response::to_json`]. An artifact
    /// reply serializes its shared artifact in place, without copying
    /// it into a reply tree first.
    pub fn to_wire(&self) -> String {
        let Response::Artifact { job, cached, artifact } = self else {
            return self.to_json().to_json();
        };
        let mut out = Self::artifact_head(*job, *cached).to_json();
        out.pop(); // the head's closing brace
        out.push_str(",\"artifact\":");
        artifact.write_json(&mut out);
        out.push('}');
        out
    }

    /// An artifact reply's fields before the artifact itself.
    fn artifact_head(job: u64, cached: bool) -> JsonValue {
        JsonValue::object().push("reply", "artifact").push("job", job).push("cached", cached)
    }

    /// Parses a response from frame payload text.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] if the payload is not a well-formed response.
    pub fn parse(payload: &str) -> Result<Response, ProtoError> {
        let bad = |message: String| ProtoError { code: codes::BAD_FRAME, message };
        let v = JsonValue::parse(payload).map_err(|e| bad(e.to_string()))?;
        let reply = v
            .get("reply")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("response has no 'reply' field".into()))?;
        let job = |v: &JsonValue| {
            v.get("job")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad("response needs a numeric 'job' field".into()))
        };
        let text = |v: &JsonValue, name: &str| {
            v.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("response needs a '{name}' string")))
        };
        match reply {
            "submitted" => Ok(Response::Submitted {
                job: job(&v)?,
                cached: v.get("cached").and_then(JsonValue::as_bool).unwrap_or(false),
                key: text(&v, "key")?,
                mode: v.get("mode").and_then(JsonValue::as_str).unwrap_or("trace").to_string(),
                lint: match v.get("lint") {
                    Some(diags) => obs::diag::diagnostics_from_json(diags)
                        .ok_or_else(|| bad("submitted response with bad 'lint'".into()))?,
                    None => Vec::new(),
                },
            }),
            "status" => Ok(Response::JobStatus {
                job: job(&v)?,
                state: text(&v, "state")?,
                detail: v.get("detail").and_then(JsonValue::as_str).map(str::to_string),
            }),
            "artifact" => Ok(Response::Artifact {
                job: job(&v)?,
                cached: v.get("cached").and_then(JsonValue::as_bool).unwrap_or(false),
                artifact: v
                    .get("artifact")
                    .cloned()
                    .map(Arc::new)
                    .ok_or_else(|| bad("artifact response without 'artifact'".into()))?,
            }),
            "metrics" => Ok(Response::Metrics {
                snapshot: v
                    .get("snapshot")
                    .cloned()
                    .ok_or_else(|| bad("metrics response without 'snapshot'".into()))?,
            }),
            "ok" => Ok(Response::Ok),
            "error" => Ok(Response::Error {
                code: text(&v, "code")?,
                message: text(&v, "message")?,
                retry_after_ms: v.get("retry_after_ms").and_then(JsonValue::as_u64),
            }),
            other => Err(bad(format!("unknown reply '{other}'"))),
        }
    }
}

/// A protocol-level parse/validation failure, already carrying the
/// error code the daemon should answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of [`codes`].
    pub code: &'static str,
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let all = [
            Request::Submit {
                spec: CampaignSpec::new("LP", "LFSR-D", 4096),
                deadline_ms: Some(5000),
            },
            Request::Submit {
                spec: CampaignSpec {
                    boundaries: Some(vec![16, 64]),
                    ..CampaignSpec::new("BP", "Mixed@2048", 128)
                },
                deadline_ms: None,
            },
            Request::Status { job: 7 },
            Request::Fetch { job: 7, wait_ms: 1500 },
            Request::Cancel { job: 7 },
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in all {
            let wire = req.to_json().to_json();
            assert_eq!(Request::parse(&wire).unwrap(), req, "{wire}");
        }
    }

    #[test]
    fn responses_round_trip_through_json() {
        let all = [
            Response::Submitted {
                job: 1,
                cached: true,
                key: "design=LP;...".into(),
                mode: "trace".into(),
                lint: vec![],
            },
            Response::Submitted {
                job: 3,
                cached: false,
                key: "design=LP;...".into(),
                mode: "signature".into(),
                lint: vec![obs::Diagnostic::new(
                    "L201",
                    obs::Severity::Error,
                    obs::Location::Bin { bin: 7, bins: 512 },
                    "spectral null over the passband",
                )],
            },
            Response::JobStatus { job: 1, state: "running".into(), detail: None },
            Response::JobStatus {
                job: 2,
                state: "failed".into(),
                detail: Some("filter design failed".into()),
            },
            Response::Artifact {
                job: 1,
                cached: false,
                artifact: Arc::new(
                    JsonValue::object()
                        .push("schema", 1u64)
                        .push("stages", JsonValue::Array(vec![JsonValue::object()])),
                ),
            },
            Response::Metrics { snapshot: JsonValue::object() },
            Response::Ok,
            Response::Error {
                code: codes::QUEUE_FULL.into(),
                message: "queue is full".into(),
                retry_after_ms: Some(250),
            },
        ];
        for resp in all {
            let wire = resp.to_wire();
            // The in-place artifact serialization writes the same bytes
            // as the reply tree.
            assert_eq!(wire, resp.to_json().to_json());
            assert_eq!(Response::parse(&wire).unwrap(), resp, "{wire}");
        }
    }

    #[test]
    fn malformed_requests_classify_frame_vs_request_errors() {
        // Unparseable JSON is a framing-level problem...
        let e = Request::parse("{nope").unwrap_err();
        assert_eq!(e.code, codes::BAD_FRAME);
        // ...well-formed JSON with bad content is a request problem.
        for payload in [
            "{}",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"status\"}",
            "{\"op\":\"status\",\"job\":\"seven\"}",
            "{\"op\":\"submit\"}",
            "{\"op\":\"submit\",\"spec\":{\"design\":\"LP\"}}",
        ] {
            let e = Request::parse(payload).unwrap_err();
            assert_eq!(e.code, codes::BAD_REQUEST, "{payload}: {e}");
            assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn empty_lint_is_omitted_from_the_wire_form() {
        // The daemon smoke test (and any line-oriented tooling) greps
        // the submitted reply; an unlinted daemon must produce exactly
        // the pre-lint wire bytes.
        let clean = Response::Submitted {
            job: 1,
            cached: false,
            key: "k".into(),
            mode: "trace".into(),
            lint: vec![],
        };
        assert!(!clean.to_json().to_json().contains("lint"));
    }

    #[test]
    fn submitted_without_mode_defaults_to_trace() {
        // Pre-compaction daemons never sent 'mode'; old wire captures
        // must still parse.
        let parsed = Response::parse("{\"reply\":\"submitted\",\"job\":4,\"key\":\"k\"}").unwrap();
        match parsed {
            Response::Submitted { mode, .. } => assert_eq!(mode, "trace"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_responses_are_errors_not_panics() {
        for payload in ["{nope", "{}", "{\"reply\":\"uhh\"}", "{\"reply\":\"artifact\",\"job\":1}"]
        {
            assert!(Response::parse(payload).is_err(), "{payload}");
        }
    }
}
