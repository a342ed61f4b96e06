//! `bistd` — the campaign service daemon: a long-lived BIST experiment
//! runner with a job queue, a worker pool, and a content-addressed
//! result cache, speaking a framed JSON protocol over TCP and Unix
//! domain sockets.
//!
//! The library layers, bottom-up:
//!
//! * [`frame`] — length-prefixed `BISTD/1` framing with a hard size
//!   cap; every malformed input is a structured error, never a panic.
//! * [`proto`] — the request/response messages and their JSON wire
//!   forms, built on `obs::json`.
//! * [`jobs`] — the job table: every submission's lifecycle from
//!   `queued` to a terminal state, and under the same lock the bounded
//!   FIFO of queued jobs that workers block on; a full queue refuses
//!   at once (the `queue_full` backpressure path), cancellation is
//!   race-free, and the table keeps every live job and a bounded
//!   number of finished ones.
//! * [`cache`] — FNV-1a content addressing of canonical campaign keys
//!   to completed artifacts, LRU-bounded, with JSONL spill/reload.
//!   Hits replay artifacts bit-identically to the run that made them,
//!   and reuse the admission diagnostics stored with the entry.
//! * [`worker`] — N threads driving `CampaignSpec::run` with per-job
//!   [`faultsim::CancelToken`]s (deadlines and `cancel` both land at
//!   fault-simulation stage boundaries).
//! * [`daemon`] — accept loops, dispatch, graceful drain-and-spill
//!   shutdown, and a per-daemon [`obs::Registry`] served by the
//!   `metrics` request. Submits are statically linted at admission
//!   ([`daemon::LintMode`]): diagnostics annotate the reply and the
//!   run's artifact, and `--lint reject` refuses campaigns carrying an
//!   error-severity diagnostic without simulating a single vector.
//! * [`client`] — the programmatic client used by `bistctl` and the
//!   `bench` harness's `--server` mode.
//!
//! Everything is `std`-only, matching the workspace's offline build
//! gate.

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod frame;
pub mod jobs;
pub mod proto;
pub mod worker;

pub use client::{CampaignResult, Client, ClientError, ServerAddr, Submission};
pub use daemon::{Daemon, DaemonConfig, LintMode};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, taking the guard back if a thread panicked while
/// holding it, so one panic never turns every later request into a
/// daemon-wide panic. Recovery is sound for each lock in this crate,
/// because no critical section can leave a wrong answer behind:
///
/// * the job table changes a job with one insert or one group of field
///   writes, and its queue with one push, pop or removal of an id, or
///   the closed flag; so a panic can at worst skip an id, or leave one
///   job short of its terminal state or queued but out of the queue,
///   which `finish` or `cancel` still end;
/// * every cache entry carries its own canonical key and `get` matches
///   it exactly, so no key can serve another key's artifact; a panic
///   inside `insert` can at worst miscount the entries, which only moves
///   eviction.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
