//! The daemon's job table: every submitted campaign's lifecycle, from
//! `queued` through a terminal state, observable by id.
//!
//! The table is the single source of truth for job state; the queue
//! only carries ids. All transitions happen under one lock so a
//! concurrent `cancel` and a worker claiming the same job can never
//! both win: [`JobTable::claim`] atomically checks the cancel token
//! before flipping `queued → running`.
//!
//! The table is bounded: it keeps every queued and running job but at
//! most [`MAX_FINISHED_JOBS`] terminal ones, dropping the oldest
//! finished first. A dropped id answers like any unknown id; its record
//! is freed, and its artifact and diagnostics with it once the result
//! cache no longer shares them.

use bist_core::campaign::CampaignSpec;
use faultsim::CancelToken;
use obs::JsonValue;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How many terminal job records the table keeps. `status` and `fetch`
/// of an older finished job answer `unknown_job`.
pub const MAX_FINISHED_JOBS: usize = 1024;

/// A job's position in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; an artifact is attached.
    Done,
    /// Finished with an error; the detail says why.
    Failed,
    /// Cancelled explicitly or by deadline before finishing.
    Cancelled,
}

impl JobState {
    /// The lowercase wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is final.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// Everything the daemon tracks about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's id (assigned at submit, starting from 1).
    pub id: u64,
    /// What was asked for.
    pub spec: CampaignSpec,
    /// The spec's canonical cache key.
    pub key: String,
    /// Lifecycle position.
    pub state: JobState,
    /// Failure / cancellation detail for terminal error states.
    pub detail: Option<String>,
    /// The run artifact, once `Done` (shared with the result cache).
    pub artifact: Option<Arc<JsonValue>>,
    /// Whether the artifact came from the result cache.
    pub cached: bool,
    /// The cooperative cancellation handle shared with the worker.
    pub cancel: CancelToken,
    /// Admission-time static-analysis diagnostics, attached at submit
    /// and carried into the run's artifact by the worker. A cache hit
    /// shares the allocation stored with its cache entry.
    pub lint: Arc<[obs::Diagnostic]>,
}

/// The concurrent id → [`JobRecord`] map.
pub struct JobTable {
    inner: Mutex<Inner>,
    changed: Condvar,
}

struct Inner {
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    /// Terminal job ids, oldest finished first.
    finished: VecDeque<u64>,
    max_finished: usize,
}

impl Inner {
    /// Records that `id` just reached a terminal state, dropping the
    /// oldest finished records beyond the cap.
    fn retire(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > self.max_finished {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

impl JobTable {
    /// An empty table keeping at most [`MAX_FINISHED_JOBS`] terminal
    /// records.
    pub fn new() -> JobTable {
        JobTable::with_finished_cap(MAX_FINISHED_JOBS)
    }

    /// An empty table keeping at most `max_finished` terminal records.
    pub(crate) fn with_finished_cap(max_finished: usize) -> JobTable {
        JobTable {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                next_id: 1,
                finished: VecDeque::new(),
                max_finished,
            }),
            changed: Condvar::new(),
        }
    }

    /// Registers a new job in `state` and returns its id.
    pub fn create(
        &self,
        spec: CampaignSpec,
        key: String,
        cancel: CancelToken,
        state: JobState,
    ) -> u64 {
        self.register(JobRecord {
            id: 0,
            spec,
            key,
            state,
            detail: None,
            artifact: None,
            cached: false,
            cancel,
            lint: Arc::new([]),
        })
    }

    /// Inserts `record` under the next id and returns that id.
    fn register(&self, mut record: JobRecord) -> u64 {
        let mut inner = crate::lock(&self.inner);
        let id = inner.next_id;
        inner.next_id += 1;
        record.id = id;
        let terminal = record.state.is_terminal();
        inner.jobs.insert(id, record);
        if terminal {
            inner.retire(id);
        }
        id
    }

    /// Attaches admission-time lint diagnostics to a job. Workers read
    /// them back through [`JobTable::claim`] so they land in the run's
    /// artifact.
    pub fn set_lint(&self, id: u64, lint: Arc<[obs::Diagnostic]>) {
        let mut inner = crate::lock(&self.inner);
        if let Some(record) = inner.jobs.get_mut(&id) {
            record.lint = lint;
        }
    }

    /// Registers an already-completed job (a cache hit) with its
    /// admission diagnostics and returns its id.
    pub fn create_done(
        &self,
        spec: CampaignSpec,
        key: String,
        artifact: impl Into<Arc<JsonValue>>,
        lint: Arc<[obs::Diagnostic]>,
    ) -> u64 {
        self.register(JobRecord {
            id: 0,
            spec,
            key,
            state: JobState::Done,
            detail: None,
            artifact: Some(artifact.into()),
            cached: true,
            cancel: CancelToken::new(),
            lint,
        })
    }

    /// A snapshot of one job.
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        crate::lock(&self.inner).jobs.get(&id).cloned()
    }

    /// Atomically claims a queued job for execution: flips it to
    /// `Running` and hands back what the worker needs, or — if its
    /// token already fired — marks it `Cancelled` and returns `None`.
    /// Also returns `None` for ids in any other state (e.g. cancelled
    /// while queued).
    pub fn claim(&self, id: u64) -> Option<(CampaignSpec, CancelToken, Vec<obs::Diagnostic>)> {
        let mut inner = crate::lock(&self.inner);
        let record = inner.jobs.get_mut(&id)?;
        if record.state != JobState::Queued {
            return None;
        }
        if record.cancel.is_cancelled() {
            record.state = JobState::Cancelled;
            record.detail = Some(
                if record.cancel.deadline_exceeded() {
                    "deadline exceeded before the job started"
                } else {
                    "cancelled before the job started"
                }
                .into(),
            );
            inner.retire(id);
            self.changed.notify_all();
            return None;
        }
        record.state = JobState::Running;
        Some((record.spec.clone(), record.cancel.clone(), record.lint.to_vec()))
    }

    /// Moves a job to a terminal state, attaching artifact or detail.
    pub fn finish(
        &self,
        id: u64,
        state: JobState,
        detail: Option<String>,
        artifact: Option<Arc<JsonValue>>,
    ) {
        debug_assert!(state.is_terminal());
        let mut inner = crate::lock(&self.inner);
        if let Some(record) = inner.jobs.get_mut(&id) {
            let was_terminal = record.state.is_terminal();
            record.state = state;
            record.detail = detail;
            record.artifact = artifact;
            if !was_terminal {
                inner.retire(id);
            }
        }
        self.changed.notify_all();
    }

    /// Fires a job's cancel token. A still-queued job is marked
    /// cancelled immediately; a running one stops at its next stage
    /// boundary and the worker records the terminal state. Returns
    /// `false` for unknown ids.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = crate::lock(&self.inner);
        let Some(record) = inner.jobs.get_mut(&id) else {
            return false;
        };
        record.cancel.cancel();
        if record.state == JobState::Queued {
            record.state = JobState::Cancelled;
            record.detail = Some("cancelled while queued".into());
            inner.retire(id);
            self.changed.notify_all();
        }
        true
    }

    /// Blocks until the job reaches a terminal state or `timeout`
    /// elapses, returning the final (or last observed) snapshot.
    /// `None` for unknown ids.
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + timeout;
        let mut inner = crate::lock(&self.inner);
        loop {
            let record = inner.jobs.get(&id)?;
            if record.state.is_terminal() {
                return Some(record.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(record.clone());
            }
            let (guard, _) = self
                .changed
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// How many jobs the table holds in each state, as `(state name,
    /// count)` pairs in lifecycle order (for gauges). Terminal counts
    /// cover only the records still kept.
    pub fn counts(&self) -> [(&'static str, usize); 5] {
        let inner = crate::lock(&self.inner);
        let mut out = [
            (JobState::Queued.name(), 0),
            (JobState::Running.name(), 0),
            (JobState::Done.name(), 0),
            (JobState::Failed.name(), 0),
            (JobState::Cancelled.name(), 0),
        ];
        for record in inner.jobs.values() {
            let slot = match record.state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
            };
            out[slot].1 += 1;
        }
        out
    }
}

impl Default for JobTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec::new("LP", "LFSR-D", 64)
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let table = JobTable::new();
        let id = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        assert_eq!(id, 1);
        assert_eq!(table.get(id).unwrap().state, JobState::Queued);
        let (claimed_spec, _token, _lint) = table.claim(id).unwrap();
        assert_eq!(claimed_spec, spec());
        assert_eq!(table.get(id).unwrap().state, JobState::Running);
        assert!(table.claim(id).is_none(), "running jobs cannot be claimed twice");
        table.finish(id, JobState::Done, None, Some(JsonValue::object().into()));
        let record = table.get(id).unwrap();
        assert_eq!(record.state, JobState::Done);
        assert!(record.artifact.is_some());
        assert!(record.state.is_terminal());
    }

    #[test]
    fn lint_attached_at_submit_reaches_the_claiming_worker() {
        let table = JobTable::new();
        let id = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        let diag = obs::Diagnostic::new(
            "L102",
            obs::Severity::Warn,
            obs::Location::Node { label: "tap20.acc".into(), cell: Some(15) },
            "variance mismatch",
        );
        table.set_lint(id, Arc::new([diag.clone()]));
        let (_spec, _token, lint) = table.claim(id).unwrap();
        assert_eq!(lint, vec![diag]);
        table.set_lint(999, Arc::new([])); // unknown ids are a no-op
    }

    #[test]
    fn cancel_while_queued_is_immediate() {
        let table = JobTable::new();
        let id = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        assert!(table.cancel(id));
        let record = table.get(id).unwrap();
        assert_eq!(record.state, JobState::Cancelled);
        assert!(record.detail.unwrap().contains("queued"));
        assert!(table.claim(id).is_none(), "a cancelled job is never claimed");
        assert!(!table.cancel(999), "unknown ids report false");
    }

    #[test]
    fn claim_observes_token_fired_between_submit_and_pop() {
        let table = JobTable::new();
        let token = CancelToken::new();
        let id = table.create(spec(), "k".into(), token.clone(), JobState::Queued);
        token.cancel();
        assert!(table.claim(id).is_none());
        assert_eq!(table.get(id).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn cache_hits_register_as_done_and_cached() {
        let table = JobTable::new();
        let lint: Arc<[obs::Diagnostic]> = Arc::new([]);
        let artifact = JsonValue::object().push("schema", 1u64);
        let id = table.create_done(spec(), "k".into(), artifact, Arc::clone(&lint));
        let record = table.get(id).unwrap();
        assert_eq!(record.state, JobState::Done);
        assert!(record.cached);
        assert!(record.artifact.is_some());
        assert!(Arc::ptr_eq(&record.lint, &lint), "the hit shares the cached diagnostics");
    }

    #[test]
    fn finished_records_beyond_the_cap_are_dropped_oldest_first() {
        let table = JobTable::with_finished_cap(2);
        let queued = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        let running = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        table.claim(running).unwrap();
        let artifact = || JsonValue::object();
        let first = table.create_done(spec(), "k".into(), artifact(), Arc::new([]));
        let second = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        table.cancel(second);
        assert!(table.get(first).is_some() && table.get(second).is_some(), "within the cap");
        let third = table.create_done(spec(), "k".into(), artifact(), Arc::new([]));
        assert!(table.get(first).is_none(), "the oldest finished record is dropped");
        assert!(table.wait_terminal(first, Duration::from_millis(1)).is_none());
        assert!(!table.cancel(first), "a dropped id is unknown");
        assert_eq!(table.get(second).unwrap().state, JobState::Cancelled);
        assert!(table.get(third).is_some());
        // Queued and running jobs are never dropped, however many finish.
        for _ in 0..4 {
            table.create_done(spec(), "k".into(), artifact(), Arc::new([]));
        }
        assert_eq!(table.get(queued).unwrap().state, JobState::Queued);
        assert_eq!(table.get(running).unwrap().state, JobState::Running);
        // The running job's finish counts once, even if finished twice.
        table.finish(running, JobState::Done, None, Some(artifact().into()));
        table.finish(running, JobState::Failed, Some("again".into()), None);
        let newest = table.create_done(spec(), "k".into(), artifact(), Arc::new([]));
        assert!(table.get(running).is_some() && table.get(newest).is_some());
        let counts: std::collections::HashMap<_, _> = table.counts().into_iter().collect();
        assert_eq!(counts["queued"], 1);
        assert_eq!(counts["done"] + counts["failed"] + counts["cancelled"], 2);
    }

    #[test]
    fn wait_terminal_blocks_until_finish() {
        let table = std::sync::Arc::new(JobTable::new());
        let id = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        // A zero-ish timeout returns the non-terminal snapshot.
        let early = table.wait_terminal(id, Duration::from_millis(1)).unwrap();
        assert_eq!(early.state, JobState::Queued);
        let finisher = {
            let table = std::sync::Arc::clone(&table);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                table.finish(id, JobState::Failed, Some("boom".into()), None);
            })
        };
        let record = table.wait_terminal(id, Duration::from_secs(10)).unwrap();
        assert_eq!(record.state, JobState::Failed);
        assert_eq!(record.detail.as_deref(), Some("boom"));
        finisher.join().unwrap();
        assert!(table.wait_terminal(999, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn a_poisoned_job_table_still_answers() {
        let table = std::sync::Arc::new(JobTable::new());
        let id = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        let holder = std::sync::Arc::clone(&table);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.inner.lock().unwrap();
            panic!("a thread dies holding the job-table lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(table.inner.is_poisoned());
        assert_eq!(table.get(id).unwrap().state, JobState::Queued);
        assert!(table.claim(id).is_some());
        table.finish(id, JobState::Done, None, Some(JsonValue::object().into()));
        assert_eq!(table.get(id).unwrap().state, JobState::Done);
        let waited = table.wait_terminal(id, Duration::from_millis(1)).unwrap();
        assert_eq!(waited.state, JobState::Done);
        let next = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        assert!(table.cancel(next));
        let counts: std::collections::HashMap<_, _> = table.counts().into_iter().collect();
        assert_eq!((counts["done"], counts["cancelled"]), (1, 1));
    }

    #[test]
    fn counts_track_states() {
        let table = JobTable::new();
        let a = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        let _b = table.create(spec(), "k".into(), CancelToken::new(), JobState::Queued);
        table.claim(a).unwrap();
        let counts: std::collections::HashMap<_, _> = table.counts().into_iter().collect();
        assert_eq!(counts["queued"], 1);
        assert_eq!(counts["running"], 1);
        assert_eq!(counts["done"], 0);
    }
}
