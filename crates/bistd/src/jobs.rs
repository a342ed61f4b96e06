//! The daemon's job store: every submitted campaign's lifecycle, from
//! `queued` through a terminal state, observable by id, and the queue
//! the workers take jobs from.
//!
//! One lock holds the records, the FIFO of queued ids, its capacity
//! and the closed flag, so a job's state and its place in the queue
//! never disagree:
//!
//! * [`JobTable::submit`] registers and enqueues a job in one step, or
//!   refuses it (queue full, table closed) without making a record;
//! * [`JobTable::next`] blocks until a job is queued, takes it, checks
//!   its cancel token and flips it `queued → running`, so a concurrent
//!   `cancel` and a worker starting the same job can never both win;
//! * [`JobTable::cancel`] ends a queued job at once and frees its slot;
//! * [`JobTable::close`] refuses new jobs; queued ones still drain, and
//!   `next` returns `None` once the queue is empty.
//!
//! The table is bounded: it keeps every queued and running job but at
//! most [`MAX_FINISHED_JOBS`] terminal ones, dropping the oldest
//! finished first. A dropped id answers like any unknown id; its record
//! is freed, and its artifact and diagnostics with it once the result
//! cache no longer shares them.

use bist_core::campaign::CampaignSpec;
use faultsim::CancelToken;
use obs::{JsonValue, Registry};
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

/// Why [`JobTable::submit`] refused a job. A refused job gets no id
/// and no record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The queue is at capacity, holding `queued` jobs; retry later.
    Full {
        /// The queued jobs, as many as the capacity.
        queued: usize,
    },
    /// The table was closed; no new job is accepted.
    Closed,
}

/// The concurrent id → [`JobRecord`] map and its bounded FIFO of
/// queued jobs.
pub struct JobTable {
    inner: Mutex<Inner>,
    /// Signalled when a job turns terminal.
    changed: Condvar,
    /// Signalled when a job is queued or the table closes.
    ready: Condvar,
    /// Where cancelled queued jobs (`bistd.jobs_cancelled`) and queue
    /// waits (`bistd.wait_ms`) are counted.
    metrics: Arc<Registry>,
}

struct Inner {
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    /// Queued job ids with their submit times, oldest first.
    queue: VecDeque<(u64, Instant)>,
    capacity: usize,
    closed: bool,
    /// Terminal job ids, oldest finished first.
    finished: VecDeque<u64>,
    max_finished: usize,
}

impl Inner {
    /// Inserts `record` under the next id and returns that id.
    fn insert(&mut self, mut record: JobRecord) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        record.id = id;
        let terminal = record.state.is_terminal();
        self.jobs.insert(id, record);
        if terminal {
            self.retire(id);
        }
        id
    }

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
    /// An open, empty table whose queue holds at most `capacity` jobs,
    /// keeping at most [`MAX_FINISHED_JOBS`] terminal records.
    pub fn new(capacity: usize, metrics: Arc<Registry>) -> JobTable {
        JobTable::with_finished_cap(capacity, MAX_FINISHED_JOBS, metrics)
    }

    /// An open, empty table keeping at most `max_finished` terminal
    /// records.
    pub(crate) fn with_finished_cap(
        capacity: usize,
        max_finished: usize,
        metrics: Arc<Registry>,
    ) -> JobTable {
        JobTable {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                next_id: 1,
                queue: VecDeque::new(),
                capacity,
                closed: false,
                finished: VecDeque::new(),
                max_finished,
            }),
            changed: Condvar::new(),
            ready: Condvar::new(),
            metrics,
        }
    }

    /// Registers a job with its admission diagnostics and queues it,
    /// returning its id.
    ///
    /// # Errors
    ///
    /// [`Refused::Full`] at capacity, [`Refused::Closed`] after
    /// [`JobTable::close`]; either way no record is made.
    pub fn submit(
        &self,
        spec: CampaignSpec,
        key: String,
        cancel: CancelToken,
        lint: Arc<[obs::Diagnostic]>,
    ) -> Result<u64, Refused> {
        let mut inner = crate::lock(&self.inner);
        if inner.closed {
            return Err(Refused::Closed);
        }
        if inner.queue.len() >= inner.capacity {
            return Err(Refused::Full { queued: inner.queue.len() });
        }
        let id = inner.insert(JobRecord {
            id: 0,
            spec,
            key,
            state: JobState::Queued,
            detail: None,
            artifact: None,
            cached: false,
            cancel,
            lint,
        });
        inner.queue.push_back((id, Instant::now()));
        self.ready.notify_one();
        Ok(id)
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
        crate::lock(&self.inner).insert(JobRecord {
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

    /// Blocks until a job is queued, then starts the oldest: flips it
    /// to `Running`, records its queue wait in `bistd.wait_ms` and
    /// returns a snapshot of it for the worker. A job whose token
    /// already fired ends `Cancelled` instead, and the next one is
    /// taken.
    /// Returns `None` only once the table is closed *and* its queue
    /// drained; workers use that as their exit signal.
    pub fn next(&self) -> Option<JobRecord> {
        let mut inner = crate::lock(&self.inner);
        loop {
            let Some((id, submitted)) = inner.queue.pop_front() else {
                if inner.closed {
                    return None;
                }
                inner = self.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let Some(record) = inner.jobs.get_mut(&id) else {
                continue;
            };
            if record.cancel.is_cancelled() {
                let detail = if record.cancel.deadline_exceeded() {
                    "deadline exceeded before the job started"
                } else {
                    "cancelled before the job started"
                };
                self.end_queued(&mut inner, id, detail);
                continue;
            }
            record.state = JobState::Running;
            let started = record.clone();
            self.metrics.histogram("bistd.wait_ms").record(submitted.elapsed().as_secs_f64() * 1e3);
            return Some(started);
        }
    }

    /// Ends queued job `id` as `Cancelled` with `detail`, counting it
    /// before it turns terminal.
    fn end_queued(&self, inner: &mut Inner, id: u64, detail: &str) {
        self.metrics.counter("bistd.jobs_cancelled").inc();
        if let Some(record) = inner.jobs.get_mut(&id) {
            record.state = JobState::Cancelled;
            record.detail = Some(detail.into());
        }
        inner.retire(id);
        self.changed.notify_all();
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

    /// Fires a job's cancel token. A still-queued job leaves the queue
    /// and is marked cancelled immediately; a running one stops at its
    /// next stage boundary and the worker records the terminal state.
    /// Returns `false` for unknown ids.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = crate::lock(&self.inner);
        let Some(record) = inner.jobs.get(&id) else {
            return false;
        };
        record.cancel.cancel();
        if record.state == JobState::Queued {
            inner.queue.retain(|&(queued, _)| queued != id);
            self.end_queued(&mut inner, id, "cancelled while queued");
        }
        true
    }

    /// Closes the table: later submits are refused, queued jobs still
    /// drain, and blocked [`JobTable::next`] calls wake.
    pub fn close(&self) {
        crate::lock(&self.inner).closed = true;
        self.ready.notify_all();
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
    /// count)` pairs in lifecycle order (for gauges). The queued count
    /// is the queue's depth; terminal counts cover only the records
    /// still kept.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec::new("LP", "LFSR-D", 64)
    }

    fn table(capacity: usize) -> JobTable {
        JobTable::new(capacity, Arc::new(Registry::new()))
    }

    /// Submits a default job with `token`, which must be accepted.
    fn submit(table: &JobTable, token: CancelToken) -> u64 {
        table.submit(spec(), "k".into(), token, Arc::new([])).unwrap()
    }

    fn counter(table: &JobTable, name: &str) -> u64 {
        table.metrics.snapshot().counters.get(name).copied().unwrap_or(0)
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let table = table(4);
        let id = submit(&table, CancelToken::new());
        assert_eq!(id, 1);
        assert_eq!(table.get(id).unwrap().state, JobState::Queued);
        let started = table.next().unwrap();
        assert_eq!((started.id, started.state, &started.spec), (id, JobState::Running, &spec()));
        assert_eq!(table.get(id).unwrap().state, JobState::Running);
        table.close();
        assert!(table.next().is_none(), "a running job is never started twice");
        table.finish(id, JobState::Done, None, Some(JsonValue::object().into()));
        let record = table.get(id).unwrap();
        assert_eq!(record.state, JobState::Done);
        assert!(record.artifact.is_some());
        assert!(record.state.is_terminal());
        assert_eq!(table.metrics.snapshot().histograms["bistd.wait_ms"].count, 1);
    }

    #[test]
    fn lint_attached_at_submit_reaches_the_claiming_worker() {
        let table = table(4);
        let diag = obs::Diagnostic::new(
            "L102",
            obs::Severity::Warn,
            obs::Location::Node { label: "tap20.acc".into(), cell: Some(15) },
            "variance mismatch",
        );
        table.submit(spec(), "k".into(), CancelToken::new(), Arc::new([diag.clone()])).unwrap();
        assert_eq!(table.next().unwrap().lint.to_vec(), vec![diag]);
    }

    #[test]
    fn cancel_while_queued_is_immediate() {
        let table = table(1);
        let id = submit(&table, CancelToken::new());
        assert!(table.cancel(id));
        let record = table.get(id).unwrap();
        assert_eq!(record.state, JobState::Cancelled);
        assert!(record.detail.unwrap().contains("queued"));
        assert_eq!(counter(&table, "bistd.jobs_cancelled"), 1, "counted when cancelled");
        // The cancelled job's slot is free at once, and it never starts.
        let next = submit(&table, CancelToken::new());
        table.close();
        assert_eq!(table.next().unwrap().id, next);
        assert!(table.next().is_none());
        assert!(!table.cancel(999), "unknown ids report false");
        assert_eq!(counter(&table, "bistd.jobs_cancelled"), 1);
    }

    #[test]
    fn claim_observes_token_fired_between_submit_and_pop() {
        let table = table(4);
        let token = CancelToken::new();
        let id = submit(&table, token.clone());
        token.cancel();
        table.close();
        assert!(table.next().is_none(), "a job whose token fired never starts");
        let record = table.get(id).unwrap();
        assert_eq!(record.state, JobState::Cancelled);
        assert_eq!(record.detail.as_deref(), Some("cancelled before the job started"));
        assert_eq!(counter(&table, "bistd.jobs_cancelled"), 1);
        assert!(!table.metrics.snapshot().histograms.contains_key("bistd.wait_ms"));
    }

    #[test]
    fn fifo_order_and_capacity() {
        let table = table(2);
        let a = submit(&table, CancelToken::new());
        let b = submit(&table, CancelToken::new());
        let refused = table.submit(spec(), "k".into(), CancelToken::new(), Arc::new([]));
        assert_eq!(refused, Err(Refused::Full { queued: 2 }));
        assert_eq!(table.counts()[0], ("queued", 2));
        assert_eq!(table.next().unwrap().id, a);
        let c = submit(&table, CancelToken::new());
        assert_eq!(c, b + 1, "the refusal made no record");
        assert_eq!(table.next().unwrap().id, b);
        assert_eq!(table.next().unwrap().id, c);
        assert_eq!(table.counts()[0], ("queued", 0));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let table = table(4);
        let a = submit(&table, CancelToken::new());
        let b = submit(&table, CancelToken::new());
        table.close();
        let refused = table.submit(spec(), "k".into(), CancelToken::new(), Arc::new([]));
        assert_eq!(refused, Err(Refused::Closed));
        assert_eq!(table.next().unwrap().id, a);
        assert_eq!(table.next().unwrap().id, b);
        assert!(table.next().is_none());
        assert!(table.next().is_none(), "stays closed");
        assert!(table.get(b + 1).is_none(), "the refusal made no record");
    }

    #[test]
    fn blocked_workers_wake_on_submit_and_close() {
        let table = Arc::new(table(8));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(job) = table.next() {
                        table.finish(job.id, JobState::Done, None, None);
                        got.push(job.id);
                    }
                    got
                })
            })
            .collect();
        for _ in 0..30 {
            while table.submit(spec(), "k".into(), CancelToken::new(), Arc::new([])).is_err() {
                std::thread::yield_now();
            }
        }
        table.close();
        let mut ids: Vec<u64> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=30).collect::<Vec<_>>(), "every job started exactly once");
        assert_eq!(table.metrics.snapshot().histograms["bistd.wait_ms"].count, 30);
    }

    #[test]
    fn cache_hits_register_as_done_and_cached() {
        let table = table(4);
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
        let table = JobTable::with_finished_cap(4, 2, Arc::new(Registry::new()));
        let running = submit(&table, CancelToken::new());
        assert_eq!(table.next().unwrap().id, running);
        let queued = submit(&table, CancelToken::new());
        let artifact = || JsonValue::object();
        let first = table.create_done(spec(), "k".into(), artifact(), Arc::new([]));
        let second = submit(&table, CancelToken::new());
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
        let counts: HashMap<_, _> = table.counts().into_iter().collect();
        assert_eq!(counts["queued"], 1);
        assert_eq!(counts["done"] + counts["failed"] + counts["cancelled"], 2);
    }

    #[test]
    fn wait_terminal_blocks_until_finish() {
        let table = Arc::new(table(4));
        let id = submit(&table, CancelToken::new());
        // A zero-ish timeout returns the non-terminal snapshot.
        let early = table.wait_terminal(id, Duration::from_millis(1)).unwrap();
        assert_eq!(early.state, JobState::Queued);
        let finisher = {
            let table = Arc::clone(&table);
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

    /// Leaves `table`'s lock poisoned by a thread that panicked holding it.
    fn poison(table: &Arc<JobTable>) {
        let holder = Arc::clone(table);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.inner.lock().unwrap();
            panic!("a thread dies holding the job-table lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(table.inner.is_poisoned());
    }

    #[test]
    fn a_poisoned_job_table_still_answers() {
        let table = Arc::new(table(4));
        let id = submit(&table, CancelToken::new());
        poison(&table);
        assert_eq!(table.get(id).unwrap().state, JobState::Queued);
        assert_eq!(table.next().unwrap().id, id);
        table.finish(id, JobState::Done, None, Some(JsonValue::object().into()));
        assert_eq!(table.get(id).unwrap().state, JobState::Done);
        let waited = table.wait_terminal(id, Duration::from_millis(1)).unwrap();
        assert_eq!(waited.state, JobState::Done);
        let cancelled = submit(&table, CancelToken::new());
        assert!(table.cancel(cancelled));
        let counts: HashMap<_, _> = table.counts().into_iter().collect();
        assert_eq!((counts["done"], counts["cancelled"]), (1, 1));
    }

    #[test]
    fn a_poisoned_job_table_still_submits_starts_and_closes() {
        let table = Arc::new(table(4));
        poison(&table);
        let first = submit(&table, CancelToken::new());
        let second = submit(&table, CancelToken::new());
        let cancelled = submit(&table, CancelToken::new());
        assert!(table.cancel(cancelled));
        let counts: HashMap<_, _> = table.counts().into_iter().collect();
        assert_eq!(counts["queued"], 2, "a cancelled job leaves the queue at once");
        table.close();
        assert_eq!(table.next().unwrap().id, first);
        assert_eq!(table.next().unwrap().id, second);
        assert!(table.next().is_none());
        let counts: HashMap<_, _> = table.counts().into_iter().collect();
        assert_eq!((counts["running"], counts["cancelled"]), (2, 1));
    }

    #[test]
    fn counts_track_states() {
        let table = table(4);
        submit(&table, CancelToken::new());
        submit(&table, CancelToken::new());
        table.next().unwrap();
        let counts: HashMap<_, _> = table.counts().into_iter().collect();
        assert_eq!(counts["queued"], 1);
        assert_eq!(counts["running"], 1);
        assert_eq!(counts["done"], 0);
    }
}
