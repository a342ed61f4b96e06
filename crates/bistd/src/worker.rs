//! The worker pool: N threads draining the job table's queue through
//! `CampaignSpec::run_linted`, so admission-time diagnostics ride into
//! the run's artifact.
//!
//! Workers start jobs through [`JobTable::next`] (which atomically
//! loses races against cancellation), execute the campaign with the
//! job's [`faultsim::CancelToken`] attached — so `CancelJob` and deadlines take
//! effect at the fault simulator's next stage boundary — and publish
//! the outcome: artifact into the result cache and job table on
//! success, a classified terminal state otherwise (a campaign that
//! panics ends its job `failed`, and the worker lives on). Per-stage latencies
//! from each artifact feed the daemon's histograms, which keeps the
//! long-lived registry bounded (no per-run span accumulation).

use crate::cache::ResultCache;
use crate::jobs::{JobRecord, JobState, JobTable};
use bist_core::campaign::CampaignSpec;
use bist_core::session::BistRun;
use bist_core::SessionError;
use faultsim::CancelToken;
use obs::Registry;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Spawns `count` worker threads (at least one). Each exits when the
/// table is closed and its queue drained; callers join the returned
/// handles during shutdown.
pub fn spawn_workers(
    count: usize,
    jobs: &Arc<JobTable>,
    cache: &Arc<Mutex<ResultCache>>,
    metrics: &Arc<Registry>,
) -> Vec<JoinHandle<()>> {
    spawn_workers_with(count, jobs, cache, metrics, run_campaign)
}

/// How a worker runs one job's campaign.
pub(crate) type RunCampaign =
    fn(&CampaignSpec, CancelToken, Vec<obs::Diagnostic>) -> Result<BistRun, SessionError>;

/// The production [`RunCampaign`]: the spec's own linted run.
fn run_campaign(
    spec: &CampaignSpec,
    cancel: CancelToken,
    lint: Vec<obs::Diagnostic>,
) -> Result<BistRun, SessionError> {
    spec.run_linted(Some(cancel), lint)
}

/// [`spawn_workers`] with the campaign runner as a parameter, so a test
/// can hand the workers a runner that panics.
pub(crate) fn spawn_workers_with(
    count: usize,
    jobs: &Arc<JobTable>,
    cache: &Arc<Mutex<ResultCache>>,
    metrics: &Arc<Registry>,
    run: RunCampaign,
) -> Vec<JoinHandle<()>> {
    (0..count.max(1))
        .map(|i| {
            let jobs = Arc::clone(jobs);
            let cache = Arc::clone(cache);
            let metrics = Arc::clone(metrics);
            std::thread::Builder::new()
                .name(format!("bistd-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = jobs.next() {
                        run_one(job, &jobs, &cache, &metrics, run);
                    }
                })
                .expect("spawn worker thread")
        })
        .collect()
}

fn run_one(
    job: JobRecord,
    jobs: &JobTable,
    cache: &Mutex<ResultCache>,
    metrics: &Registry,
    run: RunCampaign,
) {
    let JobRecord { id, spec, cancel, lint, .. } = job;
    let started = Instant::now();
    // A panic in the campaign ends the job, not the worker: a job left
    // `running` forever would hang every client polling it. Nothing the
    // run borrows is used again after a panic but the spec, which it
    // only reads.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(&spec, cancel, lint.to_vec())));
    // Each outcome is counted before the job turns terminal, so a
    // client that has seen the job end also sees it in the metrics.
    match outcome {
        Ok(Ok(run)) => {
            let artifact = Arc::new(run.artifact.to_json());
            crate::lock(cache).insert(&spec.canonical(), Arc::clone(&artifact));
            metrics.counter("bistd.jobs_completed").inc();
            metrics.histogram("bistd.job_ms").record(started.elapsed().as_secs_f64() * 1000.0);
            for stage in &run.artifact.stages {
                metrics.histogram(&format!("bistd.stage.{}", stage.name)).record(stage.millis);
            }
            jobs.finish(id, JobState::Done, None, Some(artifact));
        }
        Ok(Err(SessionError::Cancelled { deadline_exceeded })) => {
            let detail =
                if deadline_exceeded { "deadline exceeded" } else { "cancelled by request" };
            metrics.counter("bistd.jobs_cancelled").inc();
            if deadline_exceeded {
                metrics.counter("bistd.deadlines_exceeded").inc();
            }
            jobs.finish(id, JobState::Cancelled, Some(detail.into()), None);
        }
        Ok(Err(err)) => {
            metrics.counter("bistd.jobs_failed").inc();
            jobs.finish(id, JobState::Failed, Some(err.to_string()), None);
        }
        Err(payload) => {
            let cause = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "no message".into());
            metrics.counter("bistd.jobs_failed").inc();
            let detail = format!("internal error: the campaign panicked ({cause})");
            jobs.finish(id, JobState::Failed, Some(detail), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Harness {
        jobs: Arc<JobTable>,
        cache: Arc<Mutex<ResultCache>>,
        metrics: Arc<Registry>,
        handles: Vec<JoinHandle<()>>,
    }

    fn harness(workers: usize) -> Harness {
        harness_with(workers, run_campaign)
    }

    fn harness_with(workers: usize, run: RunCampaign) -> Harness {
        let metrics = Arc::new(Registry::new());
        let jobs = Arc::new(JobTable::new(16, Arc::clone(&metrics)));
        let cache = Arc::new(Mutex::new(ResultCache::new(16)));
        let handles = spawn_workers_with(workers, &jobs, &cache, &metrics, run);
        Harness { jobs, cache, metrics, handles }
    }

    fn mini_spec(vectors: usize) -> CampaignSpec {
        CampaignSpec { threads: 1, ..CampaignSpec::new("LP-MINI", "LFSR-D", vectors) }
    }

    /// Submits `spec` straight to the table, skipping admission.
    fn submit(jobs: &JobTable, spec: CampaignSpec, token: CancelToken) -> u64 {
        let key = spec.canonical();
        jobs.submit(spec, key, token, Arc::new([])).unwrap()
    }

    #[test]
    fn workers_complete_jobs_and_populate_the_cache() {
        let Harness { jobs, cache, metrics, handles } = harness(2);
        let spec = mini_spec(32);
        let id = submit(&jobs, spec.clone(), CancelToken::new());
        let record = jobs.wait_terminal(id, std::time::Duration::from_secs(120)).unwrap();
        assert_eq!(record.state, JobState::Done, "{:?}", record.detail);
        assert!(record.artifact.is_some());
        assert_eq!(
            cache.lock().unwrap().get(&spec.canonical()).map(|a| a.to_json()),
            record.artifact.map(|a| a.to_json()),
            "cache holds the same artifact bytes"
        );
        jobs.close();
        for h in handles {
            h.join().unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["bistd.jobs_completed"], 1);
        assert_eq!(snap.histograms["bistd.wait_ms"].count, 1, "one queue wait per started job");
        assert!(snap.histograms.contains_key("bistd.stage.session.fault_sim"));
        assert_eq!(snap.spans.len(), 0, "daemon registry stays span-free");
    }

    #[test]
    fn failures_and_cancellations_are_classified() {
        let Harness { jobs, metrics, handles, .. } = harness(1);
        // A spec that skipped admission and fails in the run: MISR
        // width without a tabulated polynomial.
        let failed =
            submit(&jobs, CampaignSpec { misr_width: 63, ..mini_spec(16) }, CancelToken::new());
        // A job whose token fired before any worker starts it.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = submit(&jobs, mini_spec(16), token);

        let record = jobs.wait_terminal(failed, std::time::Duration::from_secs(120)).unwrap();
        assert_eq!(record.state, JobState::Failed);
        assert!(record.detail.unwrap().contains("misr_width"), "carries the cause");
        let record = jobs.wait_terminal(cancelled, std::time::Duration::from_secs(120)).unwrap();
        assert_eq!(record.state, JobState::Cancelled);

        jobs.close();
        for h in handles {
            h.join().unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["bistd.jobs_failed"], 1);
        assert_eq!(snap.counters["bistd.jobs_cancelled"], 1);
    }

    #[test]
    fn a_panicking_campaign_fails_its_job_and_the_worker_serves_the_next() {
        // A 13-vector campaign panics inside the run; every other one
        // runs as in production.
        fn panics_on_13(
            spec: &CampaignSpec,
            cancel: CancelToken,
            lint: Vec<obs::Diagnostic>,
        ) -> Result<BistRun, SessionError> {
            assert_ne!(spec.vectors, 13, "injected campaign panic");
            run_campaign(spec, cancel, lint)
        }
        let Harness { jobs, cache, metrics, handles } = harness_with(1, panics_on_13);
        let wait = std::time::Duration::from_secs(120);
        let panicked = submit(&jobs, mini_spec(13), CancelToken::new());
        let next = submit(&jobs, mini_spec(16), CancelToken::new());

        let record = jobs.wait_terminal(panicked, wait).unwrap();
        assert_eq!(record.state, JobState::Failed);
        let detail = record.detail.unwrap();
        assert!(detail.contains("internal error"), "{detail}");
        assert!(detail.contains("injected campaign panic"), "{detail}");
        assert!(record.artifact.is_none());
        assert!(cache.lock().unwrap().get(&mini_spec(13).canonical()).is_none(), "nothing cached");
        let record = jobs.wait_terminal(next, wait).unwrap();
        assert_eq!(record.state, JobState::Done, "the worker survived: {:?}", record.detail);

        jobs.close();
        for h in handles {
            h.join().expect("the worker thread did not die");
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["bistd.jobs_failed"], 1);
        assert_eq!(snap.counters["bistd.jobs_completed"], 1);
        assert_eq!(cache.lock().unwrap().len(), 1);
    }
}
