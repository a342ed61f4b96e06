//! The worker pool: N threads draining the job queue through
//! `CampaignSpec::run_linted`, so admission-time diagnostics ride into
//! the run's artifact.
//!
//! Workers claim jobs through [`JobTable::claim`] (which atomically
//! loses races against cancellation), execute the campaign with the
//! job's [`faultsim::CancelToken`] attached — so `CancelJob` and deadlines take
//! effect at the fault simulator's next stage boundary — and publish
//! the outcome: artifact into the result cache and job table on
//! success, a classified terminal state otherwise. Per-stage latencies
//! from each artifact feed the daemon's histograms, which keeps the
//! long-lived registry bounded (no per-run span accumulation).

use crate::cache::ResultCache;
use crate::jobs::{JobState, JobTable};
use crate::queue::JobQueue;
use bist_core::SessionError;
use obs::Registry;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Spawns `count` worker threads. Each exits when the queue is closed
/// and drained; callers join the returned handles during shutdown.
pub fn spawn_workers(
    count: usize,
    queue: &Arc<JobQueue<u64>>,
    jobs: &Arc<JobTable>,
    cache: &Arc<Mutex<ResultCache>>,
    metrics: &Arc<Registry>,
) -> Vec<JoinHandle<()>> {
    (0..count.max(1))
        .map(|i| {
            let queue = Arc::clone(queue);
            let jobs = Arc::clone(jobs);
            let cache = Arc::clone(cache);
            let metrics = Arc::clone(metrics);
            std::thread::Builder::new()
                .name(format!("bistd-worker-{i}"))
                .spawn(move || {
                    while let Some(id) = queue.pop() {
                        run_one(id, &jobs, &cache, &metrics);
                    }
                })
                .expect("spawn worker thread")
        })
        .collect()
}

fn run_one(id: u64, jobs: &JobTable, cache: &Mutex<ResultCache>, metrics: &Registry) {
    let Some((spec, token, lint)) = jobs.claim(id) else {
        // Cancelled between submit and claim; `claim` already recorded
        // the terminal state.
        metrics.counter("bistd.jobs_cancelled").inc();
        return;
    };
    let started = Instant::now();
    // Each outcome is counted before the job turns terminal, so a
    // client that has seen the job end also sees it in the metrics.
    match spec.run_linted(Some(token), lint) {
        Ok(run) => {
            let artifact = Arc::new(run.artifact.to_json());
            crate::lock(cache).insert(&spec.canonical(), Arc::clone(&artifact));
            metrics.counter("bistd.jobs_completed").inc();
            metrics.histogram("bistd.job_ms").record(started.elapsed().as_secs_f64() * 1000.0);
            for stage in &run.artifact.stages {
                metrics.histogram(&format!("bistd.stage.{}", stage.name)).record(stage.millis);
            }
            jobs.finish(id, JobState::Done, None, Some(artifact));
        }
        Err(SessionError::Cancelled { deadline_exceeded }) => {
            let detail =
                if deadline_exceeded { "deadline exceeded" } else { "cancelled by request" };
            metrics.counter("bistd.jobs_cancelled").inc();
            if deadline_exceeded {
                metrics.counter("bistd.deadlines_exceeded").inc();
            }
            jobs.finish(id, JobState::Cancelled, Some(detail.into()), None);
        }
        Err(err) => {
            metrics.counter("bistd.jobs_failed").inc();
            jobs.finish(id, JobState::Failed, Some(err.to_string()), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_core::campaign::CampaignSpec;
    use faultsim::CancelToken;

    struct Harness {
        queue: Arc<JobQueue<u64>>,
        jobs: Arc<JobTable>,
        cache: Arc<Mutex<ResultCache>>,
        metrics: Arc<Registry>,
        handles: Vec<JoinHandle<()>>,
    }

    fn harness(workers: usize) -> Harness {
        let queue = Arc::new(JobQueue::new(16));
        let jobs = Arc::new(JobTable::new());
        let cache = Arc::new(Mutex::new(ResultCache::new(16)));
        let metrics = Arc::new(Registry::new());
        let handles = spawn_workers(workers, &queue, &jobs, &cache, &metrics);
        Harness { queue, jobs, cache, metrics, handles }
    }

    fn mini_spec(vectors: usize) -> CampaignSpec {
        CampaignSpec { threads: 1, ..CampaignSpec::new("LP-MINI", "LFSR-D", vectors) }
    }

    #[test]
    fn workers_complete_jobs_and_populate_the_cache() {
        let Harness { queue, jobs, cache, metrics, handles } = harness(2);
        let spec = mini_spec(32);
        let id = jobs.create(spec.clone(), spec.canonical(), CancelToken::new(), JobState::Queued);
        queue.push(id).unwrap();
        let record = jobs.wait_terminal(id, std::time::Duration::from_secs(120)).unwrap();
        assert_eq!(record.state, JobState::Done, "{:?}", record.detail);
        assert!(record.artifact.is_some());
        assert_eq!(
            cache.lock().unwrap().get(&spec.canonical()).map(|a| a.to_json()),
            record.artifact.map(|a| a.to_json()),
            "cache holds the same artifact bytes"
        );
        queue.close();
        for h in handles {
            h.join().unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["bistd.jobs_completed"], 1);
        assert!(snap.histograms.contains_key("bistd.stage.session.fault_sim"));
        assert_eq!(snap.spans.len(), 0, "daemon registry stays span-free");
    }

    #[test]
    fn failures_and_cancellations_are_classified() {
        let Harness { queue, jobs, metrics, handles, .. } = harness(1);
        // A spec that skipped admission (pushed straight onto the
        // queue) and fails in the run: MISR width without a tabulated
        // polynomial.
        let bad = CampaignSpec { misr_width: 63, ..mini_spec(16) };
        let failed =
            jobs.create(bad.clone(), bad.canonical(), CancelToken::new(), JobState::Queued);
        queue.push(failed).unwrap();
        // A job whose token fires before any worker claims it.
        let token = CancelToken::new();
        let spec = mini_spec(16);
        let cancelled =
            jobs.create(spec.clone(), spec.canonical(), token.clone(), JobState::Queued);
        token.cancel();
        queue.push(cancelled).unwrap();

        let record = jobs.wait_terminal(failed, std::time::Duration::from_secs(120)).unwrap();
        assert_eq!(record.state, JobState::Failed);
        assert!(record.detail.unwrap().contains("misr_width"), "carries the cause");
        let record = jobs.wait_terminal(cancelled, std::time::Duration::from_secs(120)).unwrap();
        assert_eq!(record.state, JobState::Cancelled);

        queue.close();
        for h in handles {
            h.join().unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["bistd.jobs_failed"], 1);
        assert_eq!(snap.counters["bistd.jobs_cancelled"], 1);
    }
}
