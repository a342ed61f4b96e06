//! Campaign-level artifact collection for the experiments binary.
//!
//! Every [`crate::run_session`] call records its run's
//! [`RunArtifact`] here and reports its metrics into a shared campaign
//! [`Registry`]. When the binary was invoked with `--json <path>`, the
//! accumulated artifacts are written out as one `BENCH_*.json`
//! document at exit (schema documented in `EXPERIMENTS.md`).

use obs::{JsonValue, Registry, RunArtifact};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Schema version of the `BENCH_*.json` document (the per-run entries
/// carry their own [`obs::ARTIFACT_SCHEMA`]).
pub const BENCH_SCHEMA: u32 = 1;

static COLLECTED: Mutex<Vec<RunArtifact>> = Mutex::new(Vec::new());
static CAMPAIGN: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide campaign registry: run-level metrics from every
/// experiment accumulate here (counters add, spans append).
pub fn campaign() -> Arc<Registry> {
    Arc::clone(CAMPAIGN.get_or_init(|| Arc::new(Registry::new())))
}

/// Records one run's artifact into the campaign collection.
pub fn record(artifact: RunArtifact) {
    COLLECTED.lock().expect("artifact lock").push(artifact);
}

/// A copy of every artifact recorded so far, in execution order.
pub fn collected() -> Vec<RunArtifact> {
    COLLECTED.lock().expect("artifact lock").clone()
}

/// Builds the `BENCH_*.json` document for one experiment invocation:
///
/// ```json
/// {
///   "schema": 1,
///   "suite": "experiments",
///   "experiment": "table4",
///   "threads": 8,
///   "runs": [ ...one RunArtifact object per BIST run... ],
///   "metrics": { "counters": {...}, "histograms": {...}, "spans": [...] }
/// }
/// ```
pub fn bench_document(experiment: &str) -> JsonValue {
    let threads = faultsim::SimOptions::new()
        .with_threads(crate::run_config(0).threads())
        .effective_threads();
    let runs = JsonValue::Array(collected().iter().map(RunArtifact::to_json).collect());
    JsonValue::object()
        .push("schema", BENCH_SCHEMA)
        .push("suite", "experiments")
        .push("experiment", experiment)
        .push("threads", threads)
        .push("runs", runs)
        .push("metrics", campaign().snapshot().to_json())
}

/// Writes the bench document and returns the path actually written:
/// a directory path (or one ending in a separator) gets the canonical
/// `BENCH_<experiment>.json` name inside it, anything else is used
/// verbatim.
pub fn write_bench_json(experiment: &str, path: &Path) -> io::Result<PathBuf> {
    let target = if path.is_dir() {
        path.join(format!("BENCH_{experiment}.json"))
    } else {
        path.to_path_buf()
    };
    std::fs::write(&target, bench_document(experiment).to_json_pretty())?;
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_carries_recorded_runs_and_campaign_metrics() {
        // One test mutates the process-global state to keep ordering
        // deterministic under the parallel test runner.
        let mut artifact = RunArtifact::new("LP", "LFSR-D");
        artifact.vectors = 64;
        artifact.coverage = 0.5;
        record(artifact.clone());
        campaign().counter("faultsim.shards").add(7);

        assert!(collected().contains(&artifact));
        let doc = bench_document("unit_test").to_json();
        assert!(doc.contains("\"suite\":\"experiments\""), "{doc}");
        assert!(doc.contains("\"experiment\":\"unit_test\""), "{doc}");
        assert!(doc.contains("\"design\":\"LP\""), "{doc}");
        assert!(doc.contains("\"threads\":"), "{doc}");
        assert!(doc.contains("\"faultsim.shards\":"), "{doc}");

        // Directory targets resolve to the canonical artifact name.
        let dir = std::env::temp_dir();
        let written = write_bench_json("unit_test", &dir).unwrap();
        assert!(written.ends_with("BENCH_unit_test.json"), "{written:?}");
        let text = std::fs::read_to_string(&written).unwrap();
        assert!(text.starts_with("{\n  \"schema\": 1"), "{text}");
        let _ = std::fs::remove_file(&written);
    }
}
