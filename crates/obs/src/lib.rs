//! Zero-dependency observability for the BIST pipeline.
//!
//! The fault-simulation campaigns this workspace runs (the paper's
//! Tables 4–6 and every scaling experiment since) live or die by their
//! quantitative outputs, so the pipeline needs first-class metrics
//! without weakening the fully-offline build gate. This crate provides
//! the whole layer with **no dependencies beyond `std`**:
//!
//! * [`Registry`] — named atomic [`Counter`]s, gauges and fixed-bucket
//!   [`Histogram`]s, shareable across worker threads behind an `Arc`;
//!   snapshots are plain data with sorted, deterministic JSON output.
//! * [`Span`] / [`span!`] — RAII wall-clock timers: one guard per
//!   pipeline phase, recorded into the registry's span log (and a
//!   same-named duration histogram) on drop.
//! * [`JsonValue`] — a hand-rolled JSON writer *and* parser (no serde)
//!   with insertion-ordered objects; the campaign daemon's wire
//!   protocol and cache spill files ride on it.
//! * [`RunArtifact`] — the structured end-of-run record (coverage,
//!   missed-fault census by difficult-test class, per-stage durations)
//!   that `bench`'s experiments binary aggregates into `BENCH_*.json`
//!   files.
//!
//! Instrumentation is strictly observational: the fault simulator's
//! results stay bit-identical with and without a registry attached.
//!
//! ```
//! use bist_obs::{span, Registry, RunArtifact};
//!
//! let registry = Registry::new();
//! let shards = registry.counter("faultsim.shards");
//! {
//!     let _stage = span!(registry, "faultsim.stage{}", 0);
//!     shards.add(16);
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["faultsim.shards"], 16);
//! assert_eq!(snapshot.spans[0].name, "faultsim.stage0");
//!
//! let mut artifact = RunArtifact::new("LP", "LFSR-D");
//! artifact.coverage = 0.97;
//! assert!(artifact.to_json().to_json().contains("\"coverage\":0.97"));
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod diag;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod span;

pub use artifact::{
    CollapseReport, ResidueVerdict, RunArtifact, SatReport, StageTiming, TopOffReport,
    ARTIFACT_SCHEMA,
};
pub use diag::{Diagnostic, Location, Severity};
pub use hist::{Histogram, HistogramSnapshot, DURATION_MS_BOUNDS};
pub use json::{JsonError, JsonValue};
pub use metrics::{Counter, Registry, Snapshot, SpanRecord};
pub use span::Span;
