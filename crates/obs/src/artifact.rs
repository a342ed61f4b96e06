//! Structured end-of-run artifacts.
//!
//! A [`RunArtifact`] is the machine-readable record of one BIST
//! experiment: what was tested, with what resources, and what came out
//! — coverage, the missed-fault census by difficult-test class, and
//! per-stage wall-clock durations. The `bench` experiments binary
//! aggregates these into `BENCH_*.json` files (see `EXPERIMENTS.md`
//! for the schema), which is where the repository's performance
//! trajectory accumulates.

use crate::diag::{self, Diagnostic};
use crate::json::JsonValue;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Version tag written into every artifact, bumped on any
/// backwards-incompatible schema change.
pub const ARTIFACT_SCHEMA: u32 = 1;

/// Wall-clock extent of one named pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (e.g. `session.fault_sim`).
    pub name: String,
    /// Total milliseconds spent in the stage.
    pub millis: f64,
}

/// One residual fault's top-off verdict, with enough site provenance
/// (node label, cell, full-adder line, polarity) to reason about the
/// fault without re-deriving the universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidueVerdict {
    /// Fault id within the run's universe.
    pub fault: u32,
    /// Label of the adder/subtractor node hosting the fault.
    pub node: String,
    /// Cell (bit) position within the adder, `0` = LSB.
    pub cell: u32,
    /// The faulty full-adder line (e.g. `carry-out`).
    pub line: String,
    /// Polarity: `true` for stuck-at-1, `false` for stuck-at-0.
    pub stuck_one: bool,
    /// `"detected"`, `"untestable"`, `"unresolved"` — or `"redundant"`
    /// when the SAT verdict pass proved an unresolved fault redundant.
    pub verdict: String,
}

/// The outcome of the deterministic top-off stage over one campaign's
/// undetected residue: the verdict partition, the compressed
/// seed/stored-pattern plan's storage accounting, and per-fault
/// verdicts with site provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TopOffReport {
    /// Faults the pre-simulation static screen proved untestable and
    /// removed from the simulated universe.
    pub screened_untestable: usize,
    /// Residual (undetected) faults handed to the top-off stage.
    pub residue: usize,
    /// Residual faults proven unactivatable by justification.
    pub untestable: usize,
    /// Residual faults the verified plan detects.
    pub detected: usize,
    /// Residual faults neither proven untestable nor detected.
    pub unresolved: usize,
    /// Unresolved faults the SAT verdict pass proved redundant
    /// (`0` and absent from the JSON unless the pass reclassified
    /// something, so pre-SAT artifacts stay byte-identical).
    pub redundant: usize,
    /// Stored LFSR seeds in the reseeding plan.
    pub seeds: usize,
    /// Tester storage spent on seeds, in bits.
    pub seed_bits: usize,
    /// Raw fallback patterns stored alongside the seeds.
    pub stored_patterns: usize,
    /// Tester storage spent on raw patterns, in bits.
    pub stored_bits: usize,
    /// Total top-off test length in clock cycles.
    pub total_vectors: usize,
    /// Vectors the LFSR free-runs per loaded seed.
    pub block_len: u32,
    /// Per-fault verdicts in ascending fault-id order.
    pub verdicts: Vec<ResidueVerdict>,
}

impl TopOffReport {
    /// Renders the report as a JSON object (fixed field order).
    pub fn to_json(&self) -> JsonValue {
        let verdicts = JsonValue::Array(
            self.verdicts
                .iter()
                .map(|v| {
                    JsonValue::object()
                        .push("fault", v.fault)
                        .push("node", v.node.as_str())
                        .push("cell", v.cell)
                        .push("line", v.line.as_str())
                        .push("stuck_one", v.stuck_one)
                        .push("verdict", v.verdict.as_str())
                })
                .collect(),
        );
        let head = JsonValue::object()
            .push("screened_untestable", self.screened_untestable)
            .push("residue", self.residue)
            .push("untestable", self.untestable)
            .push("detected", self.detected)
            .push("unresolved", self.unresolved);
        // Key omitted at zero so top-off artifacts from runs without
        // the SAT verdict pass keep their exact historical bytes.
        let head = if self.redundant == 0 { head } else { head.push("redundant", self.redundant) };
        head.push("seeds", self.seeds)
            .push("seed_bits", self.seed_bits)
            .push("stored_patterns", self.stored_patterns)
            .push("stored_bits", self.stored_bits)
            .push("total_vectors", self.total_vectors)
            .push("block_len", self.block_len)
            .push("verdicts", verdicts)
    }
}

/// The outcome of the SAT proof stage: redundancy-pruning counts over
/// the pre-simulation candidate set, witness replay cross-validation,
/// the equivalence-certificate verdict and aggregate solver effort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SatReport {
    /// Collapsed fault classes in the universe before pruning.
    pub universe_before: usize,
    /// Faults handed to the redundancy prover.
    pub candidates: usize,
    /// Candidates proven redundant (UNSAT miter at every frame) and
    /// removed from the simulated universe.
    pub redundant_proven: usize,
    /// Candidates the prover found a detecting witness for.
    pub detectable: usize,
    /// Candidates undecided within the conflict budget.
    pub unknown: usize,
    /// SAT witnesses that replayed through the fault simulator as
    /// detections (must equal `detectable`; a shortfall is an
    /// encoder/simulator disagreement).
    pub witnesses_confirmed: usize,
    /// Whether the design/model equivalence certificate was attempted.
    pub equiv_checked: bool,
    /// Whether every equivalence obligation was discharged (always
    /// `false` when unchecked).
    pub equiv_proved: bool,
    /// SAT lemmas discharged by the equivalence certificate.
    pub equiv_lemmas: usize,
    /// Total solver conflicts across all queries.
    pub conflicts: u64,
    /// Total solver decisions across all queries.
    pub decisions: u64,
    /// Total unit propagations across all queries.
    pub propagations: u64,
}

impl SatReport {
    /// Renders the report as a JSON object (fixed field order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .push("universe_before", self.universe_before)
            .push("candidates", self.candidates)
            .push("redundant_proven", self.redundant_proven)
            .push("detectable", self.detectable)
            .push("unknown", self.unknown)
            .push("witnesses_confirmed", self.witnesses_confirmed)
            .push("equiv_checked", self.equiv_checked)
            .push("equiv_proved", self.equiv_proved)
            .push("equiv_lemmas", self.equiv_lemmas)
            .push("conflicts", self.conflicts)
            .push("decisions", self.decisions)
            .push("propagations", self.propagations)
    }
}

/// The outcome of the structural-analysis stage: collapse census over
/// the screened fault universe, graph shape, and the SCOAP testability
/// aggregates. Produced by the `structure` crate and attached to the
/// artifact when the run was configured with structural collapsing.
#[derive(Debug, Clone, PartialEq)]
pub struct CollapseReport {
    /// Gates in the expanded gate graph.
    pub gates: usize,
    /// Deepest combinational level.
    pub max_level: u32,
    /// Fanout-free regions.
    pub ffr_count: usize,
    /// Depth of the post-dominator tree.
    pub dominator_depth: u32,
    /// Raw per-line stuck-at universe of the active cells (the
    /// classical collapse-ratio denominator).
    pub raw_lines: usize,
    /// Member faults of the analyzed (mask-screened) universe.
    pub screened_faults: usize,
    /// Fault classes before structural collapsing.
    pub sites_before: usize,
    /// Fault classes after structural collapsing (what was simulated).
    pub classes_after: usize,
    /// Classes surviving the dominance census.
    pub prime_classes: usize,
    /// Classes marked dominated (reported, still simulated).
    pub dominated_classes: usize,
    /// `1 - prime_classes / raw_lines`.
    pub reduction_vs_raw: f64,
    /// `1 - classes_after / sites_before` (the simulation speedup).
    pub reduction_vs_sites: f64,
    /// Worst finite SCOAP 0-controllability over cell outputs.
    pub scoap_max_cc0: u32,
    /// Worst finite SCOAP 1-controllability over cell outputs.
    pub scoap_max_cc1: u32,
    /// Worst finite SCOAP observability over cell outputs.
    pub scoap_max_co: u32,
    /// Cells whose output is structurally unobservable.
    pub scoap_unobservable_cells: usize,
    /// Histogram of cell observabilities: bucket `k` counts cells with
    /// `CO` in `[2^k, 2^(k+1))`.
    pub scoap_co_histogram: Vec<usize>,
}

impl CollapseReport {
    /// Renders the report as a JSON object (fixed field order).
    pub fn to_json(&self) -> JsonValue {
        let histogram =
            JsonValue::Array(self.scoap_co_histogram.iter().map(|&c| (c as u64).into()).collect());
        JsonValue::object()
            .push("gates", self.gates)
            .push("max_level", self.max_level)
            .push("ffr_count", self.ffr_count)
            .push("dominator_depth", self.dominator_depth)
            .push("raw_lines", self.raw_lines)
            .push("screened_faults", self.screened_faults)
            .push("sites_before", self.sites_before)
            .push("classes_after", self.classes_after)
            .push("prime_classes", self.prime_classes)
            .push("dominated_classes", self.dominated_classes)
            .push("reduction_vs_raw", self.reduction_vs_raw)
            .push("reduction_vs_sites", self.reduction_vs_sites)
            .push(
                "scoap",
                JsonValue::object()
                    .push("max_cc0", self.scoap_max_cc0)
                    .push("max_cc1", self.scoap_max_cc1)
                    .push("max_co", self.scoap_max_co)
                    .push("unobservable_cells", self.scoap_unobservable_cells)
                    .push("co_histogram", histogram),
            )
    }
}

/// The structured outcome of one BIST run.
///
/// All fields are public plain data: the session layer fills them in,
/// examples print [`RunArtifact::summary`], and the bench harness
/// serializes [`RunArtifact::to_json`] into `BENCH_*.json` files.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifact {
    /// Artifact schema version ([`ARTIFACT_SCHEMA`]).
    pub schema: u32,
    /// The design under test.
    pub design: String,
    /// The test-pattern generator's display name.
    pub generator: String,
    /// Test length in vectors.
    pub vectors: u32,
    /// Worker threads the fault simulator actually used.
    pub threads: usize,
    /// Collapsed fault classes in the universe.
    pub total_faults: usize,
    /// Faults detected by the test.
    pub detected: usize,
    /// Faults missed by the test.
    pub missed: usize,
    /// Final fault coverage in `[0, 1]`.
    pub coverage: f64,
    /// Missed faults detectable by each difficult test class
    /// (`T1`/`T2`/`T5`/`T6`, paper Table 2). A fault detectable by
    /// several classes counts toward each, so the census answers
    /// "which difficult tests would have caught the residue?".
    pub missed_by_class: Vec<(String, usize)>,
    /// Good-machine MISR signature.
    pub signature: u64,
    /// The response-check mode (`"trace"` direct compare or
    /// `"signature"` MISR compaction).
    pub mode: String,
    /// Compare-detected faults whose end-of-test signature collided
    /// with the fault-free one (always `0` in trace mode; expected `0`
    /// for a well-sized MISR in signature mode).
    pub aliased: usize,
    /// Peak response-storage footprint in words: the materialized
    /// fault-free trace (`vectors`) in trace mode, one signature per
    /// bit-sliced lane (`64`) in signature mode.
    pub response_store_words: u64,
    /// Per-stage wall-clock durations, in pipeline order.
    pub stages: Vec<StageTiming>,
    /// Engine counters (shards simulated, stage repacks, ...), sorted
    /// by name.
    pub counters: Vec<(String, u64)>,
    /// Static-analysis diagnostics attached at admission time (empty
    /// when the run was not linted).
    pub lint: Vec<Diagnostic>,
    /// Deterministic top-off outcome, present only when the run was
    /// configured with the ATPG top-off stage.
    pub topoff: Option<TopOffReport>,
    /// SAT proof-stage outcome, present only when the run was
    /// configured with the SAT pruning stage.
    pub sat: Option<SatReport>,
    /// Structural-analysis outcome, present only when the run was
    /// configured with structural fault collapsing.
    pub collapse: Option<CollapseReport>,
}

impl RunArtifact {
    /// An artifact with everything except identity zeroed; callers fill
    /// in the measured fields.
    pub fn new(design: impl Into<String>, generator: impl Into<String>) -> RunArtifact {
        RunArtifact {
            schema: ARTIFACT_SCHEMA,
            design: design.into(),
            generator: generator.into(),
            vectors: 0,
            threads: 0,
            total_faults: 0,
            detected: 0,
            missed: 0,
            coverage: 0.0,
            missed_by_class: Vec::new(),
            signature: 0,
            mode: "trace".to_string(),
            aliased: 0,
            response_store_words: 0,
            stages: Vec::new(),
            counters: Vec::new(),
            lint: Vec::new(),
            topoff: None,
            sat: None,
            collapse: None,
        }
    }

    /// Renders the artifact as a JSON object (field order fixed by the
    /// schema, so output is byte-deterministic).
    pub fn to_json(&self) -> JsonValue {
        let classes =
            self.missed_by_class.iter().fold(JsonValue::object(), |o, (k, v)| o.push(k, *v));
        let stages = JsonValue::Array(
            self.stages
                .iter()
                .map(|s| JsonValue::object().push("name", s.name.as_str()).push("ms", s.millis))
                .collect(),
        );
        let counters = self.counters.iter().fold(JsonValue::object(), |o, (k, v)| o.push(k, *v));
        let base = JsonValue::object()
            .push("schema", self.schema)
            .push("design", self.design.as_str())
            .push("generator", self.generator.as_str())
            .push("vectors", self.vectors)
            .push("threads", self.threads)
            .push("total_faults", self.total_faults)
            .push("detected", self.detected)
            .push("missed", self.missed)
            .push("coverage", self.coverage)
            .push("missed_by_class", classes)
            .push("signature", self.signature)
            .push("mode", self.mode.as_str())
            .push("aliased", self.aliased)
            .push("response_store_words", self.response_store_words)
            .push("stages", stages)
            .push("counters", counters)
            .push("lint", diag::diagnostics_to_json(&self.lint));
        // Optional-stage keys are omitted entirely when absent, so
        // artifacts from runs without them stay byte-identical to
        // schema 1.
        let base = match &self.topoff {
            None => base,
            Some(report) => base.push("topoff", report.to_json()),
        };
        let base = match &self.sat {
            None => base,
            Some(report) => base.push("sat", report.to_json()),
        };
        match &self.collapse {
            None => base,
            Some(report) => base.push("collapse", report.to_json()),
        }
    }

    /// Writes the artifact as a pretty-printed standalone JSON file.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json().to_json_pretty())
    }

    /// A compact human-readable block for examples and logs:
    ///
    /// ```text
    /// LFSR-D on demo-lp: coverage 97.34% (4203/4318, 115 missed) after 2048 vectors, 8 threads
    ///   missed by class: T1 60, T2 10, T5 25, T6 20
    ///   stages: session.patterns 1.2 ms, session.fault_sim 431.0 ms
    /// ```
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{} on {}: coverage {:.2}% ({}/{}, {} missed) after {} vectors, {} thread{}",
            self.generator,
            self.design,
            100.0 * self.coverage,
            self.detected,
            self.total_faults,
            self.missed,
            self.vectors,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        );
        if self.mode == "signature" {
            let _ = write!(out, ", signature mode ({} aliased)", self.aliased);
        }
        if !self.missed_by_class.is_empty() {
            let _ = write!(out, "\n  missed by class:");
            for (i, (class, n)) in self.missed_by_class.iter().enumerate() {
                let _ = write!(out, "{} {class} {n}", if i == 0 { "" } else { "," });
            }
        }
        if !self.stages.is_empty() {
            let _ = write!(out, "\n  stages:");
            for (i, stage) in self.stages.iter().enumerate() {
                let _ = write!(
                    out,
                    "{} {} {:.1} ms",
                    if i == 0 { "" } else { "," },
                    stage.name,
                    stage.millis
                );
            }
        }
        if !self.lint.is_empty() {
            let (errors, warns, infos) = diag::severity_counts(&self.lint);
            let _ = write!(out, "\n  lint: {errors} error(s), {warns} warning(s), {infos} info");
        }
        if let Some(t) = &self.topoff {
            let redundant = if t.redundant == 0 {
                String::new()
            } else {
                format!(", {} redundant", t.redundant)
            };
            let _ = write!(
                out,
                "\n  top-off: {} residual ({} detected, {} untestable, {} unresolved{}), \
                 {} seed(s) + {} stored = {} bits, {} screened pre-sim",
                t.residue,
                t.detected,
                t.untestable,
                t.unresolved,
                redundant,
                t.seeds,
                t.stored_patterns,
                t.seed_bits + t.stored_bits,
                t.screened_untestable,
            );
        }
        if let Some(s) = &self.sat {
            let _ = write!(
                out,
                "\n  sat: {}/{} candidates proven redundant (universe {} -> {}), \
                 {} witnesses confirmed, {} conflicts",
                s.redundant_proven,
                s.candidates,
                s.universe_before,
                s.universe_before - s.redundant_proven,
                s.witnesses_confirmed,
                s.conflicts,
            );
            if s.equiv_checked {
                let _ = write!(
                    out,
                    "; equivalence {} ({} lemmas)",
                    if s.equiv_proved { "proved" } else { "REFUTED" },
                    s.equiv_lemmas,
                );
            }
        }
        if let Some(c) = &self.collapse {
            let _ = write!(
                out,
                "\n  collapse: {} raw lines -> {} classes ({} prime, {:.1}% reduction), \
                 {} simulated ({:.1}% fewer machines)",
                c.raw_lines,
                c.classes_after,
                c.prime_classes,
                100.0 * c.reduction_vs_raw,
                c.classes_after,
                100.0 * c.reduction_vs_sites,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunArtifact {
        let mut a = RunArtifact::new("LP", "LFSR-D");
        a.vectors = 4096;
        a.threads = 4;
        a.total_faults = 1000;
        a.detected = 950;
        a.missed = 50;
        a.coverage = 0.95;
        a.missed_by_class =
            vec![("T1".into(), 30), ("T2".into(), 5), ("T5".into(), 10), ("T6".into(), 5)];
        a.signature = 0xBEEF;
        a.mode = "signature".into();
        a.aliased = 2;
        a.response_store_words = 64;
        a.stages = vec![
            StageTiming { name: "session.patterns".into(), millis: 1.25 },
            StageTiming { name: "session.fault_sim".into(), millis: 250.5 },
        ];
        a.counters = vec![("faultsim.shards".into(), 16)];
        a.lint = vec![Diagnostic::new(
            "L201",
            crate::diag::Severity::Error,
            crate::diag::Location::Design,
            "generator spectrally incompatible",
        )];
        a
    }

    #[test]
    fn json_contains_the_full_schema() {
        let json = sample().to_json().to_json();
        for needle in [
            "\"schema\":1",
            "\"design\":\"LP\"",
            "\"generator\":\"LFSR-D\"",
            "\"vectors\":4096",
            "\"threads\":4",
            "\"coverage\":0.95",
            "\"missed_by_class\":{\"T1\":30,\"T2\":5,\"T5\":10,\"T6\":5}",
            "\"signature\":48879",
            "\"mode\":\"signature\"",
            "\"aliased\":2",
            "\"response_store_words\":64",
            "\"stages\":[{\"name\":\"session.patterns\",\"ms\":1.25}",
            "\"counters\":{\"faultsim.shards\":16}",
            "\"lint\":[{\"code\":\"L201\",\"severity\":\"error\",",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn summary_is_one_readable_block() {
        let s = sample().summary();
        assert!(s.starts_with("LFSR-D on LP: coverage 95.00% (950/1000, 50 missed)"), "{s}");
        assert!(s.contains("after 4096 vectors, 4 threads"), "{s}");
        assert!(s.contains("signature mode (2 aliased)"), "{s}");
        assert!(s.contains("missed by class: T1 30, T2 5, T5 10, T6 5"), "{s}");
        assert!(s.contains("stages: session.patterns 1.2 ms, session.fault_sim 250.5 ms"), "{s}");
        assert!(s.contains("lint: 1 error(s), 0 warning(s), 0 info"), "{s}");
    }

    #[test]
    fn write_json_emits_parseable_pretty_file() {
        let path = std::env::temp_dir().join("bist_obs_artifact_test.json");
        sample().write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\n  \"schema\": 1"), "{text}");
        assert!(text.ends_with("}\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn new_artifact_is_identity_plus_zeros() {
        let a = RunArtifact::new("D", "G");
        assert_eq!(a.schema, ARTIFACT_SCHEMA);
        assert_eq!(a.coverage, 0.0);
        assert!(a.stages.is_empty());
        assert_eq!(a.mode, "trace");
        assert_eq!(a.aliased, 0);
        assert_eq!(a.topoff, None);
        let s = a.summary();
        assert!(s.contains("0 threads"), "{s}");
        assert!(!s.contains("signature mode"), "trace summaries stay unchanged: {s}");
    }

    fn sample_topoff() -> TopOffReport {
        TopOffReport {
            screened_untestable: 3,
            residue: 5,
            untestable: 1,
            detected: 4,
            unresolved: 0,
            redundant: 0,
            seeds: 2,
            seed_bits: 24,
            stored_patterns: 1,
            stored_bits: 36,
            total_vectors: 515,
            block_len: 256,
            verdicts: vec![
                ResidueVerdict {
                    fault: 7,
                    node: "tap3.acc".into(),
                    cell: 11,
                    line: "carry-out".into(),
                    stuck_one: true,
                    verdict: "detected".into(),
                },
                ResidueVerdict {
                    fault: 9,
                    node: "tap5.mul".into(),
                    cell: 0,
                    line: "sum".into(),
                    stuck_one: false,
                    verdict: "untestable".into(),
                },
            ],
        }
    }

    #[test]
    fn topoff_key_is_absent_without_the_stage_and_complete_with_it() {
        let without = sample().to_json().to_json();
        assert!(!without.contains("topoff"), "runs without the stage stay schema-1: {without}");
        let mut a = sample();
        a.topoff = Some(sample_topoff());
        let json = a.to_json().to_json();
        for needle in [
            "\"topoff\":{\"screened_untestable\":3",
            "\"residue\":5",
            "\"untestable\":1",
            "\"unresolved\":0",
            "\"seeds\":2",
            "\"seed_bits\":24",
            "\"stored_patterns\":1",
            "\"stored_bits\":36",
            "\"total_vectors\":515",
            "\"block_len\":256",
            "\"verdicts\":[{\"fault\":7,\"node\":\"tap3.acc\",\"cell\":11,\
             \"line\":\"carry-out\",\"stuck_one\":true,\"verdict\":\"detected\"}",
            "{\"fault\":9,\"node\":\"tap5.mul\",\"cell\":0,\
             \"line\":\"sum\",\"stuck_one\":false,\"verdict\":\"untestable\"}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn topoff_summary_line_reports_the_partition_and_storage() {
        let mut a = sample();
        a.topoff = Some(sample_topoff());
        let s = a.summary();
        assert!(
            s.contains(
                "top-off: 5 residual (4 detected, 1 untestable, 0 unresolved), \
                 2 seed(s) + 1 stored = 60 bits, 3 screened pre-sim"
            ),
            "{s}"
        );
    }

    fn sample_sat() -> SatReport {
        SatReport {
            universe_before: 1000,
            candidates: 12,
            redundant_proven: 9,
            detectable: 2,
            unknown: 1,
            witnesses_confirmed: 2,
            equiv_checked: true,
            equiv_proved: true,
            equiv_lemmas: 52,
            conflicts: 314,
            decisions: 2718,
            propagations: 16180,
        }
    }

    #[test]
    fn sat_key_is_absent_without_the_stage_and_complete_with_it() {
        let without = sample().to_json().to_json();
        assert!(!without.contains("\"sat\""), "runs without the stage stay schema-1: {without}");
        let mut a = sample();
        a.sat = Some(sample_sat());
        let json = a.to_json().to_json();
        for needle in [
            "\"sat\":{\"universe_before\":1000",
            "\"candidates\":12",
            "\"redundant_proven\":9",
            "\"detectable\":2",
            "\"unknown\":1",
            "\"witnesses_confirmed\":2",
            "\"equiv_checked\":true",
            "\"equiv_proved\":true",
            "\"equiv_lemmas\":52",
            "\"conflicts\":314",
            "\"decisions\":2718",
            "\"propagations\":16180",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn sat_summary_line_reports_pruning_and_the_certificate() {
        let mut a = sample();
        a.sat = Some(sample_sat());
        let s = a.summary();
        assert!(
            s.contains(
                "sat: 9/12 candidates proven redundant (universe 1000 -> 991), \
                 2 witnesses confirmed, 314 conflicts; equivalence proved (52 lemmas)"
            ),
            "{s}"
        );
        let mut refuted = sample_sat();
        refuted.equiv_proved = false;
        a.sat = Some(refuted);
        assert!(a.summary().contains("equivalence REFUTED"), "{}", a.summary());
    }

    fn sample_collapse() -> CollapseReport {
        CollapseReport {
            gates: 5000,
            max_level: 40,
            ffr_count: 900,
            dominator_depth: 45,
            raw_lines: 57478,
            screened_faults: 55686,
            sites_before: 43181,
            classes_after: 38400,
            prime_classes: 33737,
            dominated_classes: 4663,
            reduction_vs_raw: 0.413,
            reduction_vs_sites: 0.111,
            scoap_max_cc0: 9,
            scoap_max_cc1: 21,
            scoap_max_co: 33,
            scoap_unobservable_cells: 0,
            scoap_co_histogram: vec![1, 4, 16],
        }
    }

    #[test]
    fn collapse_key_is_absent_without_the_stage_and_complete_with_it() {
        let without = sample().to_json().to_json();
        assert!(!without.contains("collapse"), "runs without the stage stay schema-1: {without}");
        let mut a = sample();
        a.collapse = Some(sample_collapse());
        let json = a.to_json().to_json();
        for needle in [
            "\"collapse\":{\"gates\":5000",
            "\"raw_lines\":57478",
            "\"screened_faults\":55686",
            "\"sites_before\":43181",
            "\"classes_after\":38400",
            "\"prime_classes\":33737",
            "\"dominated_classes\":4663",
            "\"reduction_vs_raw\":0.413",
            "\"scoap\":{\"max_cc0\":9",
            "\"co_histogram\":[1,4,16]",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        let s = a.summary();
        assert!(
            s.contains("collapse: 57478 raw lines -> 38400 classes (33737 prime, 41.3% reduction)"),
            "{s}"
        );
    }

    #[test]
    fn redundant_partition_is_zero_silent_and_visible_when_populated() {
        let zero = sample_topoff().to_json().to_json();
        assert!(!zero.contains("redundant"), "zero stays byte-identical: {zero}");
        let mut t = sample_topoff();
        t.unresolved = 0;
        t.redundant = 1;
        t.verdicts[1].verdict = "redundant".into();
        let json = t.to_json().to_json();
        assert!(json.contains("\"unresolved\":0,\"redundant\":1,\"seeds\":2"), "{json}");
        assert!(json.contains("\"verdict\":\"redundant\""), "{json}");
        let mut a = sample();
        a.topoff = Some(t);
        let s = a.summary();
        assert!(s.contains("0 unresolved, 1 redundant)"), "{s}");
    }
}
