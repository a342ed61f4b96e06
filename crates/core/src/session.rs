//! End-to-end BIST sessions: generator → filter → fault simulation →
//! (optionally) signature compaction.
//!
//! A [`BistSession`] owns the fault universe of one filter design and
//! runs complete test experiments against it — the machinery behind the
//! paper's Tables 4–6 and Figs. 10–13.

use crate::misr::Misr;
use atpg::TopOffConfig;
use faultsim::{
    CancelToken, FaultId, FaultSimResult, FaultUniverse, ParallelFaultSimulator, SignatureConfig,
    SimEngine, SimOptions, StageSchedule,
};
use filters::FilterDesign;
use obs::{
    CollapseReport, Diagnostic, Registry, ResidueVerdict, RunArtifact, SatReport, StageTiming,
    TopOffReport,
};
use rtl::range::RangeAnalysis;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use tpg::TestGenerator;

/// Unified error type at the session boundary: everything the lower
/// layers (generators, filter elaboration, DSP, netlists) can report,
/// plus session-level configuration mistakes. [`BistSession::new`] and
/// [`BistSession::run`] return this instead of panicking.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionError {
    /// A test-generator / MISR construction error.
    Tpg(tpg::TpgError),
    /// A filter design/elaboration error.
    Filter(filters::FilterError),
    /// A netlist error.
    Rtl(rtl::RtlError),
    /// A DSP substrate error.
    Dsp(dsp::DspError),
    /// The run configuration or design/generator pairing was invalid;
    /// the message says which constraint was violated.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// The run's [`CancelToken`] fired (explicit cancellation or a
    /// deadline) and the session stopped at a stage boundary.
    Cancelled {
        /// Whether the token read cancelled because its deadline
        /// passed, rather than an explicit cancel call.
        deadline_exceeded: bool,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Tpg(e) => write!(f, "test-pattern generation failed: {e}"),
            SessionError::Filter(e) => write!(f, "filter design failed: {e}"),
            SessionError::Rtl(e) => write!(f, "netlist error: {e}"),
            SessionError::Dsp(e) => write!(f, "dsp error: {e}"),
            SessionError::InvalidConfig { reason } => {
                write!(f, "invalid session configuration: {reason}")
            }
            SessionError::Cancelled { deadline_exceeded: true } => {
                write!(f, "session run cancelled: deadline exceeded")
            }
            SessionError::Cancelled { deadline_exceeded: false } => {
                write!(f, "session run cancelled")
            }
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Tpg(e) => Some(e),
            SessionError::Filter(e) => Some(e),
            SessionError::Rtl(e) => Some(e),
            SessionError::Dsp(e) => Some(e),
            SessionError::InvalidConfig { .. } => None,
            SessionError::Cancelled { .. } => None,
        }
    }
}

impl From<tpg::TpgError> for SessionError {
    fn from(e: tpg::TpgError) -> Self {
        SessionError::Tpg(e)
    }
}

impl From<filters::FilterError> for SessionError {
    fn from(e: filters::FilterError) -> Self {
        SessionError::Filter(e)
    }
}

impl From<rtl::RtlError> for SessionError {
    fn from(e: rtl::RtlError) -> Self {
        SessionError::Rtl(e)
    }
}

impl From<dsp::DspError> for SessionError {
    fn from(e: dsp::DspError) -> Self {
        SessionError::Dsp(e)
    }
}

/// How a run decides that a fault was observed.
///
/// The two checks share the same simulated machines and report the
/// same per-fault first-divergence cycles; they differ in what the
/// (modelled) tester stores and reads out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponseCheck {
    /// Direct output compare against the materialized fault-free
    /// response trace — the paper's "no aliasing in the response
    /// analyzer" oracle. Response storage is `O(vectors)` words.
    #[default]
    Trace,
    /// MISR signature compaction inside the fault simulator: every
    /// lane folds its output stream into a per-lane signature register
    /// and only end-of-test signatures are kept — `O(lanes)` words of
    /// response storage, the production BIST readout. Compare-detected
    /// faults whose signatures collide with the fault-free one are
    /// counted and reported as *aliased* (see
    /// [`faultsim::FaultSimResult::aliased`]), never silently passed.
    Signature,
}

impl ResponseCheck {
    /// Canonical lower-case name (`"trace"` / `"signature"`), used in
    /// campaign specs, cache keys and artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            ResponseCheck::Trace => "trace",
            ResponseCheck::Signature => "signature",
        }
    }

    /// Parses a canonical name back; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "trace" => Some(ResponseCheck::Trace),
            "signature" => Some(ResponseCheck::Signature),
            _ => None,
        }
    }
}

impl fmt::Display for ResponseCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of the SAT proof stage.
///
/// With the stage enabled, [`BistSession::run`] hands every fault the
/// ATPG static screen flags to the CDCL redundancy prover
/// ([`sat::prove_faults`]): a fault whose miter is UNSAT at every
/// reachable frame is *machine-checked redundant* and removed from the
/// simulated universe, a SAT witness is replayed through the fault
/// simulator as a detection, and anything undecided within the
/// conflict budget is left in the universe. When the top-off stage is
/// also enabled, faults it leaves unresolved get the same SAT verdict
/// pass and proven-redundant ones are reported under their own
/// `"redundant"` partition. With [`SatConfig::equiv`] set, the run
/// additionally proves the design's CSD netlist equivalent to its
/// behavioral fixed-point model ([`sat::check_equivalence`]) and
/// records the certificate verdict in [`obs::SatReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatConfig {
    /// Per-query conflict budget for the redundancy prover; queries
    /// exceeding it leave the fault `Unknown` (never pruned).
    pub max_conflicts: u64,
    /// Also prove the design/model equivalence certificate.
    pub equiv: bool,
}

impl Default for SatConfig {
    /// The prover's default budget (20 000 conflicts per query) with
    /// the equivalence certificate enabled.
    fn default() -> Self {
        SatConfig { max_conflicts: 20_000, equiv: true }
    }
}

/// Configuration of one BIST run: test length, MISR width, response
/// check ([`ResponseCheck`]), the fault simulator's stage schedule and
/// its worker-thread count.
///
/// Built builder-style from [`RunConfig::new`]; the defaults are a
/// 16-bit MISR, trace-mode response checking, the default
/// [`StageSchedule`], and one worker thread per available core:
///
/// ```
/// use bist_core::session::RunConfig;
///
/// let cfg = RunConfig::new(4096).with_misr_width(16).with_threads(4);
/// assert_eq!(cfg.vectors(), 4096);
/// assert_eq!(cfg.threads(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    vectors: usize,
    misr_width: u32,
    response_check: ResponseCheck,
    schedule: StageSchedule,
    threads: usize,
    metrics: Option<Arc<Registry>>,
    cancel: Option<CancelToken>,
    lint: Vec<Diagnostic>,
    top_off: Option<TopOffConfig>,
    sat: Option<SatConfig>,
    collapse: bool,
}

impl RunConfig {
    /// A configuration applying `vectors` test patterns, with default
    /// MISR width (16), trace-mode response checking, stage schedule
    /// and thread count (one per core).
    pub fn new(vectors: usize) -> Self {
        RunConfig {
            vectors,
            misr_width: 16,
            response_check: ResponseCheck::default(),
            schedule: StageSchedule::new(),
            threads: 0,
            metrics: None,
            cancel: None,
            lint: Vec::new(),
            top_off: None,
            sat: None,
            collapse: false,
        }
    }

    /// Overrides the test length.
    pub fn with_vectors(mut self, vectors: usize) -> Self {
        self.vectors = vectors;
        self
    }

    /// Overrides the signature-register width (must have a tabulated
    /// primitive polynomial; checked by [`BistSession::run`]).
    pub fn with_misr_width(mut self, width: u32) -> Self {
        self.misr_width = width;
        self
    }

    /// Selects the response check (trace compare vs. MISR signature
    /// compaction; see [`ResponseCheck`]).
    pub fn with_response_check(mut self, check: ResponseCheck) -> Self {
        self.response_check = check;
        self
    }

    /// Overrides the fault simulator's stage schedule.
    pub fn with_schedule(mut self, schedule: StageSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the fault simulator's worker-thread count (`0` = one
    /// per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a campaign-level metric registry: every run's per-stage
    /// spans, engine counters and latency histograms are folded into it
    /// (counters accumulate across runs, spans append). Each run's own
    /// [`RunArtifact`] is built regardless, so this is only needed for
    /// cross-run aggregation.
    pub fn with_metrics(mut self, metrics: Arc<Registry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Test length in vectors.
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// Signature-register width in bits.
    pub fn misr_width(&self) -> u32 {
        self.misr_width
    }

    /// The configured response check.
    pub fn response_check(&self) -> ResponseCheck {
        self.response_check
    }

    /// The fault simulator's stage schedule.
    pub fn schedule(&self) -> &StageSchedule {
        &self.schedule
    }

    /// Worker-thread count (`0` = one per core).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached campaign metric registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref()
    }

    /// Attaches a cancellation token. [`BistSession::run`] checks it
    /// between pipeline phases, and the fault simulator checks it at
    /// every stage boundary; a fired token surfaces as
    /// [`SessionError::Cancelled`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Attaches static-analysis diagnostics produced at admission time
    /// (e.g. by the `lint` crate). [`BistSession::run`] copies them
    /// verbatim into the run's [`RunArtifact::lint`], so downstream
    /// consumers of the artifact see the predictions alongside the
    /// measured coverage. Diagnostics never change what is simulated.
    pub fn with_lint(mut self, lint: Vec<Diagnostic>) -> Self {
        self.lint = lint;
        self
    }

    /// The attached admission-time diagnostics (empty when unlinted).
    pub fn lint(&self) -> &[Diagnostic] {
        &self.lint
    }

    /// Enables the deterministic top-off stage: before simulation the
    /// ATPG static screen removes provably-untestable faults from the
    /// universe, and after it every still-undetected fault is either
    /// justified deterministically (and compressed into an LFSR
    /// reseeding plan) or proven unactivatable. The outcome lands in
    /// [`obs::RunArtifact::topoff`]; the run's coverage is then
    /// measured over the *testable* universe.
    pub fn with_top_off(mut self, cfg: TopOffConfig) -> Self {
        self.top_off = Some(cfg);
        self
    }

    /// The top-off configuration, if the stage is enabled.
    pub fn top_off(&self) -> Option<&TopOffConfig> {
        self.top_off.as_ref()
    }

    /// Enables the SAT proof stage (see [`SatConfig`]): before
    /// simulation, statically-screened faults are handed to the CDCL
    /// redundancy prover and the machine-checked-redundant ones are
    /// removed from the universe; unresolved top-off faults get a SAT
    /// verdict pass; the outcome lands in [`obs::RunArtifact::sat`].
    pub fn with_sat_prune(mut self, cfg: SatConfig) -> Self {
        self.sat = Some(cfg);
        self
    }

    /// The SAT proof-stage configuration, if the stage is enabled.
    pub fn sat_prune(&self) -> Option<&SatConfig> {
        self.sat.as_ref()
    }

    /// Enables structural fault collapsing: the run analyzes the
    /// screened universe with the `structure` crate, simulates only
    /// equivalence-class representatives, and expands their verdicts
    /// back over every class. Detection cycles and MISR signatures are
    /// intrinsic per fault, so the expanded full-universe result is
    /// byte-identical to an uncollapsed run; the collapse census and
    /// SCOAP summary land in [`obs::RunArtifact::collapse`].
    pub fn with_collapse(mut self, collapse: bool) -> Self {
        self.collapse = collapse;
        self
    }

    /// Whether structural fault collapsing is enabled.
    pub fn collapse(&self) -> bool {
        self.collapse
    }

    /// The fault-simulation engine a session runs: always
    /// [`SimEngine::Kernel`]. The graph-walker reference is reachable
    /// only through [`faultsim::SimOptions`], for differential tests.
    /// Kept as an accessor because `perfbench/src/replay.rs` reads it.
    pub fn engine(&self) -> SimEngine {
        SimEngine::Kernel
    }
}

impl Default for RunConfig {
    /// The paper's Section 8 test length: 4096 vectors.
    fn default() -> Self {
        RunConfig::new(4096)
    }
}

/// Rejects a test longer than the fault simulator's `u32` cycle
/// counter, before any pattern is generated.
pub(crate) fn check_vector_count(vectors: usize) -> Result<(), SessionError> {
    if u32::try_from(vectors).is_err() {
        return Err(SessionError::InvalidConfig {
            reason: format!("vectors = {vectors} exceeds the u32 cycle counter ({})", u32::MAX),
        });
    }
    Ok(())
}

/// A reusable fault-simulation context for one filter design.
pub struct BistSession<'d> {
    design: &'d FilterDesign,
    ranges: RangeAnalysis,
    universe: FaultUniverse,
}

impl<'d> BistSession<'d> {
    /// Builds the session: runs the scaling (range) analysis, the exact
    /// input-cone reachability analysis, and enumerates the collapsed,
    /// redundancy-pruned fault universe (the paper's testable-design
    /// preparation: scaling plus redundant-operator elimination).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::InvalidConfig`] if the design's netlist
    /// is not a single-input, single-output datapath (the only shape a
    /// BIST session can drive).
    pub fn new(design: &'d FilterDesign) -> Result<Self, SessionError> {
        let netlist = design.netlist();
        if netlist.input_ids().len() != 1 || netlist.output_ids().is_empty() {
            return Err(SessionError::InvalidConfig {
                reason: format!(
                    "BIST sessions require a single-input netlist with outputs; \
                     design '{}' has {} inputs and {} outputs",
                    design.name(),
                    netlist.input_ids().len(),
                    netlist.output_ids().len()
                ),
            });
        }
        let ranges = design.claimed_ranges().clone();
        let reach = rtl::reachability::Reachability::analyze(netlist, design.spec().input_bits);
        let universe = FaultUniverse::enumerate_pruned(netlist, &ranges, &reach);
        Ok(BistSession { design, ranges, universe })
    }

    /// The design under test.
    pub fn design(&self) -> &FilterDesign {
        self.design
    }

    /// The scaling analysis.
    pub fn ranges(&self) -> &RangeAnalysis {
        &self.ranges
    }

    /// The collapsed fault universe.
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// Runs [`RunConfig::vectors`] test patterns from `generator`
    /// against every fault, sharding the fault universe across
    /// [`RunConfig::threads`] worker threads. The generator is reset
    /// first, so runs are reproducible — and results are bit-identical
    /// at every thread count, with or without metrics attached.
    ///
    /// Each pipeline phase (pattern generation, fault simulation,
    /// signature compaction) runs under an [`obs`] span; the timings,
    /// engine counters and the missed-fault census land in the
    /// returned run's [`BistRun::artifact`]. A registry attached via
    /// [`RunConfig::with_metrics`] additionally receives every metric
    /// for cross-run aggregation.
    ///
    /// Under [`ResponseCheck::Signature`] the compaction happens
    /// *inside* the fault simulator (per-lane MISRs, no separate
    /// `session.signature` phase, no materialized response trace), the
    /// good-machine signature is bit-identical to the trace-mode one,
    /// and any compare-detected fault whose signature aliases the
    /// fault-free value is counted in the artifact's `aliased` field.
    ///
    /// # Errors
    ///
    /// * [`SessionError::InvalidConfig`] if the generator's word width
    ///   does not match the design's input width, or the test is longer
    ///   than `u32::MAX` vectors.
    /// * [`SessionError::Tpg`] if no primitive polynomial is tabulated
    ///   for [`RunConfig::misr_width`].
    pub fn run(
        &self,
        generator: &mut dyn TestGenerator,
        config: &RunConfig,
    ) -> Result<BistRun, SessionError> {
        let input_bits = self.design.spec().input_bits;
        if generator.width() != input_bits {
            return Err(SessionError::InvalidConfig {
                reason: format!(
                    "generator '{}' produces {}-bit words but design '{}' expects {}-bit inputs",
                    generator.name(),
                    generator.width(),
                    self.design.name(),
                    input_bits
                ),
            });
        }
        check_vector_count(config.vectors())?;
        let mut misr = Misr::new(config.misr_width())?;
        let cancelled = |token: &CancelToken| SessionError::Cancelled {
            deadline_exceeded: token.deadline_exceeded(),
        };
        if let Some(token) = config.cancel() {
            if token.is_cancelled() {
                return Err(cancelled(token));
            }
        }

        // A fresh per-run registry keeps the artifact's spans and
        // counters scoped to exactly this run; the caller's campaign
        // registry (if any) absorbs the snapshot at the end.
        let registry = Arc::new(Registry::new());

        // Both optional proof stages start from the ATPG static
        // screen: the top-off stage removes everything it flags, the
        // SAT stage treats its output as the redundancy-prover
        // candidate set. Computed once, under the screen's span.
        let screen: Vec<FaultId> = if config.top_off().is_some() || config.sat_prune().is_some() {
            let _span = registry.span("session.atpg_screen");
            atpg::untestable_faults(self.design.netlist(), &self.universe, input_bits)
        } else {
            Vec::new()
        };

        // SAT proof stage: prove the screened candidates redundant
        // (UNSAT miter at every frame) or detectable (witness replayed
        // through the fault simulator); optionally discharge the
        // design/model equivalence certificate.
        let mut sat_report: Option<SatReport> = None;
        let mut sat_redundant: Vec<FaultId> = Vec::new();
        if let Some(scfg) = config.sat_prune() {
            let _span = registry.span("session.sat_prune");
            let specs: Vec<sat::FaultSpec> = screen.iter().map(|&id| self.fault_spec(id)).collect();
            let outcome = sat::prove_faults(
                self.design.netlist(),
                input_bits,
                &specs,
                &sat::PruneConfig { max_conflicts: scfg.max_conflicts },
            );
            sat_redundant = screen
                .iter()
                .zip(&outcome.verdicts)
                .filter(|(_, (_, v))| matches!(v, sat::FaultVerdict::Redundant))
                .map(|(&id, _)| id)
                .collect();
            let mut report = SatReport {
                universe_before: self.universe.len(),
                candidates: specs.len(),
                redundant_proven: outcome.redundant,
                detectable: outcome.detectable,
                unknown: outcome.unknown,
                witnesses_confirmed: outcome.witnesses_confirmed,
                equiv_checked: scfg.equiv,
                equiv_proved: false,
                equiv_lemmas: 0,
                conflicts: outcome.stats.conflicts,
                decisions: outcome.stats.decisions,
                propagations: outcome.stats.propagations,
            };
            if scfg.equiv {
                let eq = sat::check_equivalence(self.design);
                report.equiv_proved = eq.proved;
                report.equiv_lemmas = eq.lemmas_proved;
                report.conflicts += eq.stats.conflicts;
                report.decisions += eq.stats.decisions;
                report.propagations += eq.stats.propagations;
            }
            sat_report = Some(report);
        }

        // Shrink the simulated universe: with the top-off stage on,
        // everything the screen flags goes (its historical semantics);
        // with only the SAT stage on, strictly the machine-checked
        // redundant subset goes. Without either knob the session's own
        // universe is used untouched and results stay bit-identical to
        // prior schemas.
        let removed: &[FaultId] = if config.top_off().is_some() { &screen } else { &sat_redundant };
        let screened_untestable = if config.top_off().is_some() { screen.len() } else { 0 };
        let screened_owned;
        let universe: &FaultUniverse = if removed.is_empty() {
            &self.universe
        } else {
            let keep: Vec<FaultId> = (0..self.universe.len() as u32)
                .map(FaultId)
                .filter(|id| !removed.contains(id))
                .collect();
            screened_owned = self.universe.subset(&keep);
            &screened_owned
        };

        // Structural collapse stage: analyze the screened universe,
        // then simulate only equivalence-class representatives. The
        // class map expands representative verdicts back over every
        // class afterwards — detection cycles and signatures are
        // intrinsic per fault, so the expanded result is byte-identical
        // to an uncollapsed run. Top-off and SAT verdict passes below
        // consume the representative residue directly.
        let mut collapse_report: Option<CollapseReport> = None;
        let mut class_map: Option<Vec<u32>> = None;
        let collapsed_owned;
        let sim_universe: &FaultUniverse = if config.collapse() {
            let _span = registry.span("session.structure");
            let analysis = structure::analyze(self.design.netlist(), universe);
            collapsed_owned = universe.subset(&analysis.collapsed.representatives);
            class_map = Some(analysis.collapsed.class_map.clone());
            collapse_report = Some(Self::collapse_report(&analysis.report));
            &collapsed_owned
        } else {
            universe
        };

        let inputs: Vec<i64> = {
            let _span = registry.span("session.patterns");
            generator.reset();
            (0..config.vectors()).map(|_| self.design.align_input(generator.next_word())).collect()
        };

        let mut options = SimOptions::new()
            .with_schedule(config.schedule().clone())
            .with_threads(config.threads())
            .with_metrics(Arc::clone(&registry));
        if let Some(token) = config.cancel() {
            options = options.with_cancel(token.clone());
        }
        if config.response_check() == ResponseCheck::Signature {
            options = options
                .with_signature(SignatureConfig { width: misr.width(), poly: misr.poly_low() });
        }
        let threads_used = options.effective_threads();
        let result = {
            let _span = registry.span("session.fault_sim");
            ParallelFaultSimulator::new(self.design.netlist(), sim_universe)
                .with_options(options)
                .try_run(&inputs)
                .map_err(|_| {
                    cancelled(config.cancel().expect("only an attached token cancels a run"))
                })?
        };

        // Signature of the good response (the production BIST readout).
        // In signature mode the fault simulator's good lane already
        // folded the response on the fly (O(lanes) storage); in trace
        // mode the fault-free response is re-simulated and materialized
        // (O(vectors) storage) before compaction.
        let signature = match result.good_signature() {
            Some(sig) => sig,
            None => {
                let _span = registry.span("session.signature");
                let good = faultsim::inject::probe_node(
                    self.design.netlist(),
                    self.design.output(),
                    &inputs,
                );
                misr.absorb_all(&good);
                misr.signature()
            }
        };
        // Deterministic top-off: justify every undetected fault, plan
        // the seed compression, and verify the plan by re-simulation.
        // With collapsing on this stage sees the representative residue
        // — each justified representative certifies its whole class.
        let mut topoff_report = None;
        if let Some(tcfg) = config.top_off() {
            let top = {
                let _span = registry.span("session.top_off");
                atpg::top_off(
                    self.design.netlist(),
                    sim_universe,
                    &result.missed(),
                    input_bits,
                    tcfg,
                )
            };
            // SAT verdict pass: faults the justifier left unresolved
            // are retried by the redundancy prover; proven-redundant
            // ones move to their own partition, so "unresolved" keeps
            // meaning "nobody knows".
            let mut redundant_ids: Vec<FaultId> = Vec::new();
            if let Some(scfg) = config.sat_prune() {
                if !top.unresolved.is_empty() {
                    let _span = registry.span("session.sat_verdict");
                    let specs: Vec<sat::FaultSpec> =
                        top.unresolved.iter().map(|&id| Self::spec_for(sim_universe, id)).collect();
                    let outcome = sat::prove_faults(
                        self.design.netlist(),
                        input_bits,
                        &specs,
                        &sat::PruneConfig { max_conflicts: scfg.max_conflicts },
                    );
                    redundant_ids = top
                        .unresolved
                        .iter()
                        .zip(&outcome.verdicts)
                        .filter(|(_, (_, v))| matches!(v, sat::FaultVerdict::Redundant))
                        .map(|(&id, _)| id)
                        .collect();
                    let report = sat_report.as_mut().expect("sat stage ran before top-off");
                    report.candidates += specs.len();
                    report.redundant_proven += outcome.redundant;
                    report.detectable += outcome.detectable;
                    report.unknown += outcome.unknown;
                    report.witnesses_confirmed += outcome.witnesses_confirmed;
                    report.conflicts += outcome.stats.conflicts;
                    report.decisions += outcome.stats.decisions;
                    report.propagations += outcome.stats.propagations;
                }
            }
            let residue = faultsim::report::residue(self.design.netlist(), sim_universe, &result);
            let verdicts = residue
                .iter()
                .map(|rf| ResidueVerdict {
                    fault: rf.id.0,
                    node: rf.label.clone(),
                    cell: rf.cell,
                    line: format!("{:?}", rf.line),
                    stuck_one: rf.stuck_one,
                    verdict: if top.untestable.contains(&rf.id) {
                        "untestable"
                    } else if top.detected.contains(&rf.id) {
                        "detected"
                    } else if redundant_ids.contains(&rf.id) {
                        "redundant"
                    } else {
                        "unresolved"
                    }
                    .to_string(),
                })
                .collect();
            topoff_report = Some(TopOffReport {
                screened_untestable,
                residue: residue.len(),
                untestable: top.untestable.len(),
                detected: top.detected.len(),
                unresolved: top.unresolved.len() - redundant_ids.len(),
                redundant: redundant_ids.len(),
                seeds: top.plan.seeds.len(),
                seed_bits: top.plan.seed_bits(),
                stored_patterns: top.plan.stored.len(),
                stored_bits: top.plan.stored_bits(),
                total_vectors: top.plan.total_vectors(),
                block_len: top.plan.block_len,
                verdicts,
            });
        }

        // Expand representative verdicts over every class member. Each
        // fault's detection cycle and signature are intrinsic — the
        // representative of its equivalence class produced the same
        // faulty trace — so the expanded result matches an uncollapsed
        // run bit for bit.
        let result = match &class_map {
            Some(map) => result.expand_classes(map),
            None => result,
        };
        let aliased = result.aliased().len();

        let snapshot = registry.snapshot();
        if let Some(campaign) = config.metrics() {
            campaign.absorb(&snapshot);
        }

        let mut artifact = RunArtifact::new(self.design.name(), generator.name());
        artifact.vectors = result.total_cycles();
        artifact.threads = threads_used;
        artifact.total_faults = universe.len();
        artifact.detected = result.detected_count();
        artifact.missed = universe.len() - result.detected_count();
        artifact.coverage = result.coverage_after(result.total_cycles());
        artifact.missed_by_class = Self::missed_census(universe, &result);
        artifact.signature = signature;
        artifact.mode = config.response_check().as_str().to_string();
        artifact.aliased = aliased;
        artifact.response_store_words = match config.response_check() {
            // The materialized fault-free response trace.
            ResponseCheck::Trace => result.total_cycles() as u64,
            // One signature word per bit-sliced lane.
            ResponseCheck::Signature => 64,
        };
        artifact.stages = snapshot
            .spans
            .iter()
            .map(|s| StageTiming { name: s.name.clone(), millis: s.millis() })
            .collect();
        artifact.counters = snapshot.counters.into_iter().collect();
        artifact.lint = config.lint().to_vec();
        artifact.topoff = topoff_report;
        artifact.sat = sat_report;
        artifact.collapse = collapse_report;

        Ok(BistRun { generator: generator.name().to_string(), result, signature, artifact })
    }

    /// The SAT-encoder fault handle for one collapsed class of the
    /// session's own universe.
    fn fault_spec(&self, id: FaultId) -> sat::FaultSpec {
        Self::spec_for(&self.universe, id)
    }

    /// The SAT-encoder fault handle for one collapsed class of any
    /// universe over this design's netlist (class representatives are
    /// what the prover reasons about).
    fn spec_for(universe: &FaultUniverse, id: FaultId) -> sat::FaultSpec {
        let site = universe.site(id);
        sat::FaultSpec { node: site.node, cell: site.cell, fault: site.representative }
    }

    /// Flatten the structural-analysis census into the artifact's
    /// wire-format record.
    fn collapse_report(report: &structure::StructureReport) -> CollapseReport {
        CollapseReport {
            gates: report.gates,
            max_level: report.max_level,
            ffr_count: report.ffr_count,
            dominator_depth: report.dominator_depth,
            raw_lines: report.raw_lines,
            screened_faults: report.screened_faults,
            sites_before: report.sites_before,
            classes_after: report.classes_after,
            prime_classes: report.prime_classes,
            dominated_classes: report.merges.dominated_classes,
            reduction_vs_raw: report.reduction_vs_raw(),
            reduction_vs_sites: report.reduction_vs_sites(),
            scoap_max_cc0: report.scoap.max_cc0,
            scoap_max_cc1: report.scoap.max_cc1,
            scoap_max_co: report.scoap.max_co,
            scoap_unobservable_cells: report.scoap.unobservable_cells,
            scoap_co_histogram: report.scoap.co_histogram.clone(),
        }
    }

    /// Census of the missed faults by difficult-test class (paper
    /// Table 2): for each of T1/T2/T5/T6, how many missed fault classes
    /// are detectable by that cell-level test. A fault detectable by
    /// several difficult tests counts toward each.
    fn missed_census(universe: &FaultUniverse, result: &FaultSimResult) -> Vec<(String, usize)> {
        let mut counts = [0usize; 4];
        for fid in result.missed() {
            let tests = universe.site(fid).detecting_tests;
            for (slot, t) in crate::zones::DifficultTest::all().into_iter().enumerate() {
                if tests & (1u8 << t.number()) != 0 {
                    counts[slot] += 1;
                }
            }
        }
        crate::zones::DifficultTest::all()
            .into_iter()
            .zip(counts)
            .map(|(t, n)| (format!("T{}", t.number()), n))
            .collect()
    }
}

/// Outcome of one BIST experiment.
#[derive(Debug, Clone)]
pub struct BistRun {
    /// The generator's display name.
    pub generator: String,
    /// Per-fault detection results.
    pub result: FaultSimResult,
    /// Good-machine MISR signature of the full response.
    pub signature: u64,
    /// The structured end-of-run record: coverage, missed-fault census
    /// by difficult-test class, per-stage durations, engine counters.
    pub artifact: RunArtifact,
}

impl BistRun {
    /// Faults still missed at the end of the test — the paper's
    /// Table 4 cells.
    pub fn missed(&self) -> usize {
        self.result.missed().len()
    }

    /// Missed faults normalized by the design's adder/subtractor count
    /// — the paper's Table 5 cells.
    pub fn normalized_missed(&self, design: &FilterDesign) -> f64 {
        self.missed() as f64 / design.netlist().stats().arithmetic() as f64
    }

    /// Final fault coverage.
    pub fn coverage(&self) -> f64 {
        self.result.coverage_after(self.result.total_cycles())
    }

    /// Coverage curve at logarithmically spaced points — the series
    /// plotted in the paper's Figs. 10–13.
    pub fn coverage_curve(&self, points: usize) -> Vec<(u32, f64)> {
        let total = self.result.total_cycles().max(1);
        let cycles: Vec<u32> = (0..points)
            .map(|i| {
                let frac = (i + 1) as f64 / points as f64;
                ((total as f64).powf(frac)).round() as u32
            })
            .collect();
        self.result.curve(&cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpg::{Decorrelated, Lfsr1, MaxVariance, Ramp, ShiftDirection};

    fn small_design(cutoff: f64) -> FilterDesign {
        filters::FilterDesign::elaborate(filters::FilterSpec {
            name: "T".into(),
            band: dsp::firdesign::BandKind::Lowpass { cutoff },
            taps: 16,
            input_bits: 12,
            coef_frac_bits: 14,
            max_csd_digits: 3,
            width: 16,
            kaiser_beta: 4.0,
        })
        .unwrap()
    }

    /// A small folded (symmetric) design: its trimmed fold adder keeps
    /// enough statically-screenable faults for the SAT prune stage to
    /// have real candidates, while staying fast to prove.
    fn small_sym_design() -> FilterDesign {
        filters::FilterDesign::elaborate_full(
            filters::FilterSpec {
                name: "T-SYM".into(),
                band: dsp::firdesign::BandKind::Lowpass { cutoff: 0.15 },
                taps: 12,
                input_bits: 12,
                coef_frac_bits: 14,
                max_csd_digits: 3,
                width: 16,
                kaiser_beta: 4.0,
            },
            filters::ScalingPolicy::WorstCase,
            filters::Architecture::Symmetric,
        )
        .unwrap()
    }

    /// Per-fault detection outcomes keyed by fault-site identity, so
    /// runs over different universe subsets can be compared.
    fn verdicts_by_site(
        universe: &FaultUniverse,
        result: &FaultSimResult,
    ) -> std::collections::BTreeMap<String, Option<u32>> {
        universe
            .ids()
            .map(|id| {
                let site = universe.site(id);
                let key = format!("{:?}/{}/{:?}", site.node, site.cell, site.representative);
                (key, result.detection_cycles()[id.index()])
            })
            .collect()
    }

    #[test]
    fn session_enumerates_universe_once() {
        let d = small_design(0.1);
        let s = BistSession::new(&d).unwrap();
        assert!(s.universe().len() > 500, "universe {}", s.universe().len());
        assert!(s.universe().uncollapsed_len() > s.universe().len());
    }

    #[test]
    fn random_patterns_reach_high_coverage_on_easy_design() {
        let d = small_design(0.2);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Decorrelated::maximal(12, ShiftDirection::LsbToMsb).unwrap();
        let run = s.run(&mut gen, &RunConfig::new(512)).unwrap();
        assert!(run.coverage() > 0.9, "coverage {}", run.coverage());
        assert!(run.missed() < s.universe().len() / 10);
    }

    #[test]
    fn runs_are_reproducible() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let a = s.run(&mut gen, &RunConfig::new(128)).unwrap();
        let b = s.run(&mut gen, &RunConfig::new(128)).unwrap();
        assert_eq!(a.missed(), b.missed());
        assert_eq!(a.signature, b.signature);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let serial = s.run(&mut gen, &RunConfig::new(192).with_threads(1)).unwrap();
        for threads in [2usize, 4] {
            let sharded = s.run(&mut gen, &RunConfig::new(192).with_threads(threads)).unwrap();
            assert_eq!(
                serial.result.detection_cycles(),
                sharded.result.detection_cycles(),
                "threads = {threads}"
            );
            assert_eq!(serial.signature, sharded.signature);
        }
    }

    #[test]
    fn different_generators_give_different_signatures() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut a = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let mut b = Ramp::new(12).unwrap();
        let cfg = RunConfig::new(64);
        assert_ne!(s.run(&mut a, &cfg).unwrap().signature, s.run(&mut b, &cfg).unwrap().signature);
    }

    #[test]
    fn signature_mode_matches_trace_mode_verdicts() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let trace = s.run(&mut gen, &RunConfig::new(192)).unwrap();
        let signed = s
            .run(&mut gen, &RunConfig::new(192).with_response_check(ResponseCheck::Signature))
            .unwrap();
        // Same detected-fault set, cycle for cycle, and the same
        // good-machine signature — compaction changes what is stored,
        // not what is observed.
        assert_eq!(trace.result.detection_cycles(), signed.result.detection_cycles());
        assert_eq!(trace.signature, signed.signature);
        assert!(trace.result.signatures().is_none());
        let sigs = signed.result.signatures().expect("signature mode keeps per-fault signatures");
        assert_eq!(sigs.good, signed.signature);
        assert_eq!(signed.artifact.mode, "signature");
        assert_eq!(trace.artifact.mode, "trace");
        assert_eq!(trace.artifact.response_store_words, 192);
        assert_eq!(signed.artifact.response_store_words, 64);
        assert_eq!(signed.artifact.aliased, signed.result.aliased().len());
    }

    #[test]
    fn signature_mode_is_thread_and_schedule_invariant() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let base_cfg = RunConfig::new(160).with_response_check(ResponseCheck::Signature);
        let reference = s
            .run(
                &mut gen,
                &base_cfg
                    .clone()
                    .with_threads(1)
                    .with_schedule(StageSchedule::with_boundaries(vec![])),
            )
            .unwrap();
        for (threads, boundaries) in
            [(2usize, vec![16u32, 48]), (4, vec![1, 7, 100]), (8, vec![64])]
        {
            let run = s
                .run(
                    &mut gen,
                    &base_cfg
                        .clone()
                        .with_threads(threads)
                        .with_schedule(StageSchedule::with_boundaries(boundaries.clone())),
                )
                .unwrap();
            assert_eq!(run.signature, reference.signature, "threads {threads} {boundaries:?}");
            assert_eq!(
                run.result.signatures(),
                reference.result.signatures(),
                "threads {threads} {boundaries:?}"
            );
            assert_eq!(
                run.result.detection_cycles(),
                reference.result.detection_cycles(),
                "threads {threads} {boundaries:?}"
            );
        }
    }

    #[test]
    fn signature_mode_skips_the_trace_compaction_phase() {
        let d = small_design(0.2);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Ramp::new(12).unwrap();
        let trace = s.run(&mut gen, &RunConfig::new(64)).unwrap();
        let signed = s
            .run(&mut gen, &RunConfig::new(64).with_response_check(ResponseCheck::Signature))
            .unwrap();
        let has_phase =
            |run: &BistRun| run.artifact.stages.iter().any(|t| t.name == "session.signature");
        assert!(has_phase(&trace), "trace mode re-simulates the good response");
        assert!(!has_phase(&signed), "signature mode folds inside the fault simulator");
    }

    #[test]
    fn response_check_parses_and_displays_canonically() {
        assert_eq!(ResponseCheck::Trace.as_str(), "trace");
        assert_eq!(ResponseCheck::Signature.to_string(), "signature");
        assert_eq!(ResponseCheck::parse("trace"), Some(ResponseCheck::Trace));
        assert_eq!(ResponseCheck::parse("signature"), Some(ResponseCheck::Signature));
        assert_eq!(ResponseCheck::parse("Trace"), None);
        assert_eq!(ResponseCheck::default(), ResponseCheck::Trace);
    }

    #[test]
    fn misr_width_is_configurable_and_checked() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let narrow = s.run(&mut gen, &RunConfig::new(64).with_misr_width(12)).unwrap();
        let wide = s.run(&mut gen, &RunConfig::new(64).with_misr_width(16)).unwrap();
        assert!(narrow.signature < (1 << 12));
        assert_ne!(narrow.signature, wide.signature);
        // An untabulated width is a SessionError, not a panic.
        let err = s.run(&mut gen, &RunConfig::new(64).with_misr_width(63)).unwrap_err();
        assert!(matches!(err, SessionError::Tpg(_)), "{err}");
    }

    #[test]
    fn mismatched_generator_width_is_rejected() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(10, ShiftDirection::LsbToMsb).unwrap();
        let err = s.run(&mut gen, &RunConfig::new(64)).unwrap_err();
        assert!(matches!(err, SessionError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("10-bit"), "{err}");
    }

    #[test]
    fn vector_count_beyond_the_cycle_counter_is_rejected() {
        // Rejected before any of the 2^32 + 64 patterns is generated.
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let vectors = u32::MAX as usize + 65;
        let err = s.run(&mut gen, &RunConfig::new(vectors)).unwrap_err();
        assert!(matches!(err, SessionError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("vectors = 4294967360"), "{err}");
    }

    #[test]
    fn maxvar_lags_on_lower_bits() {
        // LFSR-M misses more faults than LFSR-D at equal length (the
        // paper's consistent finding), even on an easy design.
        let d = small_design(0.2);
        let s = BistSession::new(&d).unwrap();
        let mut dcor = Decorrelated::maximal(12, ShiftDirection::LsbToMsb).unwrap();
        let mut maxv = MaxVariance::maximal(12).unwrap();
        let cfg = RunConfig::new(512);
        let run_d = s.run(&mut dcor, &cfg).unwrap();
        let run_m = s.run(&mut maxv, &cfg).unwrap();
        assert!(
            run_m.missed() > run_d.missed(),
            "LFSR-M {} vs LFSR-D {}",
            run_m.missed(),
            run_d.missed()
        );
    }

    #[test]
    fn curve_is_monotone() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let run = s.run(&mut gen, &RunConfig::new(256)).unwrap();
        let curve = run.coverage_curve(8);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        let norm = run.normalized_missed(&d);
        assert!(
            (norm - run.missed() as f64 / d.netlist().stats().arithmetic() as f64).abs() < 1e-12
        );
    }

    #[test]
    fn default_config_is_the_paper_test_length() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.vectors(), 4096);
        assert_eq!(cfg.misr_width(), 16);
        assert_eq!(cfg.threads(), 0);
        let cfg = cfg.with_vectors(128).with_schedule(StageSchedule::with_boundaries(vec![8]));
        assert_eq!(cfg.vectors(), 128);
        assert_eq!(cfg.schedule(), &StageSchedule::with_boundaries(vec![8]));
    }

    #[test]
    fn cancelled_token_aborts_the_run_as_a_session_error() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = s.run(&mut gen, &RunConfig::new(128).with_cancel(token)).unwrap_err();
        assert!(matches!(err, SessionError::Cancelled { deadline_exceeded: false }), "{err}");
        assert!(err.to_string().contains("cancelled"), "{err}");
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let token = CancelToken::new().with_deadline(std::time::Instant::now());
        let err = s.run(&mut gen, &RunConfig::new(128).with_cancel(token)).unwrap_err();
        assert!(matches!(err, SessionError::Cancelled { deadline_exceeded: true }), "{err}");
        assert!(err.to_string().contains("deadline"), "{err}");
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn unfired_token_leaves_results_bit_identical() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let plain = s.run(&mut gen, &RunConfig::new(128)).unwrap();
        let watched =
            s.run(&mut gen, &RunConfig::new(128).with_cancel(CancelToken::new())).unwrap();
        assert_eq!(plain.signature, watched.signature);
        assert_eq!(plain.result.detection_cycles(), watched.result.detection_cycles());
    }

    #[test]
    fn session_errors_display_their_source() {
        let e = SessionError::from(tpg::TpgError::ZeroSeed);
        assert!(e.to_string().contains("seed"));
        assert!(std::error::Error::source(&e).is_some());
        let e = SessionError::InvalidConfig { reason: "nope".into() };
        assert!(e.to_string().contains("nope"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn session_errors_chain_sources_for_every_wrapped_layer() {
        // Each lower-layer error must surface through source(), and the
        // chained cause's own message must match what Display embeds —
        // this is what lets artifact/error reporting render full causes.
        let cases: Vec<SessionError> = vec![
            tpg::TpgError::UnsupportedWidth { width: 99 }.into(),
            filters::FilterError::ScalingDiverged { l1: 2.5 }.into(),
            rtl::RtlError::InvalidWidth { width: 1 }.into(),
            dsp::DspError::NotPowerOfTwo { len: 3 }.into(),
        ];
        for e in cases {
            let source =
                std::error::Error::source(&e).unwrap_or_else(|| panic!("no source for {e}"));
            assert!(
                e.to_string().contains(&source.to_string()),
                "display '{e}' does not embed its cause '{source}'"
            );
            // One level is enough for these leaf errors; walking the
            // chain must terminate.
            let mut depth = 0;
            let mut cursor: Option<&(dyn std::error::Error + 'static)> = Some(source);
            while let Some(c) = cursor {
                depth += 1;
                assert!(depth < 10, "unbounded error chain");
                cursor = c.source();
            }
        }
    }

    #[test]
    fn run_attaches_a_complete_artifact() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let run = s.run(&mut gen, &RunConfig::new(256).with_threads(2)).unwrap();
        let a = &run.artifact;
        assert_eq!(a.design, "T");
        assert_eq!(a.generator, run.generator);
        assert_eq!(a.vectors, 256);
        assert_eq!(a.threads, 2);
        assert_eq!(a.total_faults, s.universe().len());
        assert_eq!(a.detected + a.missed, a.total_faults);
        assert_eq!(a.missed, run.missed());
        assert!((a.coverage - run.coverage()).abs() < 1e-12);
        assert_eq!(a.signature, run.signature);
        // The three session phases appear as stages, in pipeline order.
        let names: Vec<&str> = a.stages.iter().map(|st| st.name.as_str()).collect();
        let patterns = names.iter().position(|n| *n == "session.patterns").unwrap();
        let sim = names.iter().position(|n| *n == "session.fault_sim").unwrap();
        let sig = names.iter().position(|n| *n == "session.signature").unwrap();
        assert!(patterns < sim && sim < sig, "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("faultsim.stage")), "{names:?}");
        // Engine counters came along.
        let counters: std::collections::BTreeMap<_, _> = a.counters.iter().cloned().collect();
        assert_eq!(counters["faultsim.faults_detected"], a.detected as u64);
        assert_eq!(counters["faultsim.faults_undetected"], a.missed as u64);
        // The census covers only missed faults; every count is bounded.
        assert_eq!(a.missed_by_class.len(), 4);
        for (class, n) in &a.missed_by_class {
            assert!(class.starts_with('T'));
            assert!(*n <= a.missed, "{class} census {n} > missed {}", a.missed);
        }
        // The artifact renders to JSON and a human summary.
        assert!(a.to_json().to_json().contains("\"design\":\"T\""));
        assert!(a.summary().contains("coverage"));
    }

    #[test]
    fn run_attaches_lint_diagnostics_verbatim() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let diags = vec![obs::Diagnostic::new(
            "L201",
            obs::Severity::Error,
            obs::Location::Design,
            "predicted incompatibility",
        )];
        let linted = s.run(&mut gen, &RunConfig::new(64).with_lint(diags.clone())).unwrap();
        assert_eq!(linted.artifact.lint, diags);
        assert!(linted.artifact.to_json().to_json().contains("\"lint\":[{\"code\":\"L201\""));
        // Linting is observational: results stay bit-identical.
        let plain = s.run(&mut gen, &RunConfig::new(64)).unwrap();
        assert!(plain.artifact.lint.is_empty());
        assert_eq!(plain.signature, linted.signature);
    }

    #[test]
    fn campaign_registry_accumulates_across_runs() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let campaign = std::sync::Arc::new(obs::Registry::new());
        let cfg = RunConfig::new(64).with_threads(1).with_metrics(std::sync::Arc::clone(&campaign));
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let a = s.run(&mut gen, &cfg).unwrap();
        let b = s.run(&mut gen, &cfg).unwrap();
        // Metrics attached or not, results stay bit-identical.
        assert_eq!(a.signature, b.signature);
        let snap = campaign.snapshot();
        assert_eq!(
            snap.counters["faultsim.faults_detected"],
            (a.artifact.detected + b.artifact.detected) as u64
        );
        assert_eq!(snap.spans.iter().filter(|sp| sp.name == "session.fault_sim").count(), 2);
    }

    #[test]
    fn top_off_stage_partitions_the_residue_and_reports_the_plan() {
        // A small design under a tight plan, and LP-MINI's LFSR-D
        // residue under the default plan.
        let (small, lp_mini) = (small_design(0.15), filters::designs::lowpass_mini().unwrap());
        let cells: [(&FilterDesign, Box<dyn TestGenerator>, usize, TopOffConfig); 2] = [
            (
                &small,
                Box::new(Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap()),
                96,
                TopOffConfig { block_len: 64, max_seeds: 8 },
            ),
            (
                &lp_mini,
                Box::new(Decorrelated::maximal(12, ShiftDirection::LsbToMsb).unwrap()),
                256,
                TopOffConfig::default(),
            ),
        ];
        for (d, mut gen, vectors, top_cfg) in cells {
            let s = BistSession::new(d).unwrap();
            let cfg = RunConfig::new(vectors).with_top_off(top_cfg);
            let run = s.run(&mut *gen, &cfg).unwrap();
            let a = &run.artifact;
            let t = a.topoff.as_ref().expect("the knob fills the report");
            let cell = format!("{} @{vectors}", d.name());
            // The screen shrinks (or keeps) the simulated universe; the
            // artifact counts faults over the testable universe.
            assert_eq!(a.total_faults + t.screened_untestable, s.universe().len(), "{cell}");
            assert_eq!(a.detected + a.missed, a.total_faults, "{cell}");
            // Exact verdict partition over a non-empty residue, one
            // verdict per residual fault, and every residual fault
            // either detected by the plan or proven untestable.
            assert!(t.residue > 0, "the campaign leaves a residue to top off: {cell}");
            assert_eq!(t.residue, a.missed, "{cell}");
            assert_eq!(t.detected + t.untestable + t.unresolved, t.residue, "{cell}");
            assert_eq!(t.unresolved, 0, "{cell}");
            assert_eq!(t.verdicts.len(), t.residue, "{cell}");
            for v in &t.verdicts {
                assert!(
                    matches!(v.verdict.as_str(), "detected" | "untestable" | "unresolved"),
                    "{v:?}"
                );
                assert!(!v.node.is_empty());
            }
            // Storage accounting is consistent with the plan shape.
            assert_eq!(t.seed_bits, t.seeds * 12, "{cell}");
            assert_eq!(t.block_len, top_cfg.block_len, "{cell}");
            // The stage ran under its own spans.
            let names: Vec<&str> = a.stages.iter().map(|st| st.name.as_str()).collect();
            assert!(names.contains(&"session.atpg_screen"), "{names:?}");
            assert!(names.contains(&"session.top_off"), "{names:?}");
            assert!(a.to_json().to_json().contains("\"topoff\":{\"screened_untestable\":"));
        }
    }

    #[test]
    fn top_off_stage_is_thread_count_invariant() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let base = RunConfig::new(96).with_top_off(TopOffConfig { block_len: 64, max_seeds: 8 });
        let one = s.run(&mut gen, &base.clone().with_threads(1)).unwrap();
        let four = s.run(&mut gen, &base.with_threads(4)).unwrap();
        let (a, b) = (one.artifact.topoff.unwrap(), four.artifact.topoff.unwrap());
        assert_eq!(a, b, "top-off verdicts and plan must not depend on the worker count");
        assert_eq!(one.signature, four.signature);
    }

    #[test]
    fn sat_prune_removes_proven_redundant_faults_and_keeps_verdicts_identical() {
        let d = small_sym_design();
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let plain = s.run(&mut gen, &RunConfig::new(96).with_threads(1)).unwrap();
        let pruned = s
            .run(&mut gen, &RunConfig::new(96).with_threads(1).with_sat_prune(SatConfig::default()))
            .unwrap();
        let r = pruned.artifact.sat.as_ref().expect("the knob fills the report");
        // The screen finds real candidates on the folded design and
        // the prover machine-checks (a subset of) them redundant.
        assert!(r.candidates > 0, "{r:?}");
        assert!(r.redundant_proven > 0, "{r:?}");
        assert_eq!(r.universe_before, s.universe().len());
        assert_eq!(r.redundant_proven + r.detectable + r.unknown, r.candidates);
        // Every SAT witness replayed through the fault simulator.
        assert_eq!(r.witnesses_confirmed, r.detectable, "{r:?}");
        // The equivalence certificate was attempted and discharged.
        assert!(r.equiv_checked && r.equiv_proved, "{r:?}");
        assert!(r.equiv_lemmas > 0, "{r:?}");
        // Exactly the proven-redundant classes left the universe…
        assert_eq!(pruned.artifact.total_faults, s.universe().len() - r.redundant_proven);
        // …and every surviving fault keeps its exact verdict. The
        // pruned universe is re-derived through the same proof path the
        // session took (screen candidates → CDCL prover → keep list).
        let screen = atpg::untestable_faults(d.netlist(), s.universe(), 12);
        let specs: Vec<sat::FaultSpec> = screen.iter().map(|&id| s.fault_spec(id)).collect();
        let outcome = sat::prove_faults(
            d.netlist(),
            12,
            &specs,
            &sat::PruneConfig { max_conflicts: SatConfig::default().max_conflicts },
        );
        let keep: Vec<FaultId> = (0..s.universe().len() as u32)
            .map(FaultId)
            .filter(|id| {
                !screen
                    .iter()
                    .zip(&outcome.verdicts)
                    .any(|(&sid, (_, v))| sid == *id && matches!(v, sat::FaultVerdict::Redundant))
            })
            .collect();
        let pruned_universe = s.universe().subset(&keep);
        assert_eq!(pruned_universe.len(), pruned.artifact.total_faults);
        let before = verdicts_by_site(&s.universe, &plain.result);
        let after = verdicts_by_site(&pruned_universe, &pruned.result);
        for (site, verdict) in &after {
            assert_eq!(before.get(site), Some(verdict), "verdict changed at {site}");
        }
        // Pruned classes were all undetected in the unpruned run —
        // pruning redundant faults can only raise coverage, never hide
        // a detection.
        assert_eq!(before.len() - after.len(), r.redundant_proven);
        for (site, verdict) in &before {
            if !after.contains_key(site) {
                assert_eq!(*verdict, None, "a detected fault was pruned at {site}");
            }
        }
        let names: Vec<&str> = pruned.artifact.stages.iter().map(|st| st.name.as_str()).collect();
        assert!(names.contains(&"session.atpg_screen"), "{names:?}");
        assert!(names.contains(&"session.sat_prune"), "{names:?}");
        assert!(pruned.artifact.to_json().to_json().contains("\"sat\":{\"universe_before\":"));
    }

    #[test]
    fn sat_verdict_pass_keeps_the_topoff_partition_exact() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let cfg = RunConfig::new(96)
            .with_top_off(TopOffConfig { block_len: 64, max_seeds: 8 })
            .with_sat_prune(SatConfig { max_conflicts: 500, equiv: false });
        let run = s.run(&mut gen, &cfg).unwrap();
        let a = &run.artifact;
        let t = a.topoff.as_ref().expect("the knob fills the report");
        let r = a.sat.as_ref().expect("the knob fills the report");
        // The four-way partition is exact: every residual fault has
        // exactly one verdict and the counts add up.
        assert_eq!(t.residue, a.missed);
        assert_eq!(t.detected + t.untestable + t.unresolved + t.redundant, t.residue);
        assert_eq!(t.verdicts.len(), t.residue);
        let mut counted = [0usize; 4];
        for v in &t.verdicts {
            match v.verdict.as_str() {
                "detected" => counted[0] += 1,
                "untestable" => counted[1] += 1,
                "unresolved" => counted[2] += 1,
                "redundant" => counted[3] += 1,
                other => panic!("unknown verdict '{other}' in {v:?}"),
            }
        }
        assert_eq!(counted, [t.detected, t.untestable, t.unresolved, t.redundant]);
        // The equivalence certificate was not requested.
        assert!(!r.equiv_checked && !r.equiv_proved);
        // Witness replay stayed sound across both prover passes.
        assert_eq!(r.witnesses_confirmed, r.detectable, "{r:?}");
    }

    #[test]
    fn sat_stage_is_observational_for_surviving_faults() {
        // Without candidates to prune (the ripple design's universe is
        // already statically tight) the SAT stage must leave results
        // bit-identical to a plain run.
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let plain = s.run(&mut gen, &RunConfig::new(96)).unwrap();
        let sat = s
            .run(
                &mut gen,
                &RunConfig::new(96).with_sat_prune(SatConfig { max_conflicts: 1000, equiv: false }),
            )
            .unwrap();
        let r = sat.artifact.sat.as_ref().unwrap();
        assert_eq!(r.redundant_proven, 0, "{r:?}");
        assert_eq!(sat.signature, plain.signature);
        assert_eq!(sat.result.detection_cycles(), plain.result.detection_cycles());
    }

    #[test]
    fn runs_without_the_knob_carry_no_sat_report() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let run = s.run(&mut gen, &RunConfig::new(64)).unwrap();
        assert_eq!(run.artifact.sat, None);
        assert!(!run.artifact.to_json().to_json().contains("\"sat\""));
        let names: Vec<&str> = run.artifact.stages.iter().map(|st| st.name.as_str()).collect();
        assert!(!names.contains(&"session.sat_prune"), "{names:?}");
    }

    #[test]
    fn runs_without_the_knob_carry_no_topoff_report() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let run = s.run(&mut gen, &RunConfig::new(64)).unwrap();
        assert_eq!(run.artifact.topoff, None);
        assert!(!run.artifact.to_json().to_json().contains("topoff"));
        assert_eq!(run.artifact.total_faults, s.universe().len());
    }

    #[test]
    fn instrumentation_does_not_change_detection_results() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let plain = s.run(&mut gen, &RunConfig::new(128).with_threads(1)).unwrap();
        let campaign = std::sync::Arc::new(obs::Registry::new());
        let metered =
            s.run(&mut gen, &RunConfig::new(128).with_threads(4).with_metrics(campaign)).unwrap();
        assert_eq!(plain.result.detection_cycles(), metered.result.detection_cycles());
        assert_eq!(plain.signature, metered.signature);
    }

    #[test]
    fn collapsed_runs_are_byte_identical_in_trace_mode() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let plain = s.run(&mut gen, &RunConfig::new(128)).unwrap();
        let collapsed = s.run(&mut gen, &RunConfig::new(128).with_collapse(true)).unwrap();
        // The expanded result covers the *full* screened universe and
        // matches the uncollapsed run verdict for verdict.
        assert_eq!(plain.result.detection_cycles(), collapsed.result.detection_cycles());
        assert_eq!(plain.signature, collapsed.signature);
        assert_eq!(plain.artifact.total_faults, collapsed.artifact.total_faults);
        assert_eq!(plain.artifact.detected, collapsed.artifact.detected);
        assert_eq!(plain.artifact.missed_by_class, collapsed.artifact.missed_by_class);
        assert_eq!(plain.artifact.coverage, collapsed.artifact.coverage);
    }

    #[test]
    fn collapsed_runs_are_byte_identical_in_signature_mode() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let cfg = RunConfig::new(128).with_response_check(ResponseCheck::Signature);
        let plain = s.run(&mut gen, &cfg).unwrap();
        let collapsed = s.run(&mut gen, &cfg.clone().with_collapse(true)).unwrap();
        assert_eq!(plain.signature, collapsed.signature);
        assert_eq!(plain.result.detection_cycles(), collapsed.result.detection_cycles());
        // Per-fault end-of-test signatures expand back over every class
        // member, so the full SignatureSet — aliasing census included —
        // is preserved exactly.
        assert_eq!(plain.result.signatures(), collapsed.result.signatures());
        assert_eq!(plain.artifact.aliased, collapsed.artifact.aliased);
    }

    #[test]
    fn collapse_census_rides_the_artifact_only_with_the_knob() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let plain = s.run(&mut gen, &RunConfig::new(64)).unwrap();
        assert_eq!(plain.artifact.collapse, None);
        assert!(!plain.artifact.to_json().to_json().contains("\"collapse\""));

        let run = s.run(&mut gen, &RunConfig::new(64).with_collapse(true)).unwrap();
        let c = run.artifact.collapse.as_ref().expect("the knob fills the census");
        // The census is internally consistent and tied to this run's
        // universe: collapse really removed machines from the schedule.
        assert_eq!(c.sites_before, s.universe().len());
        assert!(c.classes_after < c.sites_before, "{c:?}");
        assert!(c.prime_classes <= c.classes_after);
        assert_eq!(c.classes_after - c.prime_classes, c.dominated_classes);
        assert!(c.raw_lines >= c.screened_faults, "{c:?}");
        assert!(c.reduction_vs_raw > 0.0 && c.reduction_vs_raw < 1.0);
        let names: Vec<&str> = run.artifact.stages.iter().map(|st| st.name.as_str()).collect();
        assert!(names.contains(&"session.structure"), "{names:?}");
        assert!(run.artifact.to_json().to_json().contains("\"collapse\":{\"gates\":"));
    }

    #[test]
    fn collapse_composes_with_topoff() {
        let d = small_design(0.15);
        let s = BistSession::new(&d).unwrap();
        let mut gen = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let cfg = RunConfig::new(96).with_top_off(TopOffConfig { block_len: 64, max_seeds: 8 });
        let plain = s.run(&mut gen, &cfg).unwrap();
        let collapsed = s.run(&mut gen, &cfg.clone().with_collapse(true)).unwrap();
        // Detection verdicts still expand to the uncollapsed run.
        assert_eq!(plain.result.detection_cycles(), collapsed.result.detection_cycles());
        assert_eq!(plain.signature, collapsed.signature);
        let t = collapsed.artifact.topoff.as_ref().expect("the knob fills the report");
        // The top-off residue counts representative *classes*, while
        // the artifact's missed count covers the expanded universe, so
        // residue can only be smaller or equal.
        assert!(t.residue <= collapsed.artifact.missed, "{t:?}");
        assert_eq!(t.detected + t.untestable + t.unresolved + t.redundant, t.residue);
        assert_eq!(t.verdicts.len(), t.residue);
    }
}
