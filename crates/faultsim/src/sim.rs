use crate::activation::first_activations;
use crate::cone::{input_planes, Cone, ConeIndex, GoodTrace, StageTrace};
use crate::cycle::{LaneFault, LaneMachine, LaneProgram};
use crate::fault::{FaultId, FaultUniverse};
use crate::kernel::{KernelSim, Tape};
use obs::Registry;
use rtl::misr::{Misr, MisrBank};
use rtl::sim::{BitSlicedSim, CellFault};
use rtl::Netlist;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A shared cooperative-cancellation handle: an atomic flag plus an
/// optional hard deadline. Clones observe the same flag, so a token
/// handed to a long fault-simulation run can be cancelled from another
/// thread (the campaign daemon's `CancelJob` path). The simulator
/// checks the token **at stage boundaries** only — between
/// [`StageSchedule`] stages, never inside the bit-sliced inner loop —
/// so cancellation latency is one stage, and a run that completes was
/// never perturbed.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a hard deadline: the token reads as cancelled once
    /// `deadline` passes, with no explicit [`CancelToken::cancel`] call.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the token reads cancelled *because of its deadline*
    /// (used to distinguish "timed out" from "cancelled" job states).
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The error a cancellable fault-simulation run returns when its
/// [`CancelToken`] fired at a stage boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cancelled {
    /// The cycle (start of the unentered stage) simulation stopped at.
    pub at_cycle: u32,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault simulation cancelled at stage boundary (cycle {})", self.at_cycle)
    }
}

impl Error for Cancelled {}

/// Faulty machines per 64-lane bit-sliced pass (lane 0 is the good
/// machine).
const LANES_PER_PASS: usize = 63;

/// Fault shards batched into one kernel machine: the tape executes
/// this many independent 64-lane pattern words per op, so the
/// serialized ripple-carry chain of one shard pipelines against its
/// neighbours' and the per-op decode cost is amortized.
const KERNEL_WORDS: usize = 16;

/// Longest stage the scheduler runs, in cycles: a longer
/// [`StageSchedule`] stage runs as consecutive stages of at most this
/// length. A stage's good-trace window holds one bit per cycle of each
/// of its boundary slots, so the cap bounds the trace's memory however
/// long the test is; results do not depend on the schedule.
const MAX_STAGE_CYCLES: u32 = 64 * 64;

/// Staged fault-dropping schedule: simulation restarts lane packing at
/// each boundary, carrying every surviving faulty machine's register
/// state across. Early stages are short so the bulk of (easy) faults is
/// dropped after few cycles; only the hard tail pays for the full test
/// length. The simulator runs a span longer than 4,096 cycles between
/// two boundaries as consecutive stages of at most that length, which
/// bounds its good-trace memory and does not change any result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSchedule {
    boundaries: Vec<u32>,
}

impl StageSchedule {
    /// The default schedule: repack at cycles 64, 256 and 1024.
    pub fn new() -> Self {
        StageSchedule { boundaries: vec![64, 256, 1024] }
    }

    /// A custom schedule from ascending repack cycles.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not strictly ascending.
    pub fn with_boundaries(boundaries: Vec<u32>) -> Self {
        assert!(boundaries.windows(2).all(|w| w[0] < w[1]), "boundaries must ascend");
        StageSchedule { boundaries }
    }

    /// The repack cycles, ascending.
    pub fn into_boundaries(self) -> Vec<u32> {
        self.boundaries
    }

    /// Stage extents `(start, end)` for a test of `total` cycles: the
    /// non-empty spans between boundaries, each cut into pieces of at
    /// most [`MAX_STAGE_CYCLES`].
    fn stages(&self, total: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut start = 0u32;
        let ends = self.boundaries.iter().copied().filter(|&b| b < total);
        for end in ends.chain(std::iter::once(total)) {
            while start < end {
                let cut = end.min(start.saturating_add(MAX_STAGE_CYCLES));
                out.push((start, cut));
                start = cut;
            }
        }
        out
    }
}

impl Default for StageSchedule {
    fn default() -> Self {
        Self::new()
    }
}

/// Configuration of the response-compacting signature register used by
/// [`SimOptions::with_signature`]: the MISR's width and feedback
/// polynomial (see [`rtl::misr`]). The simulator takes the polynomial
/// as data — choosing one (the tabulated primitive polynomials live in
/// the `tpg` crate) is the session layer's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureConfig {
    /// Register width in bits (`1..=63`).
    pub width: u32,
    /// Feedback polynomial; an `x^width` term, if present, is ignored.
    pub poly: u64,
}

/// Which simulator a [`ParallelFaultSimulator`] run uses.
///
/// The kernel is the only production engine. The walker is the
/// differential oracle the tests hold it against: both produce the
/// same detection cycles and signatures on every design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// The staged, sharded scheduler over the compiled straight-line
    /// tape ([`crate::kernel`]).
    #[default]
    Kernel,
    /// The unstaged reference: one graph walker
    /// ([`rtl::sim::BitSlicedSim`]) per 63-fault shard, run from
    /// cycle 0 on the calling thread. It ignores the stage schedule,
    /// the thread count and the cancellation token, and shares no code
    /// with the scheduler, so it also checks staging, repacking and
    /// merging.
    Walker,
}

/// Options controlling a fault-simulation run: the fault-dropping
/// [`StageSchedule`] and the number of worker threads the fault
/// universe is sharded across.
///
/// Results are **bit-identical at every thread count**: each 63-fault
/// shard is an independent bit-sliced machine whose detection cycles do
/// not depend on any other shard, and shard outcomes are merged at
/// every stage boundary in a deterministic order.
#[derive(Debug, Clone)]
pub struct SimOptions {
    schedule: StageSchedule,
    threads: usize,
    metrics: Option<Arc<Registry>>,
    cancel: Option<CancelToken>,
    signature: Option<SignatureConfig>,
    engine: SimEngine,
}

impl SimOptions {
    /// Default options: the default stage schedule, one worker per
    /// available core, no metrics, not cancellable, direct-compare
    /// detection (no signature compaction).
    pub fn new() -> Self {
        SimOptions {
            schedule: StageSchedule::new(),
            threads: 0,
            metrics: None,
            cancel: None,
            signature: None,
            engine: SimEngine::default(),
        }
    }

    /// Overrides the fault-dropping stage schedule.
    pub fn with_schedule(mut self, schedule: StageSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the worker-thread count. `0` (the default) means one
    /// worker per core reported by
    /// [`std::thread::available_parallelism`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a metric registry. The simulator records per-stage
    /// spans (`faultsim.stage<i>`), per-dispatch and merge latency
    /// histograms (`faultsim.shard_ms`, `faultsim.merge_ms`) and
    /// stage/shard/fault counters into it. Purely observational:
    /// detection results are bit-identical with and without metrics.
    ///
    /// `faultsim.stages`, `faultsim.shards` and `faultsim.groups` count,
    /// per stage entered, one stage, ⌈survivors / 63⌉ shards and
    /// ⌈shards / 16⌉ groups: the fault-lane packing of all the stage's
    /// survivors, dormant ones included, whichever executor runs the
    /// stage, so the three are a function of the detection map alone.
    /// `faultsim.stage<i>.survivors` counts the faults entering stage
    /// `i`, and `faultsim.stage<i>.simulated` the ones it runs: those
    /// activated before its end. `faultsim.never_activated` counts the
    /// faults the test never activates, and the `faultsim.activation_ms`
    /// histogram times the pass that finds each fault's first
    /// activation. A compare-mode tail stage that runs cycle-lane adds
    /// its simulated faults to `faultsim.cycle_lane_faults`, its machines to
    /// `faultsim.cycle_lane_machines` and the 64-cycle blocks they run
    /// to `faultsim.cycle_lane_blocks`. `faultsim.group_buffer_words`
    /// samples each dispatched machine's bit-plane buffer in `u64`s,
    /// padding words included: a group of 3, 5–7 or 9–15 shards runs
    /// on a machine padded to the next power of two.
    pub fn with_metrics(mut self, metrics: Arc<Registry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached metric registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref()
    }

    /// Attaches a cancellation token, checked at every stage boundary
    /// by [`ParallelFaultSimulator::try_run`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Enables signature mode: every lane folds its output stream into
    /// a per-lane MISR ([`rtl::misr::MisrBank`]) inside the bit-sliced
    /// inner loop, and the run reports per-fault end-of-test signatures
    /// next to the direct-compare detection cycles.
    ///
    /// Two semantic consequences, both faithful to a hardware MISR
    /// readout at the end of the test:
    ///
    /// * **No fault dropping.** A signature exists only at the end of
    ///   the full test, so every faulty machine is simulated to the
    ///   last vector; [`StageSchedule`] boundaries become pure repack
    ///   (and cancellation) points. Expect signature runs to cost more
    ///   wall-clock than compare runs — that cost is what the O(lanes)
    ///   response memory buys.
    /// * **Aliasing is observable.** A fault whose output stream
    ///   diverged (compare-detected) but whose final signature equals
    ///   the fault-free one escapes the signature check; such faults
    ///   are reported by [`FaultSimResult::aliased`], never silently
    ///   dropped. Detection cycles themselves stay bit-identical to a
    ///   compare-mode run.
    pub fn with_signature(mut self, signature: SignatureConfig) -> Self {
        self.signature = Some(signature);
        self
    }

    /// The signature configuration, if signature mode is enabled.
    pub fn signature(&self) -> Option<SignatureConfig> {
        self.signature
    }

    /// Selects the simulator (default: [`SimEngine::Kernel`]).
    /// [`SimEngine::Walker`] is the slow reference for differential
    /// tests; results are bit-identical under either.
    pub fn with_engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The configured stage schedule.
    pub fn schedule(&self) -> &StageSchedule {
        &self.schedule
    }

    /// The configured thread count (`0` = auto-detect).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The thread count a run will actually use: the configured count,
    /// or the machine's available parallelism when unset.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// End-of-test signatures of a signature-mode run (see
/// [`SimOptions::with_signature`]): the fault-free machine's signature
/// plus one final MISR state per fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureSet {
    /// The fault-free machine's end-of-test signature.
    pub good: u64,
    /// Each fault's end-of-test signature, indexed by
    /// [`FaultId::index`].
    pub per_fault: Vec<u64>,
}

/// Result of a fault-simulation run.
#[derive(Debug, Clone)]
pub struct FaultSimResult {
    detection_cycle: Vec<Option<u32>>,
    total_cycles: u32,
    signatures: Option<SignatureSet>,
    good_response: Option<Arc<[Vec<i64>]>>,
}

impl FaultSimResult {
    /// First cycle (0-based) at which each fault was detected, `None`
    /// for missed faults. Indexed by [`FaultId::index`].
    pub fn detection_cycles(&self) -> &[Option<u32>] {
        &self.detection_cycle
    }

    /// Length of the applied test sequence.
    pub fn total_cycles(&self) -> u32 {
        self.total_cycles
    }

    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.detection_cycle.iter().filter(|d| d.is_some()).count()
    }

    /// Ids of faults never detected.
    pub fn missed(&self) -> Vec<FaultId> {
        self.detection_cycle
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| FaultId(i as u32))
            .collect()
    }

    /// Number of faults still undetected after `cycle` vectors.
    pub fn missed_after(&self, cycle: u32) -> usize {
        self.detection_cycle.iter().filter(|d| d.is_none_or(|c| c >= cycle)).count()
    }

    /// Fault coverage (fraction detected) after `cycle` vectors.
    pub fn coverage_after(&self, cycle: u32) -> f64 {
        if self.detection_cycle.is_empty() {
            return 1.0;
        }
        1.0 - self.missed_after(cycle) as f64 / self.detection_cycle.len() as f64
    }

    /// Coverage curve sampled at the given cycle counts.
    pub fn curve(&self, cycles: &[u32]) -> Vec<(u32, f64)> {
        cycles.iter().map(|&c| (c, self.coverage_after(c))).collect()
    }

    /// The end-of-test signatures, when the run compacted responses
    /// (`None` for direct-compare runs).
    pub fn signatures(&self) -> Option<&SignatureSet> {
        self.signatures.as_ref()
    }

    /// The fault-free machine's end-of-test signature, in signature
    /// mode.
    pub fn good_signature(&self) -> Option<u64> {
        self.signatures.as_ref().map(|s| s.good)
    }

    /// The fault-free response a compare-mode run compared against:
    /// one word per cycle for each output, in [`Netlist::output_ids`]
    /// order, sign-extended at the datapath width. A trace-mode caller
    /// compacts it without simulating the good machine again. `None` in
    /// signature mode, which folds the response into
    /// [`FaultSimResult::good_signature`] as the run goes instead.
    pub fn good_response(&self) -> Option<&[Vec<i64>]> {
        self.good_response.as_deref()
    }

    /// Faults that *escape* the signature check: compare-detected (the
    /// output stream diverged at some cycle) yet ending with a
    /// signature equal to the fault-free one. Empty for compare-mode
    /// runs, and expected empty for a well-sized MISR — the analytical
    /// escape probability is ≈ `2^-width` per detected fault (the
    /// `L4xx` lints budget it; `DESIGN.md` §10 derives it).
    pub fn aliased(&self) -> Vec<FaultId> {
        let Some(sigs) = &self.signatures else { return Vec::new() };
        self.detection_cycle
            .iter()
            .enumerate()
            .filter(|&(i, d)| d.is_some() && sigs.per_fault[i] == sigs.good)
            .map(|(i, _)| FaultId(i as u32))
            .collect()
    }

    /// Number of faults a signature-only tester would flag: final
    /// signature differs from the fault-free one. Equals
    /// [`FaultSimResult::detected_count`] minus the aliased count. In
    /// compare mode this is just `detected_count`.
    pub fn signature_detected_count(&self) -> usize {
        self.detected_count() - self.aliased().len()
    }

    /// Expands a collapsed-universe result back to a full universe:
    /// full-universe fault `i` takes the verdict (detection cycle and,
    /// in signature mode, end-of-test signature) of the representative
    /// class `class_map[i]` it collapsed into. Because every shard's
    /// detection cycle is intrinsic to its fault — independent of
    /// shard-mates and stage packing — a representative's verdict *is*
    /// the verdict every exactly-equivalent member would have received,
    /// so the expanded result is byte-identical to simulating the full
    /// universe directly.
    ///
    /// # Panics
    ///
    /// Panics if a class index is out of range for this result.
    pub fn expand_classes(&self, class_map: &[u32]) -> FaultSimResult {
        let detection_cycle = class_map.iter().map(|&c| self.detection_cycle[c as usize]).collect();
        let signatures = self.signatures.as_ref().map(|s| SignatureSet {
            good: s.good,
            per_fault: class_map.iter().map(|&c| s.per_fault[c as usize]).collect(),
        });
        FaultSimResult {
            detection_cycle,
            total_cycles: self.total_cycles,
            signatures,
            good_response: self.good_response.clone(),
        }
    }
}

/// One faulty machine's carried state at a stage boundary: its
/// register snapshot plus, in signature mode, its partially
/// accumulated MISR state.
struct MachineState {
    regs: Box<[u64]>,
    misr: u64,
}

/// What every dispatch group of one stage shares.
struct Stage<'s> {
    tape: &'s Tape,
    trace: &'s StageTrace,
    inputs: &'s [i64],
    start: u32,
    end: u32,
    /// The fault-free machine entering the stage: lanes without a
    /// carried state start from it.
    good: MachineState,
    /// The fault-free register state leaving the stage: the state of
    /// every register outside a group's cone.
    good_end: &'s [u64],
    /// A cycle-lane stage's fault-free output planes, block-major from
    /// the block of `start` ([`GoodTrace::outputs_from`]); empty for a
    /// fault-lane stage, whose lane 0 is the good machine.
    good_outputs: &'s [u64],
    /// Carried states of the faults that survived earlier stages,
    /// indexed by [`FaultId::index`].
    states: &'s [Option<MachineState>],
}

/// What one shard (a group of up to 63 faults) produced over one stage:
/// detections and the machine-state snapshots of the survivors (in
/// signature mode every fault survives — dropping would truncate its
/// signature).
struct ShardOutcome {
    detections: Vec<(FaultId, u32)>,
    survivors: Vec<(FaultId, MachineState)>,
}

/// The staged, sharded, 64-lane parallel fault simulator.
///
/// Two axes of parallelism compose: within one shard, 63 faulty
/// machines plus the good machine are evaluated word-parallel in the
/// bit-sliced lanes of a single `u64`; across shards, groups of 16
/// shards share one multi-word kernel machine, and groups are
/// distributed over a scoped worker pool (see
/// [`SimOptions::with_threads`]). Each group runs only the fanout cone
/// of its fault nodes, reading the rest of the circuit from a
/// fault-free trace simulated once per run. Per-shard state is merged
/// at every stage boundary, and results are bit-identical at any
/// thread count.
pub struct ParallelFaultSimulator<'a> {
    netlist: &'a Netlist,
    universe: &'a FaultUniverse,
    options: SimOptions,
}

impl<'a> ParallelFaultSimulator<'a> {
    /// Creates a simulator with default options (default stage
    /// schedule, one worker thread per available core).
    pub fn new(netlist: &'a Netlist, universe: &'a FaultUniverse) -> Self {
        ParallelFaultSimulator { netlist, universe, options: SimOptions::new() }
    }

    /// Overrides all run options.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the stage schedule.
    pub fn with_schedule(mut self, schedule: StageSchedule) -> Self {
        self.options = self.options.with_schedule(schedule);
        self
    }

    /// Overrides the worker-thread count (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.options = self.options.with_threads(threads);
        self
    }

    /// Attaches a metric registry (see [`SimOptions::with_metrics`]).
    pub fn with_metrics(mut self, metrics: Arc<Registry>) -> Self {
        self.options = self.options.with_metrics(metrics);
        self
    }

    /// Runs the complete test sequence (one raw input word per cycle,
    /// already aligned to the netlist's input width) against every fault
    /// in the universe.
    ///
    /// Detection is a direct compare of all outputs against the good
    /// machine (no compaction aliasing). Faulty-machine register state
    /// is carried exactly across stage repacks, so results are identical
    /// to simulating each fault individually from cycle 0 — and
    /// identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if a [`CancelToken`] attached via
    /// [`SimOptions::with_cancel`] fires mid-run; cancellable callers
    /// must use [`ParallelFaultSimulator::try_run`].
    pub fn run(&self, inputs: &[i64]) -> FaultSimResult {
        self.try_run(inputs).expect("run() without a cancel token cannot be cancelled")
    }

    /// Like [`ParallelFaultSimulator::run`], but checks the attached
    /// [`CancelToken`] (if any) at every [`StageSchedule`] boundary and
    /// returns [`Cancelled`] instead of entering the next stage.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired; partial detection results
    /// are discarded (reruns are cheap relative to serving wrong data).
    pub fn try_run(&self, inputs: &[i64]) -> Result<FaultSimResult, Cancelled> {
        let total = inputs.len() as u32;
        let metrics = self.options.metrics.as_deref();
        if total == 0 {
            // Nothing absorbed: every signature is the zero reset state.
            let result = FaultSimResult {
                detection_cycle: vec![None; self.universe.len()],
                total_cycles: 0,
                signatures: self
                    .options
                    .signature
                    .map(|_| SignatureSet { good: 0, per_fault: vec![0; self.universe.len()] }),
                good_response: self.good_response_of(Vec::new).map(Into::into),
            };
            Self::record_totals(metrics, &result);
            return Ok(result);
        }
        if self.options.engine == SimEngine::Walker {
            let result = self.run_reference(inputs);
            Self::record_totals(metrics, &result);
            return Ok(result);
        }
        let threads = self.options.effective_threads().max(1);
        let stages = self.options.schedule.stages(total);

        // The netlist is compiled once; the immutable tape and the
        // stage's cones and trace window are shared by every group on
        // every thread. The good trace, a cycle-lane machine over the
        // whole tape, supplies the fault-free machine: boundary slot
        // values, register states at stage boundaries, and the output
        // words the good signature (signature mode) or response (compare
        // mode) is built from, consumed in cycle order.
        let tape = &Tape::compile(self.netlist);
        let cones = &ConeIndex::new(self.netlist, tape, self.universe);
        let mut boundaries: Vec<u32> = stages.iter().map(|&(start, _)| start).collect();
        boundaries.push(total);
        let good_program = LaneProgram::compile(cones, &Cone::full(tape));
        let mut trace = GoodTrace::new(cones, &good_program, inputs, &boundaries);
        let mut good = GoodOutputs {
            misr: self.options.signature.map(|cfg| {
                Misr::with_polynomial(cfg.width, cfg.poly)
                    .expect("signature width validated by the session layer")
            }),
            response: self.good_response_of(|| Vec::with_capacity(inputs.len())),
        };

        // Each fault's first activation (the `activation` module): before
        // it the faulty machine is the good machine, so a fault enters
        // the first stage that ends after it, from the good state.
        let activation_started = metrics.map(|_| Instant::now());
        let first_activation = first_activations(tape, &good_program, self.universe, inputs);
        if let (Some(m), Some(t)) = (metrics, activation_started) {
            m.histogram("faultsim.activation_ms").record(t.elapsed().as_secs_f64() * 1000.0);
            let never = first_activation.iter().filter(|&&f| f >= total).count();
            m.counter("faultsim.never_activated").add(never as u64);
        }

        let mut detection: Vec<Option<u32>> = vec![None; self.universe.len()];
        // Surviving faults and their machine states at stage start; a
        // dormant survivor (not yet activated) carries no state.
        let mut active: Vec<FaultId> = self.universe.ids().collect();
        let mut states: Vec<Option<MachineState>> =
            std::iter::repeat_with(|| None).take(self.universe.len()).collect();

        for (stage_index, &(start, end)) in stages.iter().enumerate() {
            if active.is_empty() {
                break;
            }
            if self.options.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                if let Some(m) = metrics {
                    m.counter("faultsim.cancelled_runs").inc();
                }
                return Err(Cancelled { at_cycle: start });
            }
            let stage_span = metrics.map(|m| obs::span!(m, "faultsim.stage{}", stage_index));
            // The stage runs only the survivors activated before its end;
            // the others stay dormant and keep the good machine's state.
            let (simulated, dormant): (Vec<FaultId>, Vec<FaultId>) =
                active.iter().partition(|fid| first_activation[fid.index()] < end);
            // The counters count shards and groups as the fault-lane
            // scheduler packs all survivors, dormant ones included,
            // whichever executor runs the stage, so they stay a pure
            // function of the detection map.
            let shard_count = active.len().div_ceil(LANES_PER_PASS);
            let shards: Vec<&[FaultId]> = simulated.chunks(LANES_PER_PASS).collect();
            let groups: Vec<&[&[FaultId]]> = shards.chunks(KERNEL_WORDS).collect();
            // A compare-mode tail too small to give every thread a full
            // group runs cycle-lane: one fault per word, 64 cycles per
            // pass (the `cycle` module), in machines of up to
            // `KERNEL_WORDS` faults, same node first.
            let cycle_lane = stage_index > 0
                && self.options.signature.is_none()
                && shards.len() < threads.saturating_mul(KERNEL_WORDS);
            let machines: Vec<&[FaultId]> =
                if cycle_lane { simulated.chunks(KERNEL_WORDS).collect() } else { Vec::new() };
            if let Some(m) = metrics {
                m.counter("faultsim.stages").inc();
                m.counter("faultsim.shards").add(shard_count as u64);
                m.counter("faultsim.groups").add(shard_count.div_ceil(KERNEL_WORDS) as u64);
                m.counter(&format!("faultsim.stage{stage_index}.survivors"))
                    .add(active.len() as u64);
                m.counter(&format!("faultsim.stage{stage_index}.simulated"))
                    .add(simulated.len() as u64);
                if cycle_lane {
                    m.counter("faultsim.cycle_lane_faults").add(simulated.len() as u64);
                    m.counter("faultsim.cycle_lane_machines").add(machines.len() as u64);
                }
            }
            let node = |fid: &FaultId| self.universe.site(*fid).node;
            // Neighbouring machines over the same fault nodes share one
            // cone and one compiled program, which the first worker to
            // need it builds.
            let mut cone_of_machine: Vec<usize> = Vec::with_capacity(machines.len());
            let mut machine_nodes: Vec<Vec<rtl::NodeId>> = Vec::new();
            for m in &machines {
                let mut nodes: Vec<rtl::NodeId> = m.iter().map(node).collect();
                nodes.dedup();
                if machine_nodes.last() != Some(&nodes) {
                    machine_nodes.push(nodes);
                }
                cone_of_machine.push(machine_nodes.len() - 1);
            }
            let programs: Vec<OnceLock<LaneProgram>> =
                machine_nodes.iter().map(|_| OnceLock::new()).collect();
            let mut unit_cones: Vec<Cone> = if cycle_lane {
                machine_nodes.iter().map(|nodes| cones.group_cone(nodes.iter().copied())).collect()
            } else {
                groups
                    .iter()
                    .map(|g| cones.group_cone(g.iter().flat_map(|shard| shard.iter()).map(node)))
                    .collect()
            };
            let stage_trace = trace.record_stage(start, end, &mut unit_cones);
            good.take(&mut trace, start);
            if let Some(m) = metrics {
                m.histogram("faultsim.trace_words").record(stage_trace.word_count() as f64);
            }
            let stage = Stage {
                tape,
                trace: &stage_trace,
                inputs,
                start,
                end,
                good: MachineState {
                    regs: trace.registers_at(start).into(),
                    misr: good.misr.as_ref().map_or(0, Misr::signature),
                },
                good_end: trace.registers_at(end),
                good_outputs: if cycle_lane { trace.outputs_from(start) } else { &[] },
                states: &states,
            };
            let outcomes: Vec<ShardOutcome> = if cycle_lane {
                dispatch(threads, machines.len(), |i| {
                    let c = cone_of_machine[i];
                    let program =
                        programs[c].get_or_init(|| LaneProgram::compile(cones, &unit_cones[c]));
                    self.simulate_cycle_lane(&stage, program, machines[i])
                })
            } else {
                dispatch(threads, groups.len(), |i| {
                    self.simulate_shard_group(&stage, groups[i], &unit_cones[i])
                })
            };

            // Stage-boundary merge, in shard (or machine) order.
            let merge_started = metrics.map(|_| Instant::now());
            for &fid in &simulated {
                states[fid.index()] = None;
            }
            let mut survivors = dormant;
            for outcome in outcomes {
                for (fid, cycle) in outcome.detections {
                    // First detection wins: signature mode keeps detected
                    // faults alive, so later stages re-observe their
                    // (still diverging) outputs.
                    let slot = &mut detection[fid.index()];
                    if slot.is_none() {
                        *slot = Some(cycle);
                    }
                }
                for (fid, state) in outcome.survivors {
                    survivors.push(fid);
                    states[fid.index()] = Some(state);
                }
            }
            survivors.sort();
            active = survivors;
            if let (Some(m), Some(t)) = (metrics, merge_started) {
                m.histogram("faultsim.merge_ms").record(t.elapsed().as_secs_f64() * 1000.0);
            }
            drop(stage_span);
        }

        // Signature readout: every fault survived to the end in
        // signature mode, so a simulated fault's final MISR state sits in
        // `states`, and a fault never activated carries no state and ends
        // with the good signature. The fault-free signature is the
        // trace's, even for an empty universe.
        good.take(&mut trace, total);
        let signatures = good.misr.map(|misr| {
            let good = misr.signature();
            let per_fault = states.iter().map(|s| s.as_ref().map_or(good, |s| s.misr)).collect();
            SignatureSet { good, per_fault }
        });
        let result = FaultSimResult {
            detection_cycle: detection,
            total_cycles: total,
            signatures,
            good_response: good.response.map(Into::into),
        };
        Self::record_totals(metrics, &result);
        Ok(result)
    }

    /// One `make()` vector per output in compare mode (the good
    /// response's shape); `None` in signature mode.
    fn good_response_of(&self, make: impl Fn() -> Vec<i64>) -> Option<Vec<Vec<i64>>> {
        self.options
            .signature
            .is_none()
            .then(|| self.netlist.output_ids().iter().map(|_| make()).collect())
    }

    /// Final detected/undetected (and, in signature mode, aliased)
    /// counters for a completed run.
    fn record_totals(metrics: Option<&Registry>, result: &FaultSimResult) {
        if let Some(m) = metrics {
            let detected = result.detected_count();
            m.counter("faultsim.faults_detected").add(detected as u64);
            m.counter("faultsim.faults_undetected")
                .add((result.detection_cycle.len() - detected) as u64);
            if result.signatures.is_some() {
                m.counter("faultsim.faults_aliased").add(result.aliased().len() as u64);
            }
        }
    }

    /// Simulates a group of up to [`KERNEL_WORDS`] shards (up to 63
    /// faults each) over one stage on one multi-word kernel machine
    /// restricted to the union fanout cone of the group's fault nodes,
    /// starting every lane of every word from its stage-entry register
    /// state (and, in signature mode, its partial MISR state). Each
    /// word is fully independent of every other word and of every other
    /// group, so groups can run on any thread in any order.
    fn simulate_shard_group(
        &self,
        stage: &Stage<'_>,
        chunks: &[&[FaultId]],
        cone: &Cone,
    ) -> ShardOutcome {
        let metrics = self.options.metrics.as_deref();
        let shard_started = metrics.map(|_| Instant::now());
        let words = chunks.len();
        let mut sim = KernelSim::with_cone(stage.tape, words, cone, stage.start);
        let mut banks: Option<Vec<MisrBank>> = self.options.signature.map(|cfg| {
            (0..words)
                .map(|_| {
                    let mut b = MisrBank::with_polynomial(cfg.width, cfg.poly)
                        .expect("signature width validated by the session layer");
                    b.fill(stage.good.misr);
                    b
                })
                .collect()
        });
        // All lanes of every word start from the good state, then
        // faulty lanes get their own diverged state (registers and
        // partial signature); finally each word's faults are injected,
        // slot `i` on lane `i + 1`. The machine's padding words past the
        // last shard are never loaded, read or folded.
        for (word, group) in chunks.iter().enumerate() {
            let carried = group.iter().enumerate().filter_map(|(slot, &fid)| {
                stage.states[fid.index()].as_ref().map(|s| (slot as u32 + 1, s))
            });
            if let Some(banks) = banks.as_mut() {
                for (lane, s) in carried.clone() {
                    banks[word].set_lane_signature(lane, s.misr);
                }
            }
            sim.load_word_state(word, &stage.good.regs, carried.map(|(lane, s)| (lane, &*s.regs)));
        }
        sim.set_faults(chunks.iter().enumerate().flat_map(|(word, group)| {
            self.shard_faults(group).map(move |(node, f)| (word as u32, node.index() as u32, f))
        }));

        let mut detections: Vec<(FaultId, u32)> = Vec::new();
        let mut undetected: Vec<u64> = chunks.iter().map(|group| fault_lanes(group)).collect();
        let mut live = undetected.iter().filter(|&&m| m != 0).count();
        let mut cycles_run = 0u64;
        for cycle in stage.start..stage.end {
            sim.step_traced(stage.inputs[cycle as usize], stage.trace, cycle);
            cycles_run += 1;
            if let Some(banks) = banks.as_mut() {
                for (word, bank) in banks.iter_mut().enumerate() {
                    sim.fold_outputs_in_word(word, bank);
                }
            }
            for (word, group) in chunks.iter().enumerate() {
                let diff = sim.output_diff_lanes_in_word(word, 0) & undetected[word];
                if diff != 0 {
                    let mut d = diff;
                    while d != 0 {
                        let lane = d.trailing_zeros();
                        d &= d - 1;
                        detections.push((group[(lane - 1) as usize], cycle));
                    }
                    undetected[word] &= !diff;
                    if undetected[word] == 0 {
                        live -= 1;
                    }
                }
            }
            // Compare mode drops a fully detected group early; a
            // signature only exists at end of test, so signature mode
            // always plays the stage out.
            if live == 0 && banks.is_none() {
                break;
            }
        }
        // Snapshot survivors' states for the next stage: the undetected
        // lanes in compare mode, every lane in signature mode. Registers
        // outside the cone were never latched; they hold the fault-free
        // state.
        let mut survivors: Vec<(FaultId, MachineState)> = Vec::new();
        for (word, group) in chunks.iter().enumerate() {
            let lanes = match banks {
                Some(_) => fault_lanes(group),
                None => undetected[word],
            };
            let snapshots = sim.word_snapshots(word, lanes, stage.good_end);
            let mut m = lanes;
            for regs in snapshots {
                let lane = m.trailing_zeros();
                m &= m - 1;
                let misr = banks.as_ref().map_or(0, |b| b[word].lane_signature(lane));
                survivors.push((group[(lane - 1) as usize], MachineState { regs, misr }));
            }
        }
        if let (Some(m), Some(t)) = (metrics, shard_started) {
            m.histogram("faultsim.shard_ms").record(t.elapsed().as_secs_f64() * 1000.0);
            m.counter("faultsim.ops_executed").add(sim.ops_per_step() as u64 * cycles_run);
            m.counter("faultsim.tape_ops").add(stage.tape.op_count() as u64 * cycles_run);
            m.counter("faultsim.patched_ops").add(sim.patched_ops_per_step() as u64 * cycles_run);
            m.counter("faultsim.latch_copies").add(sim.latch_copies_per_step() as u64 * cycles_run);
            m.histogram("faultsim.group_buffer_words").record(sim.buffer_words() as f64);
        }
        ShardOutcome { detections, survivors }
    }

    /// Simulates up to [`KERNEL_WORDS`] faults over one stage on a
    /// cycle-lane machine (the `cycle` module) running `program`, the
    /// union cone of their nodes: one fault per word, one 64-cycle block per
    /// pass, each word entering from its fault's stage-entry state. A
    /// fault's first detection is the lowest lane of the first block
    /// where its outputs differ from the good trace's, counted only from
    /// the stage's first cycle; it then leaves the machine, which
    /// narrows to the next power of two once half its words are done.
    /// The survivors' states are read from the stage's last cycle.
    fn simulate_cycle_lane(
        &self,
        stage: &Stage<'_>,
        program: &LaneProgram,
        faults: &[FaultId],
    ) -> ShardOutcome {
        let metrics = self.options.metrics.as_deref();
        let started = metrics.map(|_| Instant::now());
        let lane_faults = faults.iter().map(|&fid| {
            let site = self.universe.site(fid);
            LaneFault {
                node: site.node.index() as u32,
                cell: site.cell,
                fault: site.representative,
            }
        });
        let entry: Vec<&[u64]> = faults
            .iter()
            .map(|fid| stage.states[fid.index()].as_ref().map_or(&stage.good.regs, |s| &s.regs))
            .map(|regs| &regs[..])
            .collect();
        let mut machine = LaneMachine::new(stage.tape, program, lane_faults.collect(), &entry);
        let buffer_words = machine.buffer_words();

        let width = stage.tape.width;
        let planes = stage.tape.outputs.len() * width;
        let mut input = vec![0u64; width];
        // `live[k]`: the fault of word `k` while it is undetected.
        let mut live: Vec<Option<FaultId>> = faults.iter().copied().map(Some).collect();
        let mut detections: Vec<(FaultId, u32)> = Vec::new();
        let (first, last) = (stage.start / 64, (stage.end - 1) / 64);
        let (mut blocks, mut patched_ops) = (0u64, 0u64);
        for block in first..=last {
            let base = 64 * block;
            let entry_lane = stage.start.max(base) - base;
            let stage_lanes = (!0u64 << entry_lane) & (!0u64 >> (64 - (stage.end - base).min(64)));
            input_planes(stage.inputs, block as usize, &mut input);
            machine.run_block(&input, stage.trace.block_row(base).0, entry_lane);
            blocks += 1;
            patched_ops += machine.patched_ops() as u64;
            let good = &stage.good_outputs[(block - first) as usize * planes..][..planes];
            for (k, slot) in live.iter_mut().enumerate() {
                let Some(fid) = *slot else { continue };
                let diff = machine.output_diff(k, good) & stage_lanes;
                if diff != 0 {
                    detections.push((fid, base + diff.trailing_zeros()));
                    *slot = None;
                }
            }
            let remaining = live.iter().filter(|f| f.is_some()).count();
            if remaining == 0 {
                break;
            }
            // The survivors' states come from the last block's planes,
            // so the machine narrows only between blocks.
            if block < last && remaining <= machine.words() / 2 {
                let keep: Vec<usize> = (0..live.len()).filter(|&k| live[k].is_some()).collect();
                machine.retain(&keep);
                live.retain(Option::is_some);
            }
        }
        let lane = (stage.end - 1) % 64;
        let survivors = live
            .iter()
            .enumerate()
            .filter_map(|(k, fid)| fid.map(|fid| (k, fid)))
            .map(|(k, fid)| {
                (fid, MachineState { regs: machine.state(k, lane, stage.good_end), misr: 0 })
            })
            .collect();
        if let (Some(m), Some(t)) = (metrics, started) {
            m.histogram("faultsim.shard_ms").record(t.elapsed().as_secs_f64() * 1000.0);
            m.counter("faultsim.cycle_lane_blocks").add(blocks);
            m.counter("faultsim.ops_executed").add(program.op_count() as u64 * blocks);
            m.counter("faultsim.tape_ops").add(stage.tape.op_count() as u64 * blocks);
            m.counter("faultsim.patched_ops").add(patched_ops);
            m.histogram("faultsim.group_buffer_words").record(buffer_words as f64);
        }
        ShardOutcome { detections, survivors }
    }

    /// A shard's faults with their nodes, slot `i` on lane `i + 1`.
    fn shard_faults<'s>(
        &'s self,
        shard: &'s [FaultId],
    ) -> impl Iterator<Item = (rtl::NodeId, CellFault)> + 's {
        shard.iter().enumerate().map(|(slot, &fid)| {
            let site = self.universe.site(fid);
            (site.node, CellFault { cell: site.cell, fault: site.representative, lanes: 2 << slot })
        })
    }

    /// The [`SimEngine::Walker`] reference: every 63-fault shard on its
    /// own graph walker over the whole test, with no stages, repacking
    /// or merging. In compare mode a shard stops once every lane is
    /// detected; in signature mode it folds every cycle into a per-lane
    /// MISR bank and plays the test out.
    fn run_reference(&self, inputs: &[i64]) -> FaultSimResult {
        let new_bank = |cfg: SignatureConfig| {
            MisrBank::with_polynomial(cfg.width, cfg.poly)
                .expect("signature width validated by the session layer")
        };
        // The fault-free machine on its own walker.
        let outputs = self.netlist.output_ids();
        let mut good_response = self.good_response_of(|| Vec::with_capacity(inputs.len()));
        let mut good_bank = self.options.signature.map(new_bank);
        let mut good_sim = BitSlicedSim::new(self.netlist);
        for &x in inputs {
            good_sim.step(x);
            for (response, &out) in good_response.iter_mut().flatten().zip(&outputs) {
                response.push(good_sim.lane_value(out, 0));
            }
            if let Some(bank) = good_bank.as_mut() {
                good_sim.fold_outputs(bank);
            }
        }
        let mut detection: Vec<Option<u32>> = vec![None; self.universe.len()];
        let mut signatures = good_bank.map(|bank| SignatureSet {
            good: bank.lane_signature(0),
            per_fault: vec![0; self.universe.len()],
        });
        let ids: Vec<FaultId> = self.universe.ids().collect();
        for shard in ids.chunks(LANES_PER_PASS) {
            // The walker takes its faults batched per node.
            let mut per_node: HashMap<rtl::NodeId, Vec<CellFault>> = HashMap::new();
            for (node, fault) in self.shard_faults(shard) {
                per_node.entry(node).or_default().push(fault);
            }
            let mut sim = BitSlicedSim::new(self.netlist);
            for (node, faults) in per_node {
                sim.set_faults(node, faults);
            }
            let mut bank = self.options.signature.map(new_bank);
            let mut undetected = fault_lanes(shard);
            for (cycle, &x) in inputs.iter().enumerate() {
                sim.step(x);
                if let Some(bank) = bank.as_mut() {
                    sim.fold_outputs(bank);
                }
                let mut diff = sim.output_diff_lanes(0) & undetected;
                undetected &= !diff;
                while diff != 0 {
                    let lane = diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    detection[shard[lane - 1].index()] = Some(cycle as u32);
                }
                if undetected == 0 && bank.is_none() {
                    break;
                }
            }
            if let (Some(sigs), Some(bank)) = (signatures.as_mut(), bank) {
                for (slot, &fid) in shard.iter().enumerate() {
                    sigs.per_fault[fid.index()] = bank.lane_signature(slot as u32 + 1);
                }
            }
        }
        FaultSimResult {
            detection_cycle: detection,
            total_cycles: inputs.len() as u32,
            signatures,
            good_response: good_response.map(Into::into),
        }
    }
}

/// Runs `run(i)` for every `i < count` on up to `threads` scoped
/// workers and returns the results in index order. Workers pull indices
/// from a shared counter, so a straggler cannot serialize the stage.
fn dispatch<T: Send>(threads: usize, count: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads.min(count);
    if workers <= 1 {
        return (0..count).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    local.push((i, run(i)));
                }
                collected.lock().expect("no panics hold the lock").extend(local);
            });
        }
    });
    let mut indexed = collected.into_inner().expect("workers joined");
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, outcome)| outcome).collect()
}

/// The lanes a shard's faults occupy: lanes `1..=shard.len()`.
fn fault_lanes(shard: &[FaultId]) -> u64 {
    ((1u64 << shard.len()) - 1) << 1
}

/// Where the fault-free output words go: into the good MISR in
/// signature mode, into the good response in compare mode.
struct GoodOutputs {
    misr: Option<Misr>,
    response: Option<Vec<Vec<i64>>>,
}

impl GoodOutputs {
    /// Consumes the trace's output words of every cycle before `end`
    /// not yet taken, each cycle's outputs in [`Netlist::output_ids`]
    /// order — what a scalar [`Misr`] on the good response reads.
    fn take(&mut self, trace: &mut GoodTrace<'_>, end: u32) {
        trace.take_outputs(end, |o, v| {
            if let Some(misr) = self.misr.as_mut() {
                misr.absorb(v);
            }
            if let Some(response) = self.response.as_mut() {
                response[o].push(v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::NEVER;
    use crate::fault::FaultUniverse;
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::{Netlist, NetlistBuilder};

    fn filterish(width: u32) -> Netlist {
        // Three-tap FIR-ish structure with shifts and a subtractor.
        let mut b = NetlistBuilder::new(width).unwrap();
        let x = b.input("x");
        let t0 = b.shift_right(x, 1);
        let d1 = b.register(x);
        let t1 = b.shift_right(d1, 2);
        let a1 = b.add_labeled(t0, t1, "a1");
        let d2 = b.register(d1);
        let t2 = b.shift_right(d2, 3);
        let a2 = b.sub_labeled(a1, t2, "a2");
        b.output(a2, "y");
        b.finish().unwrap()
    }

    /// A delay line below a faulted adder: `a` feeds register `p1`,
    /// which feeds register `p2` (a register-fed register), which feeds
    /// the output adder.
    fn delay_chain() -> Netlist {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let a = b.add_labeled(x, d, "a");
        let p1 = b.register(a);
        let p2 = b.register(p1);
        let y = b.add_labeled(p2, x, "y");
        b.output(y, "y");
        b.finish().unwrap()
    }

    fn universe(n: &Netlist) -> FaultUniverse {
        let r = RangeAnalysis::analyze(n, aligned_input_range(n.width(), n.width()));
        FaultUniverse::enumerate(n, &r)
    }

    fn pseudo_inputs(n: usize, width: u32) -> Vec<i64> {
        let mut rng = testkit::Rng::new(0x0123_4567_89AB_CDEF);
        (0..n).map(|_| rng.signed(width)).collect()
    }

    #[test]
    fn repacking_preserves_detection_times() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(120, 10);
        let one_stage = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![]))
            .run(&inputs);
        let many_stages = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![8, 16, 32, 64]))
            .run(&inputs);
        assert_eq!(one_stage.detection_cycles(), many_stages.detection_cycles());
    }

    #[test]
    fn most_faults_detected_by_random_patterns() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(512, 12);
        let result = ParallelFaultSimulator::new(&n, &u).run(&inputs);
        let coverage = result.coverage_after(512);
        assert!(coverage > 0.9, "coverage {coverage}");
    }

    #[test]
    fn coverage_is_monotone_in_test_length() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(256, 12);
        let result = ParallelFaultSimulator::new(&n, &u).run(&inputs);
        let mut prev = 0.0;
        for c in [1u32, 4, 16, 64, 256] {
            let cov = result.coverage_after(c);
            assert!(cov >= prev);
            prev = cov;
        }
    }

    #[test]
    fn empty_inputs_detect_nothing() {
        let n = filterish(10);
        let u = universe(&n);
        let result = ParallelFaultSimulator::new(&n, &u).run(&[]);
        assert_eq!(result.detected_count(), 0);
        assert_eq!(result.missed().len(), u.len());
    }

    #[test]
    fn missed_after_interpolates_curve() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(64, 10);
        let result = ParallelFaultSimulator::new(&n, &u).run(&inputs);
        assert_eq!(result.missed_after(0), u.len());
        assert_eq!(result.missed_after(64), result.missed().len());
        let curve = result.curve(&[0, 16, 64]);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].1, 0.0);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn bad_schedule_panics() {
        StageSchedule::with_boundaries(vec![64, 64]);
    }

    #[test]
    fn instrumentation_observes_without_changing_results() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let plain = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .with_threads(2)
            .run(&inputs);

        let registry = Arc::new(Registry::new());
        let metered = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .with_threads(2)
            .with_metrics(Arc::clone(&registry))
            .run(&inputs);
        assert_eq!(plain.detection_cycles(), metered.detection_cycles());
        assert_eq!(plain.good_response(), metered.good_response());

        let s = registry.snapshot();
        let stages = s.counters["faultsim.stages"];
        assert!(
            (1..=3).contains(&stages),
            "16/48 boundaries over 150 cycles give at most 3 stages, got {stages}"
        );
        assert!(s.counters["faultsim.shards"] >= stages, "one shard minimum per stage");
        // Shards and groups are counted as the fault-lane scheduler packs
        // each stage's survivors, dormant ones included, whichever
        // executor ran the stage. A stage simulates only the survivors
        // activated before its end. Every stage after the first is small
        // enough to run cycle-lane here, in machines of up to 16 faults.
        let per_stage = |what: &str| -> Vec<u64> {
            (0..stages).map(|i| s.counters[&format!("faultsim.stage{i}.{what}")]).collect()
        };
        let (survivors, simulated) = (per_stage("survivors"), per_stage("simulated"));
        assert_eq!(survivors[0], u.len() as u64);
        assert!(simulated.iter().zip(&survivors).all(|(sim, all)| sim <= all), "{simulated:?}");
        let shards = |faults: u64| faults.div_ceil(LANES_PER_PASS as u64);
        let groups = |faults: u64| shards(faults).div_ceil(KERNEL_WORDS as u64);
        assert_eq!(s.counters["faultsim.shards"], survivors.iter().map(|&f| shards(f)).sum());
        assert_eq!(s.counters["faultsim.groups"], survivors.iter().map(|&f| groups(f)).sum());
        // A never-activated fault survives every stage dormant, so the
        // last stage leaves exactly those dormant.
        let last = stages as usize - 1;
        let never = s.counters["faultsim.never_activated"];
        assert_eq!(survivors[last] - simulated[last], never, "{survivors:?} {simulated:?}");
        let tail = &simulated[1..];
        assert!(tail.iter().sum::<u64>() > 0, "some fault survives the first stage");
        assert_eq!(s.counters["faultsim.cycle_lane_faults"], tail.iter().sum());
        let machines: u64 = tail.iter().map(|&f| f.div_ceil(KERNEL_WORDS as u64)).sum();
        assert_eq!(s.counters["faultsim.cycle_lane_machines"], machines);
        // A machine runs at most every block its stage touches: the
        // 16..48 and 48..150 stages touch 1 and 3 blocks.
        let blocks = s.counters["faultsim.cycle_lane_blocks"];
        assert!(machines <= blocks && blocks <= 3 * machines, "{blocks} blocks");
        assert_eq!(
            s.counters["faultsim.faults_detected"] + s.counters["faultsim.faults_undetected"],
            u.len() as u64
        );
        assert_eq!(s.counters["faultsim.faults_detected"], metered.detected_count() as u64);
        // Every stage span recorded, shard and merge latencies sampled.
        for stage in 0..stages {
            assert_eq!(
                s.spans.iter().filter(|sp| sp.name == format!("faultsim.stage{stage}")).count(),
                1
            );
        }
        // The dispatch-latency histogram samples once per machine
        // dispatch — a fault-lane group of shards or a cycle-lane
        // machine — so it tracks those counters, not the shard one.
        let dispatches = groups(simulated[0]) + machines;
        assert_eq!(s.histograms["faultsim.shard_ms"].count, dispatches);
        assert!(s.counters["faultsim.groups"] <= s.counters["faultsim.shards"]);
        assert_eq!(s.histograms["faultsim.merge_ms"].count, stages);
        // Kernel counters: cone-restricted groups execute a fraction of
        // the full-tape equivalent, and every group replays patches.
        let (executed, tape_ops) =
            (s.counters["faultsim.ops_executed"], s.counters["faultsim.tape_ops"]);
        assert!(0 < executed && executed <= tape_ops, "{executed} of {tape_ops} ops");
        let ops_per_cycle = Tape::compile(&n).op_count() as u64;
        assert_eq!(tape_ops % ops_per_cycle, 0, "whole tapes per group-cycle");
        let patched = s.counters["faultsim.patched_ops"];
        assert!(0 < patched && patched <= executed, "{patched} patched of {executed}");
        // Its only registers are fed by the input, which no cone
        // latches; each group's buffer holds its cone, at most the tape.
        assert_eq!(s.counters["faultsim.latch_copies"], 0);
        let buffers = &s.histograms["faultsim.group_buffer_words"];
        assert_eq!(buffers.count, dispatches);
        let tape_words = (Tape::compile(&n).slot_count() * KERNEL_WORDS) as f64;
        assert!(0.0 < buffers.min && buffers.max <= tape_words, "{buffers:?}");

        // The same identity in signature mode, with the counters too.
        let signature = |metrics: Option<Arc<Registry>>| {
            let mut options = SimOptions::new()
                .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
                .with_threads(2)
                .with_signature(SIG16);
            if let Some(m) = metrics {
                options = options.with_metrics(m);
            }
            ParallelFaultSimulator::new(&n, &u).with_options(options).run(&inputs)
        };
        let registry = Arc::new(Registry::new());
        let (plain, metered) = (signature(None), signature(Some(Arc::clone(&registry))));
        assert_eq!(plain.detection_cycles(), metered.detection_cycles());
        assert_eq!(plain.signatures(), metered.signatures());
        assert_eq!(plain.good_response(), metered.good_response());
        let s = registry.snapshot();
        assert!(s.counters["faultsim.ops_executed"] <= s.counters["faultsim.tape_ops"]);
        assert!(s.counters["faultsim.patched_ops"] > 0);
        // Signature mode keeps every fault and stays fault-lane.
        assert_eq!(s.counters["faultsim.stage1.survivors"], u.len() as u64);
        assert!(s.counters["faultsim.stage1.simulated"] <= u.len() as u64);
        assert!(!s.counters.contains_key("faultsim.cycle_lane_faults"));

        // A delay line below a faulted adder: the first register reads
        // its adder's double-buffered sum for free, the second (fed by
        // a register) costs one plane copy per bit and group-step. In
        // signature mode nothing drops, so every group holds `a`.
        let chain = delay_chain();
        let chain_universe = universe(&chain);
        let chain_inputs = pseudo_inputs(150, 8);
        let run_chain = |metrics: Option<Arc<Registry>>| {
            let mut options = SimOptions::new()
                .with_schedule(StageSchedule::with_boundaries(vec![16, 49]))
                .with_threads(2)
                .with_signature(SIG16);
            if let Some(m) = metrics {
                options = options.with_metrics(m);
            }
            ParallelFaultSimulator::new(&chain, &chain_universe)
                .with_options(options)
                .run(&chain_inputs)
        };
        let registry = Arc::new(Registry::new());
        let (plain, metered) = (run_chain(None), run_chain(Some(Arc::clone(&registry))));
        assert_eq!(plain.detection_cycles(), metered.detection_cycles());
        assert_eq!(plain.signatures(), metered.signatures());
        let s = registry.snapshot();
        let group_steps = s.counters["faultsim.tape_ops"] / Tape::compile(&chain).op_count() as u64;
        assert_eq!(s.counters["faultsim.latch_copies"], 8 * group_steps);
        // One machine per group of simulated shards.
        let dispatched: u64 = (0..s.counters["faultsim.stages"])
            .map(|i| groups(s.counters[&format!("faultsim.stage{i}.simulated")]))
            .sum();
        assert_eq!(s.histograms["faultsim.group_buffer_words"].count, dispatched);
    }

    #[test]
    fn cycle_lane_tails_match_the_walker_at_every_entry_lane() {
        // Stages that open on the first, last and middle lanes of a
        // block, and stages shorter than a block, on a delay line below
        // a faulted adder and on the filter: the cycle-lane tail must
        // give the walker's detection map at 1 and 2 threads, and every
        // survivor of the first stage runs cycle-lane.
        let inputs = pseudo_inputs(300, 8);
        let mut cycle_lane_faults = 0;
        for n in [delay_chain(), filterish(8)] {
            let u = universe(&n);
            let walker = ParallelFaultSimulator::new(&n, &u)
                .with_options(SimOptions::new().with_engine(SimEngine::Walker))
                .run(&inputs);
            for boundaries in [vec![1, 2, 3], vec![63, 64, 65, 200], vec![5, 70, 127, 128, 191]] {
                for threads in [1, 2] {
                    let registry = Arc::new(Registry::new());
                    let options = SimOptions::new()
                        .with_schedule(StageSchedule::with_boundaries(boundaries.clone()))
                        .with_threads(threads)
                        .with_metrics(Arc::clone(&registry));
                    let result =
                        ParallelFaultSimulator::new(&n, &u).with_options(options).run(&inputs);
                    let tag = format!("{boundaries:?} threads={threads}");
                    assert_eq!(result.detection_cycles(), walker.detection_cycles(), "{tag}");
                    let counters = registry.snapshot().counters;
                    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
                    let tail: u64 = (1..count("faultsim.stages"))
                        .map(|i| count(&format!("faultsim.stage{i}.simulated")))
                        .sum();
                    assert_eq!(count("faultsim.cycle_lane_faults"), tail, "{tag}");
                    cycle_lane_faults += tail;
                }
            }
        }
        assert!(cycle_lane_faults > 0, "no stage ran cycle-lane");
    }

    #[test]
    fn empty_run_still_reports_totals() {
        let n = filterish(10);
        let u = universe(&n);
        let registry = Arc::new(Registry::new());
        let result =
            ParallelFaultSimulator::new(&n, &u).with_metrics(Arc::clone(&registry)).run(&[]);
        assert_eq!(result.detected_count(), 0);
        let s = registry.snapshot();
        assert_eq!(s.counters["faultsim.faults_detected"], 0);
        assert_eq!(s.counters["faultsim.faults_undetected"], u.len() as u64);
    }

    #[test]
    fn pre_cancelled_token_stops_at_the_first_boundary() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let token = CancelToken::new();
        token.cancel();
        let err = ParallelFaultSimulator::new(&n, &u)
            .with_options(SimOptions::new().with_cancel(token))
            .try_run(&inputs)
            .unwrap_err();
        assert_eq!(err.at_cycle, 0);
        assert!(err.to_string().contains("cycle 0"), "{err}");
    }

    #[test]
    fn deadline_cancels_between_stages() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(512, 10);
        // Already-expired deadline: the run must stop at some boundary
        // of the many-stage schedule without an explicit cancel().
        let token = CancelToken::new().with_deadline(Instant::now());
        assert!(token.deadline_exceeded());
        let registry = Arc::new(Registry::new());
        let err = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_cancel(token)
                    .with_metrics(Arc::clone(&registry))
                    .with_schedule(StageSchedule::with_boundaries(vec![8, 16, 32, 64, 128, 256])),
            )
            .try_run(&inputs)
            .unwrap_err();
        assert_eq!(err.at_cycle, 0);
        assert_eq!(registry.snapshot().counters["faultsim.cancelled_runs"], 1);
    }

    #[test]
    fn uncancelled_token_does_not_change_results() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let plain = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .run(&inputs);
        let token = CancelToken::new();
        let watched = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
                    .with_cancel(token.clone()),
            )
            .try_run(&inputs)
            .unwrap();
        assert_eq!(plain.detection_cycles(), watched.detection_cycles());
        assert!(!token.is_cancelled());
    }

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(!b.deadline_exceeded(), "no deadline was attached");
    }

    /// The workspace's tabulated 16-bit primitive polynomial
    /// (`x^16 + x^12 + x^3 + x + 1`), restated here so these tests pin
    /// concrete hardware rather than a table lookup.
    const SIG16: SignatureConfig = SignatureConfig { width: 16, poly: 0x1100B };

    #[test]
    fn signature_mode_keeps_detection_cycles_bit_identical() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let compare = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .run(&inputs);
        let signature = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
                    .with_signature(SIG16),
            )
            .run(&inputs);
        assert_eq!(compare.detection_cycles(), signature.detection_cycles());
        assert!(compare.signatures().is_none());
        assert!(compare.aliased().is_empty());
        assert!(signature.signatures().is_some());
    }

    #[test]
    fn signature_verdicts_invariant_across_threads_and_schedules() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let reference = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![]))
                    .with_threads(1)
                    .with_signature(SIG16),
            )
            .run(&inputs);
        let ref_sigs = reference.signatures().unwrap();
        for (threads, boundaries) in
            [(2usize, vec![16u32, 48]), (3, vec![1, 2, 3]), (8, vec![64]), (4, vec![8, 16, 32, 64])]
        {
            let result = ParallelFaultSimulator::new(&n, &u)
                .with_options(
                    SimOptions::new()
                        .with_schedule(StageSchedule::with_boundaries(boundaries.clone()))
                        .with_threads(threads)
                        .with_signature(SIG16),
                )
                .run(&inputs);
            assert_eq!(
                result.detection_cycles(),
                reference.detection_cycles(),
                "threads={threads} boundaries={boundaries:?}"
            );
            assert_eq!(
                result.signatures().unwrap(),
                ref_sigs,
                "threads={threads} boundaries={boundaries:?}"
            );
        }
    }

    #[test]
    fn one_bit_misr_aliases_and_is_reported_not_dropped() {
        // A 1-bit MISR (poly x + 1: state ^= msb ^ word) aliases with
        // probability ~1/2 per detected fault — the degenerate register
        // makes escapes certain to appear, and every one of them must
        // be reported as compare-detected-but-aliased.
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(256, 12);
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(SimOptions::new().with_signature(SignatureConfig { width: 1, poly: 1 }))
            .run(&inputs);
        let aliased = result.aliased();
        assert!(!aliased.is_empty(), "a 1-bit signature cannot separate hundreds of faults");
        for fid in &aliased {
            assert!(
                result.detection_cycles()[fid.index()].is_some(),
                "aliasing is only meaningful for compare-detected faults"
            );
        }
        assert_eq!(result.signature_detected_count(), result.detected_count() - aliased.len());
    }

    #[test]
    fn sixteen_bit_misr_has_no_aliasing_on_this_circuit() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(256, 12);
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(SimOptions::new().with_signature(SIG16))
            .run(&inputs);
        assert_eq!(result.aliased(), Vec::new());
        assert_eq!(result.signature_detected_count(), result.detected_count());
    }

    #[test]
    fn signature_metrics_count_aliased_faults() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(100, 10);
        let registry = Arc::new(Registry::new());
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_metrics(Arc::clone(&registry))
                    .with_signature(SignatureConfig { width: 1, poly: 1 }),
            )
            .run(&inputs);
        let s = registry.snapshot();
        assert_eq!(s.counters["faultsim.faults_aliased"], result.aliased().len() as u64);
    }

    #[test]
    fn empty_signature_run_reports_reset_signatures() {
        let n = filterish(10);
        let u = universe(&n);
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(SimOptions::new().with_signature(SIG16))
            .run(&[]);
        let sigs = result.signatures().unwrap();
        assert_eq!(sigs.good, 0);
        assert_eq!(sigs.per_fault, vec![0; u.len()]);
        assert!(result.aliased().is_empty(), "undetected faults never count as aliased");
    }

    #[test]
    fn empty_universe_still_reports_the_good_signature() {
        // No faults but a real test: the fault-free signature is the
        // scalar MISR over the good response, not the reset state.
        let n = filterish(10);
        let u = universe(&n).subset(&[]);
        let inputs = pseudo_inputs(100, 10);
        let good = crate::inject::probe_node(&n, n.output_ids()[0], &inputs);
        let mut misr = rtl::misr::Misr::with_polynomial(SIG16.width, SIG16.poly).unwrap();
        misr.absorb_all(&good);
        assert_ne!(misr.signature(), 0);
        for engine in [SimEngine::Kernel, SimEngine::Walker] {
            let result = ParallelFaultSimulator::new(&n, &u)
                .with_options(SimOptions::new().with_signature(SIG16).with_engine(engine))
                .run(&inputs);
            assert_eq!(result.good_signature(), Some(misr.signature()), "{engine:?}");
            assert_eq!(result.signatures().unwrap().per_fault, Vec::<u64>::new());
            assert_eq!(result.good_response(), None, "{engine:?}");
        }
    }

    #[test]
    fn never_activated_faults_end_with_the_good_signature() {
        // A constant stimulus shows each cell one combination, so many
        // faults are never activated and never simulated; their
        // signature is the good one, which is not the reset state.
        let n = filterish(10);
        let u = universe(&n);
        let inputs = vec![0x135; 150];
        let tape = Tape::compile(&n);
        let index = ConeIndex::new(&n, &tape, &u);
        let program = LaneProgram::compile(&index, &Cone::full(&tape));
        let first = crate::activation::first_activations(&tape, &program, &u, &inputs);
        let never: Vec<usize> = (0..u.len()).filter(|&i| first[i] == NEVER).collect();
        assert!(!never.is_empty() && never.len() < u.len(), "{} of {}", never.len(), u.len());
        let options = SimOptions::new()
            .with_schedule(StageSchedule::with_boundaries(vec![16, 67]))
            .with_signature(SIG16);
        let registry = Arc::new(Registry::new());
        let kernel = ParallelFaultSimulator::new(&n, &u)
            .with_options(options.clone().with_threads(2).with_metrics(Arc::clone(&registry)))
            .run(&inputs);
        let sigs = kernel.signatures().unwrap();
        assert_ne!(sigs.good, 0, "the good signature is not the reset state");
        for &i in &never {
            assert_eq!(sigs.per_fault[i], sigs.good, "{}", u.sites()[i]);
            assert_eq!(kernel.detection_cycles()[i], None);
        }
        let s = registry.snapshot();
        assert_eq!(s.counters["faultsim.never_activated"], never.len() as u64);
        assert_eq!(s.histograms["faultsim.activation_ms"].count, 1);
        let walker = ParallelFaultSimulator::new(&n, &u)
            .with_options(options.with_engine(SimEngine::Walker))
            .run(&inputs);
        assert_eq!(kernel.signatures(), walker.signatures());
        assert_eq!(kernel.detection_cycles(), walker.detection_cycles());
    }

    #[test]
    fn good_response_is_the_fault_free_output_stream() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(200, 12);
        let good = crate::inject::probe_node(&n, n.output_ids()[0], &inputs);
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .run(&inputs);
        assert_eq!(result.good_response(), Some(&[good][..]));
        let empty = ParallelFaultSimulator::new(&n, &u).run(&[]);
        assert_eq!(empty.good_response(), Some(&[vec![]][..]));
        let signature = SimOptions::new().with_signature(SIG16);
        assert_eq!(
            ParallelFaultSimulator::new(&n, &u)
                .with_options(signature)
                .run(&inputs)
                .good_response(),
            None,
            "signature mode folds the response instead of keeping it"
        );
    }

    #[test]
    fn stages_skip_empty_spans_and_cap_long_ones() {
        let cap = MAX_STAGE_CYCLES;
        assert_eq!(StageSchedule::with_boundaries(vec![0, 16]).stages(40), [(0, 16), (16, 40)]);
        assert_eq!(
            StageSchedule::new().stages(2 * cap + 1100),
            [(0, 64), (64, 256), (256, 1024), (1024, cap + 1024), (cap + 1024, 2 * cap + 1024)]
                .into_iter()
                .chain([(2 * cap + 1024, 2 * cap + 1100)])
                .collect::<Vec<_>>()
        );
        assert_eq!(StageSchedule::with_boundaries(vec![]).stages(cap), [(0, cap)]);
        assert!(StageSchedule::new().stages(0).is_empty());
        // A boundary at cycle 0 opens no stage.
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(40, 10);
        let run = |boundaries: Vec<u32>| {
            ParallelFaultSimulator::new(&n, &u)
                .with_options(
                    SimOptions::new()
                        .with_schedule(StageSchedule::with_boundaries(boundaries))
                        .with_signature(SIG16),
                )
                .run(&inputs)
        };
        let (zero, plain) = (run(vec![0, 16]), run(vec![16]));
        assert_eq!(zero.detection_cycles(), plain.detection_cycles());
        assert_eq!(zero.signatures(), plain.signatures());
    }

    #[test]
    fn a_long_single_stage_keeps_a_capped_trace_window() {
        // One schedule stage over two caps plus 100 cycles runs as three
        // stages whose trace windows hold 64, 64 and 2 blocks of the
        // same boundary slots (signature mode keeps every fault, so
        // every stage has the same groups) — never the whole test.
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(2 * MAX_STAGE_CYCLES as usize + 100, 10);
        let options = SimOptions::new()
            .with_schedule(StageSchedule::with_boundaries(vec![]))
            .with_signature(SIG16);
        let registry = Arc::new(Registry::new());
        let kernel = ParallelFaultSimulator::new(&n, &u)
            .with_options(options.clone().with_metrics(Arc::clone(&registry)))
            .run(&inputs);
        let s = registry.snapshot();
        assert_eq!(s.counters["faultsim.stages"], 3);
        let words = &s.histograms["faultsim.trace_words"];
        assert_eq!(words.count, 3);
        assert!(words.max > 0.0);
        assert_eq!(words.max * 130.0, words.sum * 64.0, "windows of 64, 64 and 2 blocks");
        let walker = ParallelFaultSimulator::new(&n, &u)
            .with_options(options.with_engine(SimEngine::Walker))
            .run(&inputs);
        assert_eq!(kernel.detection_cycles(), walker.detection_cycles());
        assert_eq!(kernel.signatures(), walker.signatures());
    }

    #[test]
    fn options_resolve_thread_count() {
        assert_eq!(SimOptions::new().with_threads(3).effective_threads(), 3);
        assert!(SimOptions::new().effective_threads() >= 1);
        let opts = SimOptions::new()
            .with_schedule(StageSchedule::with_boundaries(vec![8]))
            .with_threads(2);
        assert_eq!(opts.threads(), 2);
        assert_eq!(opts.schedule(), &StageSchedule::with_boundaries(vec![8]));
        assert_eq!(opts.schedule().clone().into_boundaries(), vec![8]);
        assert_eq!(StageSchedule::new().into_boundaries(), vec![64, 256, 1024]);
    }

    /// The engine-agreement cases: the 12-bit filter's universe, then
    /// subsets of the 24-bit filter's whose last stage-0 group is each
    /// width from 1 to 16 shards: the first `63 (w - 1) + w` faults, so
    /// a `w`-shard group's last shard holds `w` faults. Every width but
    /// 1, 2, 4, 8 and 16 runs on a padded machine.
    fn width_cases() -> Vec<(Netlist, FaultUniverse)> {
        let n = filterish(12);
        let u = universe(&n);
        let mut cases = vec![(n, u)];
        let wide = universe(&filterish(24));
        let ids: Vec<FaultId> = wide.ids().collect();
        let widest = LANES_PER_PASS * (KERNEL_WORDS - 1) + KERNEL_WORDS;
        assert!(ids.len() >= widest, "{} faults fill no 16-shard group", ids.len());
        cases.extend(
            (1..=KERNEL_WORDS)
                .map(|w| (filterish(24), wide.subset(&ids[..LANES_PER_PASS * (w - 1) + w]))),
        );
        cases
    }

    #[test]
    fn engines_agree_in_compare_mode() {
        for (n, u) in width_cases() {
            let inputs = pseudo_inputs(192, n.width());
            let run = |engine, threads| {
                ParallelFaultSimulator::new(&n, &u)
                    .with_options(
                        SimOptions::new()
                            .with_engine(engine)
                            .with_schedule(StageSchedule::with_boundaries(vec![64, 128]))
                            .with_threads(threads),
                    )
                    .run(&inputs)
            };
            let walker = run(SimEngine::Walker, 1);
            for threads in [1, 2] {
                let kernel = run(SimEngine::Kernel, threads);
                let tag = format!("{} faults, {threads} threads", u.len());
                assert_eq!(kernel.detection_cycle, walker.detection_cycle, "{tag}");
                assert_eq!(kernel.total_cycles, walker.total_cycles, "{tag}");
            }
        }
    }

    #[test]
    fn engines_agree_in_signature_mode() {
        for (n, u) in width_cases() {
            let inputs = pseudo_inputs(192, n.width());
            let run = |engine, threads| {
                ParallelFaultSimulator::new(&n, &u)
                    .with_options(
                        SimOptions::new()
                            .with_engine(engine)
                            .with_schedule(StageSchedule::with_boundaries(vec![96]))
                            .with_threads(threads)
                            .with_signature(SIG16),
                    )
                    .run(&inputs)
            };
            let walker = run(SimEngine::Walker, 1);
            for threads in [1, 2] {
                let kernel = run(SimEngine::Kernel, threads);
                let tag = format!("{} faults, {threads} threads", u.len());
                assert_eq!(kernel.detection_cycle, walker.detection_cycle, "{tag}");
                assert_eq!(kernel.signatures(), walker.signatures(), "{tag}");
                assert_eq!(kernel.aliased(), walker.aliased(), "{tag}");
            }
        }
    }
}
