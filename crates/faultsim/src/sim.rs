use crate::fault::{FaultId, FaultUniverse};
use crate::kernel::{KernelSim, Tape};
use obs::Registry;
use rtl::misr::MisrBank;
use rtl::sim::{BitSlicedSim, CellFault};
use rtl::Netlist;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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

/// Staged fault-dropping schedule: simulation restarts lane packing at
/// each boundary, carrying every surviving faulty machine's register
/// state across. Early stages are short so the bulk of (easy) faults is
/// dropped after few cycles; only the hard tail pays for the full test
/// length.
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

    /// Stage extents `(start, end)` for a test of `total` cycles.
    fn stages(&self, total: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut start = 0u32;
        for &b in self.boundaries.iter().filter(|&&b| b < total) {
            out.push((start, b));
            start = b;
        }
        if start < total {
            out.push((start, total));
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
    /// tape ([`crate::kernel::KernelSim`]).
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
    /// spans (`faultsim.stage<i>`), per-shard and merge latency
    /// histograms (`faultsim.shard_ms`, `faultsim.merge_ms`) and
    /// stage/shard/fault counters into it. Purely observational:
    /// detection results are bit-identical with and without metrics.
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
        FaultSimResult { detection_cycle, total_cycles: self.total_cycles, signatures }
    }
}

/// One faulty machine's carried state at a stage boundary: its
/// register snapshot plus, in signature mode, its partially
/// accumulated MISR state.
struct MachineState {
    regs: Vec<u64>,
    misr: u64,
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
/// shards share one multi-word [`KernelSim`] machine, and groups are
/// distributed over a scoped worker pool (see
/// [`SimOptions::with_threads`]). Per-shard state is merged at
/// every stage boundary, and results are bit-identical at any thread
/// count.
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
        let mut detection: Vec<Option<u32>> = vec![None; self.universe.len()];
        if self.universe.is_empty() || total == 0 {
            // Nothing absorbed: every signature is the zero reset state.
            let signatures = self
                .options
                .signature
                .map(|_| SignatureSet { good: 0, per_fault: vec![0; self.universe.len()] });
            let result =
                FaultSimResult { detection_cycle: detection, total_cycles: total, signatures };
            Self::record_totals(metrics, &result);
            return Ok(result);
        }
        if self.options.engine == SimEngine::Walker {
            let result = self.run_reference(inputs);
            Self::record_totals(metrics, &result);
            return Ok(result);
        }
        let threads = self.options.effective_threads().max(1);

        // The netlist is compiled once; the immutable tape is shared by
        // the good machine and every shard on every thread.
        let tape = &Tape::compile(self.netlist);

        // Good-machine register state at the start of the current stage,
        // and (in signature mode) its response-compacting MISR. All 64
        // lanes of `good_sim` are fault-free copies, so lane 0 of its
        // bank is the fault-free signature — computed by the exact
        // word-parallel code path the shards use.
        let mut good_sim = KernelSim::new(tape);
        let mut good = MachineState { regs: good_sim.register_state_lane(0), misr: 0 };
        let mut good_bank = self.options.signature.map(|cfg| {
            MisrBank::with_polynomial(cfg.width, cfg.poly)
                .expect("signature width validated by the session layer")
        });

        // Surviving faults and their machine states at stage start.
        let mut active: Vec<FaultId> = self.universe.ids().collect();
        let mut states: HashMap<FaultId, MachineState> = HashMap::new();

        for (stage_index, (start, end)) in
            self.options.schedule.stages(total).into_iter().enumerate()
        {
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
            let shards: Vec<&[FaultId]> = active.chunks(LANES_PER_PASS).collect();
            let groups: Vec<&[&[FaultId]]> = shards.chunks(KERNEL_WORDS).collect();
            let workers = threads.min(groups.len());
            if let Some(m) = metrics {
                m.counter("faultsim.stages").inc();
                m.counter("faultsim.shards").add(shards.len() as u64);
                m.counter("faultsim.groups").add(groups.len() as u64);
            }

            let outcomes: Vec<ShardOutcome> = if workers <= 1 {
                let out = groups
                    .iter()
                    .map(|g| self.simulate_shard_group(tape, g, &good, &states, inputs, start, end))
                    .collect();
                for cycle in start..end {
                    good_sim.step(inputs[cycle as usize]);
                    if let Some(bank) = good_bank.as_mut() {
                        good_sim.fold_outputs(bank);
                    }
                }
                out
            } else {
                // Workers pull group indices from a shared counter so a
                // straggler group cannot serialize the stage; the main
                // thread advances the good machine meanwhile.
                let next = AtomicUsize::new(0);
                let collected: Mutex<Vec<(usize, ShardOutcome)>> =
                    Mutex::new(Vec::with_capacity(groups.len()));
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| {
                            let mut local: Vec<(usize, ShardOutcome)> = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= groups.len() {
                                    break;
                                }
                                local.push((
                                    i,
                                    self.simulate_shard_group(
                                        tape, groups[i], &good, &states, inputs, start, end,
                                    ),
                                ));
                            }
                            collected.lock().expect("no panics hold the lock").extend(local);
                        });
                    }
                    for cycle in start..end {
                        good_sim.step(inputs[cycle as usize]);
                        if let Some(bank) = good_bank.as_mut() {
                            good_sim.fold_outputs(bank);
                        }
                    }
                });
                let mut indexed = collected.into_inner().expect("workers joined");
                indexed.sort_by_key(|&(i, _)| i);
                indexed.into_iter().map(|(_, o)| o).collect()
            };
            good.regs = good_sim.register_state_lane(0);
            if let Some(bank) = good_bank.as_ref() {
                good.misr = bank.lane_signature(0);
            }

            // Stage-boundary merge, in shard order.
            let merge_started = metrics.map(|_| Instant::now());
            let mut survivors: Vec<FaultId> = Vec::new();
            let mut new_states: HashMap<FaultId, MachineState> = HashMap::new();
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
                    new_states.insert(fid, state);
                }
            }
            survivors.sort();
            active = survivors;
            states = new_states;
            if let (Some(m), Some(t)) = (metrics, merge_started) {
                m.histogram("faultsim.merge_ms").record(t.elapsed().as_secs_f64() * 1000.0);
            }
            drop(stage_span);
        }

        // Signature readout: every fault survived to the end in
        // signature mode, so its final MISR state sits in `states`.
        let signatures = good_bank.map(|bank| SignatureSet {
            good: bank.lane_signature(0),
            per_fault: (0..self.universe.len())
                .map(|i| states.get(&FaultId(i as u32)).map_or(0, |s| s.misr))
                .collect(),
        });
        let result = FaultSimResult { detection_cycle: detection, total_cycles: total, signatures };
        Self::record_totals(metrics, &result);
        Ok(result)
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
    /// faults each) over one stage on one multi-word kernel machine,
    /// starting every lane of every word from its stage-entry register
    /// state (and, in signature mode, its partial MISR state). Each
    /// word is fully independent of every other word and of every other
    /// group, so groups can run on any thread in any order.
    #[allow(clippy::too_many_arguments)]
    fn simulate_shard_group(
        &self,
        tape: &Tape,
        chunks: &[&[FaultId]],
        good: &MachineState,
        states: &HashMap<FaultId, MachineState>,
        inputs: &[i64],
        start: u32,
        end: u32,
    ) -> ShardOutcome {
        let shard_started = self.options.metrics.as_ref().map(|_| Instant::now());
        let words = chunks.len();
        let mut sim = KernelSim::with_words(tape, words);
        let mut banks: Option<Vec<MisrBank>> = self.options.signature.map(|cfg| {
            (0..words)
                .map(|_| {
                    let mut b = MisrBank::with_polynomial(cfg.width, cfg.poly)
                        .expect("signature width validated by the session layer");
                    b.fill(good.misr);
                    b
                })
                .collect()
        });
        // All lanes of every word start from the good state, then
        // faulty lanes get their own diverged state (registers and
        // partial signature); finally each word's faults are injected,
        // batched per node.
        for (word, group) in chunks.iter().enumerate() {
            for lane in 0..64 {
                sim.set_register_state_lane_in_word(word, lane, &good.regs);
            }
            for (slot, &fid) in group.iter().enumerate() {
                let lane = slot as u32 + 1;
                if let Some(s) = states.get(&fid) {
                    sim.set_register_state_lane_in_word(word, lane, &s.regs);
                    if let Some(banks) = banks.as_mut() {
                        banks[word].set_lane_signature(lane, s.misr);
                    }
                }
            }
            for (node, faults) in self.shard_faults(group) {
                sim.set_faults_in_word(word, node, faults);
            }
        }

        let mut detections: Vec<(FaultId, u32)> = Vec::new();
        let mut undetected: Vec<u64> = chunks.iter().map(|group| fault_lanes(group)).collect();
        let mut live = undetected.iter().filter(|&&m| m != 0).count();
        for cycle in start..end {
            sim.step(inputs[cycle as usize]);
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
        // lanes in compare mode, every lane in signature mode.
        let mut survivors: Vec<(FaultId, MachineState)> = Vec::new();
        for (word, group) in chunks.iter().enumerate() {
            match banks.as_ref() {
                Some(banks) => {
                    for (slot, &fid) in group.iter().enumerate() {
                        let lane = slot as u32 + 1;
                        survivors.push((
                            fid,
                            MachineState {
                                regs: sim.register_state_lane_in_word(word, lane),
                                misr: banks[word].lane_signature(lane),
                            },
                        ));
                    }
                }
                None => {
                    let mut m = undetected[word];
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let fid = group[(lane - 1) as usize];
                        survivors.push((
                            fid,
                            MachineState {
                                regs: sim.register_state_lane_in_word(word, lane),
                                misr: 0,
                            },
                        ));
                    }
                }
            }
        }
        if let (Some(m), Some(t)) = (self.options.metrics.as_deref(), shard_started) {
            m.histogram("faultsim.shard_ms").record(t.elapsed().as_secs_f64() * 1000.0);
        }
        ShardOutcome { detections, survivors }
    }

    /// A shard's faults batched per node, slot `i` on lane `i + 1`.
    fn shard_faults(&self, shard: &[FaultId]) -> HashMap<rtl::NodeId, Vec<CellFault>> {
        let mut per_node: HashMap<rtl::NodeId, Vec<CellFault>> = HashMap::new();
        for (slot, &fid) in shard.iter().enumerate() {
            let site = self.universe.site(fid);
            per_node.entry(site.node).or_default().push(CellFault {
                cell: site.cell,
                fault: site.representative,
                lanes: 1u64 << (slot + 1),
            });
        }
        per_node
    }

    /// The [`SimEngine::Walker`] reference: every 63-fault shard on its
    /// own graph walker over the whole test, with no stages, repacking
    /// or merging. In compare mode a shard stops once every lane is
    /// detected; in signature mode it folds every cycle into a per-lane
    /// MISR bank and plays the test out.
    fn run_reference(&self, inputs: &[i64]) -> FaultSimResult {
        let mut detection: Vec<Option<u32>> = vec![None; self.universe.len()];
        let mut signatures = self
            .options
            .signature
            .map(|_| SignatureSet { good: 0, per_fault: vec![0; self.universe.len()] });
        let ids: Vec<FaultId> = self.universe.ids().collect();
        for shard in ids.chunks(LANES_PER_PASS) {
            let mut sim = BitSlicedSim::new(self.netlist);
            for (node, faults) in self.shard_faults(shard) {
                sim.set_faults(node, faults);
            }
            let mut bank = self.options.signature.map(|cfg| {
                MisrBank::with_polynomial(cfg.width, cfg.poly)
                    .expect("signature width validated by the session layer")
            });
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
                sigs.good = bank.lane_signature(0);
                for (slot, &fid) in shard.iter().enumerate() {
                    sigs.per_fault[fid.index()] = bank.lane_signature(slot as u32 + 1);
                }
            }
        }
        FaultSimResult { detection_cycle: detection, total_cycles: inputs.len() as u32, signatures }
    }
}

/// The lanes a shard's faults occupy: lanes `1..=shard.len()`.
fn fault_lanes(shard: &[FaultId]) -> u64 {
    ((1u64 << shard.len()) - 1) << 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::sim::CellFault;
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

    fn universe(n: &Netlist) -> FaultUniverse {
        let r = RangeAnalysis::analyze(n, aligned_input_range(n.width(), n.width()));
        FaultUniverse::enumerate(n, &r)
    }

    fn pseudo_inputs(n: usize, width: u32) -> Vec<i64> {
        let mut state = 0x123456789ABCDEFu64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                fixedpoint::QFormat::new(width, width - 1)
                    .unwrap()
                    .sign_extend(state >> (64 - width))
            })
            .collect()
    }

    /// Serial (one-fault-at-a-time) reference implementation.
    fn serial_reference(n: &Netlist, u: &FaultUniverse, inputs: &[i64]) -> Vec<Option<u32>> {
        u.ids()
            .map(|fid| {
                let site = u.site(fid);
                let mut sim = BitSlicedSim::new(n);
                sim.set_faults(
                    site.node,
                    vec![CellFault { cell: site.cell, fault: site.representative, lanes: 2 }],
                );
                for (cycle, &x) in inputs.iter().enumerate() {
                    sim.step(x);
                    if sim.output_diff_lanes(0) & 2 != 0 {
                        return Some(cycle as u32);
                    }
                }
                None
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(100, 10);
        let parallel = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
            .run(&inputs);
        let serial = serial_reference(&n, &u, &inputs);
        assert_eq!(parallel.detection_cycles(), &serial[..]);
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
    fn sharded_runs_match_serial_at_every_thread_count() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(150, 10);
        let serial = serial_reference(&n, &u, &inputs);
        for threads in [1usize, 2, 3, 4, 8] {
            let result = ParallelFaultSimulator::new(&n, &u)
                .with_schedule(StageSchedule::with_boundaries(vec![16, 48, 96]))
                .with_threads(threads)
                .run(&inputs);
            assert_eq!(
                result.detection_cycles(),
                &serial[..],
                "threads = {threads} diverged from serial"
            );
        }
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

        let s = registry.snapshot();
        let stages = s.counters["faultsim.stages"];
        assert!(
            (1..=3).contains(&stages),
            "16/48 boundaries over 150 cycles give at most 3 stages, got {stages}"
        );
        assert!(s.counters["faultsim.shards"] >= stages, "one shard minimum per stage");
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
        // dispatch — a group of shards — so it tracks the group
        // counter, not the shard one.
        assert_eq!(s.histograms["faultsim.shard_ms"].count, s.counters["faultsim.groups"]);
        assert!(s.counters["faultsim.groups"] <= s.counters["faultsim.shards"]);
        assert_eq!(s.histograms["faultsim.merge_ms"].count, stages);
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

    /// Serial reference for signature mode: one scalar MISR per
    /// machine, fed the machine's output stream word by word.
    fn serial_signatures(
        n: &Netlist,
        u: &FaultUniverse,
        inputs: &[i64],
        cfg: SignatureConfig,
    ) -> (u64, Vec<u64>) {
        let absorb_outputs = |sim: &BitSlicedSim, lane: u32, m: &mut rtl::misr::Misr| {
            for out in n.output_ids() {
                m.absorb(sim.lane_value(out, lane));
            }
        };
        let mut good_misr = rtl::misr::Misr::with_polynomial(cfg.width, cfg.poly).unwrap();
        let mut good_sim = BitSlicedSim::new(n);
        for &x in inputs {
            good_sim.step(x);
            absorb_outputs(&good_sim, 0, &mut good_misr);
        }
        let per_fault = u
            .ids()
            .map(|fid| {
                let site = u.site(fid);
                let mut sim = BitSlicedSim::new(n);
                sim.set_faults(
                    site.node,
                    vec![CellFault { cell: site.cell, fault: site.representative, lanes: 2 }],
                );
                let mut m = rtl::misr::Misr::with_polynomial(cfg.width, cfg.poly).unwrap();
                for &x in inputs {
                    sim.step(x);
                    absorb_outputs(&sim, 1, &mut m);
                }
                m.signature()
            })
            .collect();
        (good_misr.signature(), per_fault)
    }

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
    fn signature_mode_matches_serial_scalar_misrs() {
        let n = filterish(10);
        let u = universe(&n);
        let inputs = pseudo_inputs(100, 10);
        let (good, per_fault) = serial_signatures(&n, &u, &inputs, SIG16);
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_options(
                SimOptions::new()
                    .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
                    .with_signature(SIG16),
            )
            .run(&inputs);
        let sigs = result.signatures().expect("signature mode reports signatures");
        assert_eq!(sigs.good, good);
        assert_eq!(sigs.per_fault, per_fault);
        assert_eq!(result.good_signature(), Some(good));
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
    fn options_resolve_thread_count() {
        assert_eq!(SimOptions::new().with_threads(3).effective_threads(), 3);
        assert!(SimOptions::new().effective_threads() >= 1);
        let opts = SimOptions::new()
            .with_schedule(StageSchedule::with_boundaries(vec![8]))
            .with_threads(2);
        assert_eq!(opts.threads(), 2);
        assert_eq!(opts.schedule(), &StageSchedule::with_boundaries(vec![8]));
    }

    #[test]
    fn engines_agree_in_compare_mode() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(192, 12);
        let run = |engine| {
            ParallelFaultSimulator::new(&n, &u)
                .with_options(
                    SimOptions::new()
                        .with_engine(engine)
                        .with_schedule(StageSchedule::with_boundaries(vec![64, 128]))
                        .with_threads(1),
                )
                .run(&inputs)
        };
        let kernel = run(SimEngine::Kernel);
        let walker = run(SimEngine::Walker);
        assert_eq!(kernel.detection_cycle, walker.detection_cycle);
        assert_eq!(kernel.total_cycles, walker.total_cycles);
    }

    #[test]
    fn engines_agree_in_signature_mode() {
        let n = filterish(12);
        let u = universe(&n);
        let inputs = pseudo_inputs(192, 12);
        let run = |engine| {
            ParallelFaultSimulator::new(&n, &u)
                .with_options(
                    SimOptions::new()
                        .with_engine(engine)
                        .with_schedule(StageSchedule::with_boundaries(vec![96]))
                        .with_threads(1)
                        .with_signature(SIG16),
                )
                .run(&inputs)
        };
        let kernel = run(SimEngine::Kernel);
        let walker = run(SimEngine::Walker);
        assert_eq!(kernel.detection_cycle, walker.detection_cycle);
        assert_eq!(kernel.signatures(), walker.signatures());
        assert_eq!(kernel.aliased(), walker.aliased());
    }
}
