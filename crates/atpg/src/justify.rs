//! Backward justification with forward-implication verification.
//!
//! Justification runs in two regimes, chosen per fault by the
//! [`ConeAnalysis`] classification of its
//! host node:
//!
//! - **Pure nodes** (functions of one delayed input sample): one
//!   exhaustive sweep over all `2^input_bits` sample values records,
//!   per full-adder cell, exactly which of the eight input combinations
//!   `T0..T7` are reachable and a spread of samples reaching each. A
//!   fault whose detecting-test set misses the reachable set is
//!   **provably untestable** — the proof is exact because the sweep is
//!   exhaustive and warm-up cycles only replay the (enumerated) zero
//!   sample. Otherwise the recorded samples become pattern candidates.
//! - **Window nodes** (mixing several delays): no exhaustive proof is
//!   possible, so a deterministic family of high-yield stimulus shapes
//!   (constants at the rails, alternations, impulses, powers of two,
//!   short LFSR bursts) is tried in order.
//!
//! Every candidate — from either regime — is confirmed by forward
//! implication on the real bit-sliced simulator with the representative
//! fault injected: a pattern is only ever reported with an observed
//! output divergence, so `Detected` verdicts are ground truth, not
//! heuristics. Candidates that all fail leave the fault `Unresolved`
//! (honestly counted, never silently dropped).

use crate::chain::{ChainJustifier, ChainOutcome};
use crate::cone::{ConeAnalysis, ConeEval, Purity};
use crate::knownbits::StaticScreen;
use faultsim::{FaultId, FaultSite, FaultUniverse};
use rtl::eval::{cell_combos, ScalarSim};
use rtl::sim::{BitSlicedSim, CellFault};
use rtl::{Netlist, NodeId};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tpg::{Lfsr1, ShiftDirection, TestGenerator};

/// The justifier's ruling on one residual fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A deterministic activating pattern was found and *verified* by
    /// forward simulation: applying these raw (aligned) input words
    /// from reset makes the faulty machine's output diverge on the
    /// final word.
    Detected {
        /// Raw input words, aligned to the datapath width.
        pattern: Vec<i64>,
    },
    /// Proven unactivatable: the cell combinations that detect this
    /// fault are outside the exhaustively-enumerated reachable set of
    /// its (pure) host node. No input sequence can ever expose it.
    Untestable,
    /// Neither proven untestable nor activated by any candidate; the
    /// fault stays in the universe and is reported as missed.
    Unresolved,
}

/// Maximum samples retained per reachable combination (half head of
/// the sweep, half tail, for value spread).
const SAMPLES_PER_COMBO: usize = 8;

/// Maximum single-sample candidates tried per pure fault before
/// falling through to the window-node stimulus families.
const PURE_CANDIDATES: usize = 12;

/// Maximum stimulus witnesses retained per (window node, cell, combo).
const WITNESSES_PER_COMBO: usize = 3;

/// Maximum witness patterns tried per window fault.
const WINDOW_CANDIDATES: usize = 24;

#[derive(Clone, Default)]
struct CellCombos {
    reached: u8,
    samples: [Vec<i64>; 8],
}

struct PureCells {
    delay: u32,
    cells: Vec<CellCombos>,
}

/// A stimulus shape *observed* (by scalar simulation) to drive a
/// specific full-adder combination at a specific window-node cell.
#[derive(Debug, Clone, Copy)]
enum Witness {
    /// Hold sample `x` from reset; the combination appears on cycle
    /// `cycles` (1-based).
    Const { x: i64, cycles: u32 },
    /// Hold `x1` to steady state, then `x2` for `hold` cycles; the
    /// combination appears on the last cycle.
    TwoPhase { x1: i64, x2: i64, hold: u32 },
}

/// Per-window-node witness buckets: `cells[cell][combo]` holds up to
/// [`WITNESSES_PER_COMBO`] observed stimuli.
struct WitnessTable {
    /// Cycles the two-phase prefix holds `x1` (pipeline depth).
    prefix: u32,
    per_node: HashMap<usize, Vec<[Vec<Witness>; 8]>>,
}

/// Deterministic pattern justification over one netlist. Nothing it
/// builds depends on a fault universe, so one justifier serves a run's
/// pre-campaign screen and its top-off over any sub-universe.
///
/// It is `Send + Sync`, and its lazy tables are pure functions of
/// `(netlist, input_bits)`: threads may share one justifier, and a
/// verdict never depends on which faults it justified before.
pub struct Justifier<'n> {
    pub(crate) netlist: &'n Netlist,
    pub(crate) input_bits: u32,
    align: u32,
    /// Shared with the chain engine.
    cone: Arc<ConeAnalysis>,
    /// Indexed by node index; `Some` for pure arithmetic nodes.
    pure: Vec<Option<PureCells>>,
    screen: StaticScreen,
    /// Lazily built: only window-fault justification needs the
    /// (comparatively expensive) scalar stimulus sweeps.
    witnesses: OnceLock<WitnessTable>,
    /// Lazily built: only faults the witness sweeps miss need the
    /// chain-decomposition search.
    chain: OnceLock<ChainJustifier<'n>>,
    flush: usize,
}

impl<'n> Justifier<'n> {
    /// Builds the justifier, running the exhaustive single-sample sweep
    /// over every pure arithmetic node (`2^input_bits` cone
    /// evaluations).
    ///
    /// # Panics
    ///
    /// Panics if `input_bits` is zero, exceeds the datapath width, or
    /// exceeds 20 (the sweep is exponential in it; every design in this
    /// workspace uses 12).
    pub fn new(netlist: &'n Netlist, input_bits: u32) -> Self {
        assert!(
            (1..=20).contains(&input_bits) && input_bits <= netlist.width(),
            "input_bits {input_bits} outside the supported range"
        );
        let cone = ConeAnalysis::analyze(netlist);
        let width = netlist.width() as usize;
        let mut pure: Vec<Option<PureCells>> = (0..netlist.nodes().len()).map(|_| None).collect();
        for id in netlist.arithmetic_ids() {
            if let Purity::Pure(delay) = cone.purity(id) {
                pure[id.index()] =
                    Some(PureCells { delay, cells: vec![CellCombos::default(); width] });
            }
        }
        let q = netlist.format();
        let mut eval = ConeEval::new(netlist, input_bits);
        let lo = -(1i64 << (input_bits - 1));
        let hi = 1i64 << (input_bits - 1);
        let total = (hi - lo) as usize;
        for (step, v) in (lo..hi).enumerate() {
            eval.eval(v);
            for id in netlist.arithmetic_ids() {
                let Some(info) = pure[id.index()].as_mut() else { continue };
                let reached = cell_combos(q, netlist.node(id).kind, eval.values());
                for (combos, t) in info.cells.iter_mut().zip(reached) {
                    let t = t as usize;
                    combos.reached |= 1 << t;
                    let bucket = &mut combos.samples[t];
                    if bucket.len() < SAMPLES_PER_COMBO / 2 {
                        bucket.push(v);
                    } else if step >= total - SAMPLES_PER_COMBO / 2 {
                        // Tail of the sweep: keep the most positive
                        // samples alongside the most negative head.
                        if bucket.len() < SAMPLES_PER_COMBO {
                            bucket.push(v);
                        }
                    }
                }
            }
        }
        // Two spare cycles after a full pipeline flush cover the output
        // stage of any downstream logic.
        let flush = netlist.register_indices().len() + 2;
        let screen = StaticScreen::analyze(netlist, input_bits);
        Justifier {
            netlist,
            input_bits,
            align: netlist.width() - input_bits,
            cone: Arc::new(cone),
            pure,
            screen,
            witnesses: OnceLock::new(),
            chain: OnceLock::new(),
            flush,
        }
    }

    /// Whether one of the sound static proofs rules the fault out: the
    /// exhaustive pure-cone sweep, the ternary known-bits analysis, or
    /// the observability mask.
    fn proven_untestable(&self, site: &FaultSite) -> bool {
        let pure_unreachable = self.pure[site.node.index()]
            .as_ref()
            .is_some_and(|p| p.cells[site.cell as usize].reached & site.detecting_tests == 0);
        pure_unreachable || self.screen.untestable(self.netlist, site)
    }

    /// The faults of `universe` (over this justifier's netlist) whose
    /// detecting tests are provably unreachable or whose effects are
    /// provably unobservable (see [`Verdict::Untestable`]), in ascending
    /// id order. Cheap: reuses the construction-time analyses, no
    /// simulation.
    pub fn untestable(&self, universe: &FaultUniverse) -> Vec<FaultId> {
        universe.ids().filter(|&id| self.proven_untestable(universe.site(id))).collect()
    }

    /// Justifies one fault site: tries to produce a verified activating
    /// pattern, prove untestability, or give up (`Unresolved`).
    pub fn justify(&self, site: &FaultSite) -> Verdict {
        if self.proven_untestable(site) {
            return Verdict::Untestable;
        }
        let mut sim = BitSlicedSim::new(self.netlist);
        if let Some(info) = self.pure[site.node.index()].as_ref() {
            let combos = &info.cells[site.cell as usize];
            // Gather activating samples across every detecting combo,
            // most promising first (each is *known* to activate the
            // cell; only observability at the output is in question).
            let mut samples: Vec<i64> = (0..8)
                .filter(|t| site.detecting_tests & (1 << t) != 0)
                .flat_map(|t| combos.samples[t as usize].iter().copied())
                .collect();
            samples.sort_unstable();
            samples.dedup();
            let hold = info.delay as usize + 1;
            for &v in samples.iter().take(PURE_CANDIDATES) {
                let raw = v << self.align;
                // Hold the sample long enough to fill the delay chain,
                // then flush with zeros to propagate the divergence.
                let mut pattern = vec![raw; hold];
                pattern.extend(std::iter::repeat_n(0, self.flush));
                if let Some(len) = self.try_pattern(&mut sim, site, &pattern) {
                    pattern.truncate(len);
                    return Verdict::Detected { pattern };
                }
                // A zero flush can mask the divergence downstream; try
                // holding the sample for the whole pattern instead.
                let pattern = vec![raw; hold + self.flush];
                if let Some(len) = self.try_pattern(&mut sim, site, &pattern) {
                    let mut pattern = pattern;
                    pattern.truncate(len);
                    return Verdict::Detected { pattern };
                }
            }
        }
        // Window node, or a pure fault whose samples were all masked:
        // observed witnesses first, then the generic stimulus families.
        for pattern in self.witness_patterns(site) {
            if let Some(len) = self.try_pattern(&mut sim, site, &pattern) {
                let mut pattern = pattern;
                pattern.truncate(len);
                return Verdict::Detected { pattern };
            }
        }
        // Accumulator cells whose combinations need *joint* operand
        // conditions: decompose the operands into independently
        // controllable terms and solve the combination exactly over
        // the reachable residue sets.
        let chain = self.chain.get_or_init(|| {
            ChainJustifier::new(self.netlist, Arc::clone(&self.cone), self.input_bits)
        });
        match chain.solve(site, self.flush) {
            ChainOutcome::Patterns(patterns) => {
                for pattern in patterns {
                    if let Some(len) = self.try_pattern(&mut sim, site, &pattern) {
                        let mut pattern = pattern;
                        pattern.truncate(len);
                        return Verdict::Detected { pattern };
                    }
                }
            }
            // No detecting combination is reachable on the fault-free
            // operands: activation can never occur.
            ChainOutcome::Unactivatable => return Verdict::Untestable,
            ChainOutcome::Unknown => {}
        }
        for pattern in self.window_candidates() {
            if let Some(len) = self.try_pattern(&mut sim, site, &pattern) {
                let mut pattern = pattern;
                pattern.truncate(len);
                return Verdict::Detected { pattern };
            }
        }
        Verdict::Unresolved
    }

    /// The lazily-built witness table (see [`WitnessTable`]): two
    /// scalar sweeps record which stimuli drive which combinations at
    /// every window-node cell. Sweep one holds each input sample from
    /// reset through the pipeline depth (exhaustive over constant
    /// streams). Sweep two settles the pipeline on a rail/corner
    /// driver, then probes every sample for a few cycles — reaching
    /// (driver-state × sample) operand pairs no constant stream can.
    fn witness_table(&self) -> &WitnessTable {
        self.witnesses.get_or_init(|| {
            let prefix = self.netlist.register_indices().len() as u32 + 2;
            let mut per_node: HashMap<usize, Vec<[Vec<Witness>; 8]>> = HashMap::new();
            let window_nodes: Vec<NodeId> = self
                .netlist
                .arithmetic_ids()
                .into_iter()
                .filter(|id| self.pure[id.index()].is_none())
                .collect();
            if window_nodes.is_empty() {
                return WitnessTable { prefix, per_node };
            }
            let width = self.netlist.width() as usize;
            for &id in &window_nodes {
                per_node.insert(id.index(), vec![std::array::from_fn(|_| Vec::new()); width]);
            }
            let lo = -(1i64 << (self.input_bits - 1));
            let hi = 1i64 << (self.input_bits - 1);
            let q = self.netlist.format();
            let mut sim = ScalarSim::new(self.netlist);
            let record = |per_node: &mut HashMap<usize, Vec<[Vec<Witness>; 8]>>,
                          sim: &ScalarSim<'_>,
                          witness: Witness| {
                for &id in &window_nodes {
                    let combos = cell_combos(q, self.netlist.node(id).kind, sim.values());
                    let cells = per_node.get_mut(&id.index()).expect("pre-inserted");
                    for (buckets, combo) in cells.iter_mut().zip(combos) {
                        let bucket = &mut buckets[combo as usize];
                        if bucket.len() < WITNESSES_PER_COMBO {
                            bucket.push(witness);
                        }
                    }
                }
            };
            // Sweep one: every constant stream, every warm-up cycle.
            for v in lo..hi {
                let raw = v << self.align;
                sim.reset();
                for t in 1..=prefix {
                    sim.step(raw);
                    record(&mut per_node, &sim, Witness::Const { x: v, cycles: t });
                }
            }
            // Sweep two: rail/corner drivers to steady state, then
            // every sample probed for three cycles.
            let max = hi - 1;
            let drivers =
                [0i64, max, lo, max >> 1, lo >> 1, max >> 2, lo >> 2, 1, -1, max - 1, lo + 1];
            for x1 in drivers {
                sim.reset();
                for _ in 0..prefix {
                    sim.step(x1 << self.align);
                }
                let settled = sim.save_regs();
                for x2 in lo..hi {
                    sim.restore_regs(&settled);
                    for hold in 1..=3u32 {
                        sim.step(x2 << self.align);
                        record(&mut per_node, &sim, Witness::TwoPhase { x1, x2, hold });
                    }
                }
            }
            WitnessTable { prefix, per_node }
        })
    }

    /// Candidate patterns for a window fault, from observed witnesses
    /// of its detecting combinations. Each witness yields two
    /// variants: flush with zeros, or keep holding the final word.
    fn witness_patterns(&self, site: &FaultSite) -> Vec<Vec<i64>> {
        let table = self.witness_table();
        let Some(cells) = table.per_node.get(&site.node.index()) else {
            return Vec::new();
        };
        let buckets = &cells[site.cell as usize];
        let mut patterns = Vec::new();
        // Round-robin across detecting combos so no single combo's
        // witnesses crowd out the others.
        for rank in 0..WITNESSES_PER_COMBO {
            for t in 0..8 {
                if site.detecting_tests & (1 << t) == 0 {
                    continue;
                }
                let Some(&witness) = buckets[t as usize].get(rank) else { continue };
                let base: Vec<i64> = match witness {
                    Witness::Const { x, cycles } => vec![x << self.align; cycles as usize],
                    Witness::TwoPhase { x1, x2, hold } => {
                        let mut p = vec![x1 << self.align; table.prefix as usize];
                        p.extend(std::iter::repeat_n(x2 << self.align, hold as usize));
                        p
                    }
                };
                let last = *base.last().expect("witness patterns are non-empty");
                let mut hold_on = base.clone();
                hold_on.extend(std::iter::repeat_n(last, self.flush));
                patterns.push(hold_on);
                let mut zeros = base;
                zeros.extend(std::iter::repeat_n(0, self.flush));
                patterns.push(zeros);
                if patterns.len() >= WINDOW_CANDIDATES {
                    return patterns;
                }
            }
        }
        patterns
    }

    /// The deterministic stimulus families for window-node faults, in
    /// trial order. All values are raw aligned words.
    fn window_candidates(&self) -> Vec<Vec<i64>> {
        let max = ((1i64 << (self.input_bits - 1)) - 1) << self.align;
        let min = -(1i64 << (self.input_bits - 1)) << self.align;
        let len = self.flush + 16;
        let mut families: Vec<Vec<i64>> = vec![
            vec![max; len],
            vec![min; len],
            (0..len).map(|t| if t % 2 == 0 { max } else { min }).collect(),
            (0..len).map(|t| if t % 2 == 0 { min } else { max }).collect(),
            (0..len).map(|t| if t % 4 < 2 { max } else { min }).collect(),
            std::iter::once(max).chain(std::iter::repeat_n(0, len - 1)).collect(),
            std::iter::once(min).chain(std::iter::repeat_n(0, len - 1)).collect(),
        ];
        for k in (0..self.input_bits - 1).rev() {
            let v = 1i64 << (k + self.align);
            families.push(vec![v; len]);
            families.push(vec![-v; len]);
        }
        // Short pseudorandom bursts as a last resort: the default-seed
        // maximal LFSR and its decorrelated variant, 256 words each.
        for decorrelate in [false, true] {
            if let Ok(mut lfsr) = Lfsr1::new(self.input_bits, ShiftDirection::LsbToMsb) {
                let mut burst = Vec::with_capacity(256);
                let mut prev_lsb = 0u64;
                for _ in 0..256 {
                    let mut v = lfsr.next_word();
                    if decorrelate && prev_lsb == 1 {
                        // Mirror tpg's Decorrelated: invert the word
                        // when the previous LSB was one.
                        v = -v - 1;
                    }
                    prev_lsb = (v as u64) & 1;
                    burst.push(v << self.align);
                }
                families.push(burst);
            }
        }
        families
    }

    /// Forward implication: injects the representative fault into lane
    /// 1 (lane 0 stays fault-free), replays the pattern from reset, and
    /// returns the 1-based cycle of the first output divergence.
    fn try_pattern(
        &self,
        sim: &mut BitSlicedSim<'_>,
        site: &FaultSite,
        pattern: &[i64],
    ) -> Option<usize> {
        sim.reset();
        sim.clear_all_faults();
        sim.set_faults(
            site.node,
            vec![CellFault { cell: site.cell, fault: site.representative, lanes: 1 << 1 }],
        );
        for (t, &raw) in pattern.iter().enumerate() {
            sim.step(raw);
            if sim.output_diff_lanes(0) != 0 {
                return Some(t + 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::ParallelFaultSimulator;
    use rtl::reachability::Reachability;

    fn lp_mini() -> (Netlist, FaultUniverse) {
        let design = filters::designs::lowpass_mini().expect("design LP-MINI");
        let netlist = design.netlist().clone();
        let reach = Reachability::analyze(&netlist, design.spec().input_bits);
        let universe = FaultUniverse::enumerate_pruned(&netlist, design.claimed_ranges(), &reach);
        (netlist, universe)
    }

    #[test]
    fn every_detected_verdict_replays_on_the_simulator() {
        let (netlist, universe) = lp_mini();
        let justifier = Justifier::new(&netlist, 12);
        let mut detected = 0usize;
        for id in universe.ids().take(64) {
            if let Verdict::Detected { pattern } = justifier.justify(universe.site(id)) {
                detected += 1;
                let site = universe.site(id);
                let mut sim = BitSlicedSim::new(&netlist);
                sim.set_faults(
                    site.node,
                    vec![CellFault { cell: site.cell, fault: site.representative, lanes: 1 << 1 }],
                );
                let mut seen = false;
                for &raw in &pattern {
                    sim.step(raw);
                    seen |= sim.output_diff_lanes(0) != 0;
                }
                assert!(seen, "verdict pattern for {site} does not replay");
            }
        }
        assert!(detected > 0, "no detected verdicts among the first 64 faults");
    }

    #[test]
    fn untestable_faults_survive_a_long_random_campaign() {
        // Soundness spot-check: nothing the justifier proves untestable
        // may be detected by an independent pseudorandom campaign.
        let (netlist, universe) = lp_mini();
        let justifier = Justifier::new(&netlist, 12);
        let untestable = justifier.untestable(&universe);
        let mut lfsr = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let inputs: Vec<i64> = (0..4096).map(|_| lfsr.next_word() << 4).collect();
        let result = ParallelFaultSimulator::new(&netlist, &universe).run(&inputs);
        let cycles = result.detection_cycles();
        for id in untestable {
            assert!(
                cycles[id.index()].is_none(),
                "{} was proven untestable yet detected",
                universe.site(id)
            );
        }
    }

    #[test]
    fn justify_agrees_with_untestable_list() {
        let (netlist, universe) = lp_mini();
        let justifier = Justifier::new(&netlist, 12);
        let untestable = justifier.untestable(&universe);
        for &id in untestable.iter().take(8) {
            assert_eq!(justifier.justify(universe.site(id)), Verdict::Untestable);
        }
    }
}
