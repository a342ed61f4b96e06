//! Per-fault redundancy proving: a miter between the fault-free and the
//! fault-injected unrolling of one netlist.
//!
//! For a feed-forward netlist with memory depth `D`, the output at any step
//! `t >= D` is a fixed function of the last `D + 1` input words — for the
//! faulty machine too, since stuck lines do not lengthen register chains.
//! A fault is therefore detectable if and only if some output differs from
//! the good machine at one of the unrolled frames `0..=D` (frames `0..D`
//! cover the reset transient, frame `D` covers all steady-state steps by
//! time invariance). UNSAT at every frame is a machine-checked proof of
//! redundancy; SAT yields an input-word witness which is replayed through
//! [`rtl::sim::BitSlicedSim`] before the verdict is trusted.
//!
//! Cost model: the good machine's frames `0..=D` are built **once**, as a
//! hash-consed gate graph only; no solver ever holds all of them. Each
//! fault truncates the circuit back to the good machine and starts from
//! an empty solver. Its faulty frames are unrolled on demand, frame `D`
//! first: a frame builds only the faulty rows its outputs reach, inside
//! the fault's structural fanout, and a row whose operands are all good
//! reuses the good row. [`Circuit::lit`] then emits only the miter's
//! cone of influence, good and faulty, into the fault's solver: on
//! LP-CSA a few percent of the good machine's gates. A frame whose miter
//! bits hash-cons to constant false costs no solver work at all.

use crate::circuit::Circuit;
use crate::encode::{FaultSpec, NetlistEncoder};
use crate::solver::{Lit, SolveResult, Solver, SolverStats};
use rtl::sim::{BitSlicedSim, CellFault};
use rtl::Netlist;

/// Lane used for fault injection during witness replay (lane 0 stays
/// fault-free as the reference).
const REPLAY_LANE: u32 = 1;

/// Outcome of proving a single fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultVerdict {
    /// UNSAT at every frame `0..=D`: no input sequence ever exposes the
    /// fault at an output. Machine-checked proof of redundancy.
    Redundant,
    /// SAT: `witness` is a sequence of input words (step 0 first) whose
    /// final step differs at an output — already confirmed by replaying
    /// through the bit-sliced simulator.
    Detectable {
        /// Input words, one per simulator step, detection at the last.
        witness: Vec<i64>,
    },
    /// The conflict budget ran out (or a witness failed to replay, which
    /// would be an encoder soundness bug) before a verdict was reached.
    Unknown,
}

/// Budget knobs for a proving pass.
#[derive(Clone, Copy, Debug)]
pub struct PruneConfig {
    /// Conflict budget per SAT query (each fault runs at most `D + 1`
    /// queries). Exhausting it yields [`FaultVerdict::Unknown`].
    pub max_conflicts: u64,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig { max_conflicts: 20_000 }
    }
}

/// Aggregate result of [`prove_faults`] over a candidate set.
#[derive(Clone, Debug, Default)]
pub struct PruneOutcome {
    /// Per-candidate verdicts, in input order.
    pub verdicts: Vec<(FaultSpec, FaultVerdict)>,
    /// Number of candidates proven redundant.
    pub redundant: usize,
    /// Number of candidates proven detectable (witness confirmed).
    pub detectable: usize,
    /// Number of candidates left undecided by the budget.
    pub unknown: usize,
    /// SAT witnesses that replayed through the simulator as detections.
    /// Always equals `detectable`; a shortfall is a soundness bug.
    pub witnesses_confirmed: usize,
    /// Aggregated solver work across all queries.
    pub stats: SolverStats,
    /// Solver variables summed over the candidates: each fault's solver
    /// holds only its miters' cone of influence.
    pub solver_vars: u64,
    /// Gates each candidate added beyond the good machine (its faulty
    /// rows and miter XORs), summed over the candidates.
    pub faulty_gates: u64,
}

/// Prover holding one netlist's good machine as a gate graph, shared by
/// every fault it proves.
pub struct RedundancyProver<'n> {
    enc: NetlistEncoder<'n>,
    /// The good machine's frames `0..=D`, then the current fault's gates.
    circuit: Circuit,
    /// Gate count of the good machine alone, once built: each fault
    /// truncates `circuit` back to it.
    good_gates: Option<usize>,
    stats: SolverStats,
    witnesses_confirmed: usize,
    solver_vars: u64,
    faulty_gates: u64,
}

impl<'n> RedundancyProver<'n> {
    /// Creates a prover for `netlist` whose input drives the top
    /// `input_bits` of the datapath (see [`NetlistEncoder::new`]).
    #[must_use]
    pub fn new(netlist: &'n Netlist, input_bits: u32) -> Self {
        RedundancyProver {
            enc: NetlistEncoder::new(netlist, input_bits),
            circuit: Circuit::new(),
            good_gates: None,
            stats: SolverStats::default(),
            witnesses_confirmed: 0,
            solver_vars: 0,
            faulty_gates: 0,
        }
    }

    /// Memory depth of the encoded netlist.
    #[must_use]
    pub fn memory_depth(&self) -> u32 {
        self.enc.memory_depth()
    }

    /// Aggregated solver work across all `prove` calls so far.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of SAT witnesses confirmed by simulator replay so far.
    #[must_use]
    pub fn witnesses_confirmed(&self) -> usize {
        self.witnesses_confirmed
    }

    /// Proves one fault: `Redundant` (UNSAT at all frames), `Detectable`
    /// with a replay-confirmed witness, or `Unknown` if `max_conflicts`
    /// runs out.
    pub fn prove(&mut self, fault: &FaultSpec, max_conflicts: u64) -> FaultVerdict {
        let d = self.enc.memory_depth() as usize;
        let good_gates = match self.good_gates {
            Some(n) => n,
            None => {
                self.enc.ensure_frames(&mut self.circuit, d);
                *self.good_gates.insert(self.circuit.len())
            }
        };
        self.circuit.truncate(good_gates);
        let mut solver = Solver::new();
        let mut faulty = self.enc.faulty_unroll(fault);

        // Frame D first: it decides steady-state detectability, and most
        // detectable faults are exposed there with a short search.
        let mut order: Vec<usize> = vec![d];
        order.extend(0..d);

        let mut verdict = FaultVerdict::Redundant;
        for t in order {
            let diffs = self.enc.output_diff(&mut self.circuit, t, &mut faulty);
            if diffs.iter().all(|e| e.const_value() == Some(false)) {
                continue; // hash-consing proved this frame identical
            }
            if diffs.iter().any(|e| e.const_value() == Some(true)) {
                // Outputs differ under every input: any model will do.
                solver.set_conflict_budget(max_conflicts);
                if solver.solve() != SolveResult::Sat {
                    verdict = FaultVerdict::Unknown;
                    break;
                }
                verdict = self.conclude_sat(&solver, fault, t);
                break;
            }
            // Guard the miter clause with an activation literal so an
            // UNSAT frame can be retired without poisoning later queries.
            let act = Lit::pos(solver.new_var());
            let mut clause = vec![act.negate()];
            for &e in &diffs {
                if e.const_value().is_none() {
                    clause.push(self.circuit.lit(&mut solver, e));
                }
            }
            solver.add_clause(&clause);
            solver.set_conflict_budget(max_conflicts);
            match solver.solve_assuming(&[act]) {
                SolveResult::Sat => {
                    verdict = self.conclude_sat(&solver, fault, t);
                    break;
                }
                SolveResult::Unsat => {
                    solver.add_clause(&[act.negate()]);
                }
                SolveResult::Unknown => {
                    verdict = FaultVerdict::Unknown;
                    break;
                }
            }
        }
        self.accumulate(&solver.stats());
        self.solver_vars += u64::from(solver.num_vars());
        self.faulty_gates += (self.circuit.len() - good_gates) as u64;
        verdict
    }

    /// Extracts the frame-`t` witness from the fault's SAT model and
    /// replays it; a replay failure (encoder soundness bug) downgrades to
    /// `Unknown`.
    fn conclude_sat(&mut self, solver: &Solver, fault: &FaultSpec, t: usize) -> FaultVerdict {
        let witness: Vec<i64> =
            (0..=t).map(|f| self.enc.witness_word(&self.circuit, solver, f)).collect();
        if replay_detects(self.enc.netlist(), fault, &witness) {
            self.witnesses_confirmed += 1;
            FaultVerdict::Detectable { witness }
        } else {
            FaultVerdict::Unknown
        }
    }

    fn accumulate(&mut self, fault: &SolverStats) {
        self.stats.conflicts += fault.conflicts;
        self.stats.decisions += fault.decisions;
        self.stats.propagations += fault.propagations;
        self.stats.restarts += fault.restarts;
        self.stats.learnts += fault.learnts;
    }
}

/// Replays `witness` through the bit-sliced simulator with `fault`
/// injected on a dedicated fault lane: true iff the final step's outputs differ
/// from the fault-free reference lane.
#[must_use]
pub fn replay_detects(netlist: &Netlist, fault: &FaultSpec, witness: &[i64]) -> bool {
    if witness.is_empty() {
        return false;
    }
    let mut sim = BitSlicedSim::new(netlist);
    sim.set_faults(
        fault.node,
        vec![CellFault { cell: fault.cell, fault: fault.fault, lanes: 1 << REPLAY_LANE }],
    );
    for &word in witness {
        sim.step(word);
    }
    sim.output_diff_lanes(0) & (1 << REPLAY_LANE) != 0
}

/// Proves every candidate fault and aggregates the verdicts.
#[must_use]
pub fn prove_faults(
    netlist: &Netlist,
    input_bits: u32,
    candidates: &[FaultSpec],
    config: &PruneConfig,
) -> PruneOutcome {
    let mut prover = RedundancyProver::new(netlist, input_bits);
    let mut out = PruneOutcome::default();
    for fault in candidates {
        let verdict = prover.prove(fault, config.max_conflicts);
        match &verdict {
            FaultVerdict::Redundant => out.redundant += 1,
            FaultVerdict::Detectable { .. } => out.detectable += 1,
            FaultVerdict::Unknown => out.unknown += 1,
        }
        out.verdicts.push((*fault, verdict));
    }
    out.witnesses_confirmed = prover.witnesses_confirmed();
    out.stats = prover.stats();
    out.solver_vars = prover.solver_vars;
    out.faulty_gates = prover.faulty_gates;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::fulladder::{FaFault, Line, ALL_LINES};
    use rtl::NetlistBuilder;

    /// `y = ((x + (x >> 2)) >> 1)` with one register: depth 1, small cone.
    fn small_netlist() -> Netlist {
        let mut b = NetlistBuilder::new(6).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let s = b.shift_right(d, 2);
        let a = b.add_labeled(x, s, "acc");
        let sh = b.shift_right(a, 1);
        b.output(sh, "y");
        b.finish().unwrap()
    }

    /// Brute-force detectability over every aligned input sequence of
    /// length `depth + 1`, diff checked after every step.
    fn brute_force_detectable(netlist: &Netlist, fault: &FaultSpec, input_bits: u32) -> bool {
        let w = netlist.width();
        let align = w - input_bits;
        let words: Vec<i64> =
            (0..1u64 << input_bits).map(|raw| netlist.format().sign_extend(raw << align)).collect();
        let depth = {
            let enc = NetlistEncoder::new(netlist, input_bits);
            enc.memory_depth() as usize
        };
        let mut seq = vec![0usize; depth + 1];
        loop {
            let mut sim = BitSlicedSim::new(netlist);
            sim.set_faults(
                fault.node,
                vec![CellFault { cell: fault.cell, fault: fault.fault, lanes: 1 << 1 }],
            );
            for &k in &seq {
                sim.step(words[k]);
                if sim.output_diff_lanes(0) & (1 << 1) != 0 {
                    return true;
                }
            }
            // Odometer over the sequence space.
            let mut pos = 0;
            loop {
                if pos == seq.len() {
                    return false;
                }
                seq[pos] += 1;
                if seq[pos] < words.len() {
                    break;
                }
                seq[pos] = 0;
                pos += 1;
            }
        }
    }

    #[test]
    fn exhaustive_cross_check_on_small_cone() {
        let netlist = small_netlist();
        let node = netlist.find_label("acc").unwrap();
        let mut prover = RedundancyProver::new(&netlist, 6);
        let mut redundant = 0;
        let mut detectable = 0;
        for cell in [0u32, 2, 5] {
            for line in ALL_LINES {
                for stuck_one in [false, true] {
                    let f = FaultSpec { node, cell, fault: FaFault { line, stuck_one } };
                    let brute = brute_force_detectable(&netlist, &f, 6);
                    match prover.prove(&f, 100_000) {
                        FaultVerdict::Detectable { .. } => {
                            detectable += 1;
                            assert!(brute, "SAT said detectable, sim disagrees: {f:?}");
                        }
                        FaultVerdict::Redundant => {
                            redundant += 1;
                            assert!(!brute, "SAT said redundant, sim detects: {f:?}");
                        }
                        FaultVerdict::Unknown => panic!("budget exhausted on tiny cone: {f:?}"),
                    }
                }
            }
        }
        // The sweep must exercise both verdicts to mean anything.
        assert!(redundant > 0, "no redundant fault in sweep");
        assert!(detectable > 0, "no detectable fault in sweep");
        assert_eq!(prover.witnesses_confirmed(), detectable);
    }

    #[test]
    fn discarded_lsb_sum_fault_is_redundant() {
        // `y = (x + s) >> 1` discards bit 0 of the adder; a Sum-line fault
        // at cell 0 corrupts only that bit (the carry path is untouched).
        let netlist = small_netlist();
        let node = netlist.find_label("acc").unwrap();
        let mut prover = RedundancyProver::new(&netlist, 6);
        for stuck_one in [false, true] {
            let f = FaultSpec { node, cell: 0, fault: FaFault { line: Line::Sum, stuck_one } };
            assert_eq!(prover.prove(&f, 10_000), FaultVerdict::Redundant);
        }
    }

    #[test]
    fn carry_fault_at_lsb_is_detectable_with_confirmed_witness() {
        let netlist = small_netlist();
        let node = netlist.find_label("acc").unwrap();
        let mut prover = RedundancyProver::new(&netlist, 6);
        let f = FaultSpec { node, cell: 0, fault: FaFault { line: Line::Cout, stuck_one: true } };
        match prover.prove(&f, 100_000) {
            FaultVerdict::Detectable { witness } => {
                assert!(!witness.is_empty());
                assert!(replay_detects(&netlist, &f, &witness));
            }
            v => panic!("expected detectable, got {v:?}"),
        }
        assert_eq!(prover.witnesses_confirmed(), 1);
    }

    #[test]
    fn prove_faults_aggregates_verdicts() {
        let netlist = small_netlist();
        let node = netlist.find_label("acc").unwrap();
        let candidates = vec![
            FaultSpec { node, cell: 0, fault: FaFault { line: Line::Sum, stuck_one: true } },
            FaultSpec { node, cell: 0, fault: FaFault { line: Line::Cout, stuck_one: true } },
            FaultSpec { node, cell: 3, fault: FaFault { line: Line::AXor, stuck_one: false } },
        ];
        let out = prove_faults(&netlist, 6, &candidates, &PruneConfig::default());
        assert_eq!(out.verdicts.len(), 3);
        assert_eq!(out.redundant + out.detectable + out.unknown, 3);
        assert_eq!(out.redundant, 1, "discarded-LSB sum fault");
        assert_eq!(out.witnesses_confirmed, out.detectable);
        assert!(out.unknown == 0);
    }

    #[test]
    fn unknown_on_exhausted_budget() {
        // A zero-conflict budget cannot decide a non-trivial query.
        let netlist = small_netlist();
        let node = netlist.find_label("acc").unwrap();
        let mut prover = RedundancyProver::new(&netlist, 6);
        let f = FaultSpec { node, cell: 2, fault: FaFault { line: Line::Cout, stuck_one: true } };
        // Budget 0 either finds the answer by pure propagation or gives up;
        // both are acceptable, but the verdict must never be wrong.
        match prover.prove(&f, 0) {
            FaultVerdict::Unknown | FaultVerdict::Detectable { .. } => {}
            FaultVerdict::Redundant => panic!("cell-2 carry fault is detectable"),
        }
    }
}
