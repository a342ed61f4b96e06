//! Deterministic top-off pattern generation with hybrid LFSR
//! reseeding.
//!
//! A spectrally-compatible pseudorandom campaign leaves a residue of
//! undetected stuck-at faults (the paper's Tables 4–5); the paper
//! patches it by hand with mixed-mode vectors (Table 6). This crate
//! closes that loop automatically:
//!
//! 1. **Justify** ([`Justifier`]): for each residual fault, derive a
//!    deterministic activating pattern by backward justification over
//!    the input cone and confirm it by forward implication on the
//!    bit-sliced simulator — or *prove* the fault unactivatable
//!    ([`Verdict::Untestable`]) when its detecting full-adder
//!    combinations are outside the exhaustively-enumerated reachable
//!    set of its host node.
//! 2. **Compress** ([`plan_reseeding`]): cover the justified patterns
//!    with a few LFSR seeds (greedy measured set cover over the
//!    existing maximal-length generator), falling back to raw stored
//!    patterns, so the tester stores seeds instead of vectors.
//! 3. **Verify** ([`top_off`]): re-simulate the complete plan against
//!    the residue and report ground-truth detected / unresolved sets —
//!    no fault is ever silently dropped.
//!
//! Untestable faults can also be screened *before* a campaign
//! ([`untestable_faults`]) to shrink the universe every future run
//! simulates.

#![forbid(unsafe_code)]

pub mod chain;
pub mod cone;
pub mod justify;
pub mod knownbits;
pub mod plan;

pub use cone::{ConeAnalysis, ConeEval, Purity};
pub use justify::{Justifier, Verdict};
pub use knownbits::StaticScreen;
pub use plan::{plan_reseeding, predecessor_seed, ReseedPlan, SeedBlock, TopOffConfig};

use faultsim::{FaultId, FaultUniverse, ParallelFaultSimulator, StageSchedule};
use rtl::Netlist;
use std::collections::BTreeMap;

/// The complete outcome of a top-off pass over one campaign residue.
#[derive(Debug, Clone)]
pub struct TopOff {
    /// Per-fault justification verdicts, in `residue` order.
    pub verdicts: Vec<(FaultId, Verdict)>,
    /// Faults proven unactivatable (subset of `residue`).
    pub untestable: Vec<FaultId>,
    /// The compressed seed/stored-pattern plan.
    pub plan: ReseedPlan,
    /// Residual faults the *verified* plan detects, ascending id.
    pub detected: Vec<FaultId>,
    /// Residual faults neither proven untestable nor detected by the
    /// plan, ascending id. Honest misses — the campaign must report
    /// them.
    pub unresolved: Vec<FaultId>,
}

/// Screens the whole universe for provably-untestable faults (one
/// exhaustive cone sweep, no simulation), ascending id order. Campaigns
/// remove these before simulating. A run that also tops off should
/// build one [`Justifier`] and call [`Justifier::untestable`] and
/// [`top_off_with`] on it instead.
pub fn untestable_faults(
    netlist: &Netlist,
    universe: &FaultUniverse,
    input_bits: u32,
) -> Vec<FaultId> {
    Justifier::new(netlist, input_bits).untestable(universe)
}

/// Runs the full justify → compress → verify pipeline over a campaign
/// residue (`residue` holds parent-universe fault ids, typically
/// [`faultsim::FaultSimResult::missed`]).
///
/// The returned verdict partition is exact:
/// `untestable ∪ detected ∪ unresolved == residue` with the three sets
/// disjoint, and `detected` was measured by re-simulating the plan —
/// every seed block and stored pattern from reset — never inferred.
pub fn top_off(
    netlist: &Netlist,
    universe: &FaultUniverse,
    residue: &[FaultId],
    input_bits: u32,
    cfg: &TopOffConfig,
) -> TopOff {
    top_off_with(&Justifier::new(netlist, input_bits), universe, residue, cfg)
}

/// [`top_off`] on an already-built justifier, so a run that screened
/// with it does not repeat the justifier's exhaustive sweeps.
/// `universe` may be any fault universe over the justifier's netlist.
pub fn top_off_with(
    justifier: &Justifier<'_>,
    universe: &FaultUniverse,
    residue: &[FaultId],
    cfg: &TopOffConfig,
) -> TopOff {
    let (netlist, input_bits) = (justifier.netlist, justifier.input_bits);
    let mut verdicts = Vec::with_capacity(residue.len());
    let mut untestable = Vec::new();
    let mut targets = Vec::new();
    let mut patterns: BTreeMap<FaultId, Vec<i64>> = BTreeMap::new();
    for &id in residue {
        let verdict = justifier.justify(universe.site(id));
        match &verdict {
            Verdict::Untestable => untestable.push(id),
            Verdict::Detected { pattern } => {
                targets.push(id);
                patterns.insert(id, pattern.clone());
            }
            Verdict::Unresolved => targets.push(id),
        }
        verdicts.push((id, verdict));
    }
    untestable.sort_unstable();
    let plan = plan_reseeding(netlist, universe, &targets, &patterns, input_bits, cfg);
    let (detected, unresolved) = verify_plan(netlist, universe, &targets, &plan, input_bits);
    TopOff { verdicts, untestable, plan, detected, unresolved }
}

/// Re-simulates every seed block and stored pattern of `plan` from
/// reset against the target faults, returning the measured
/// `(detected, unresolved)` partition (both ascending id).
pub fn verify_plan(
    netlist: &Netlist,
    universe: &FaultUniverse,
    targets: &[FaultId],
    plan: &ReseedPlan,
    input_bits: u32,
) -> (Vec<FaultId>, Vec<FaultId>) {
    if targets.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let align = netlist.width() - input_bits;
    let sub = universe.subset(targets);
    let sim = ParallelFaultSimulator::new(netlist, &sub)
        .with_schedule(StageSchedule::with_boundaries(vec![]));
    let mut hit = vec![false; targets.len()];
    let mut sequences: Vec<Vec<i64>> =
        plan.seeds.iter().map(|b| plan.expand(b.seed, align)).collect();
    sequences.extend(plan.stored.iter().map(|(_, p)| p.clone()));
    for inputs in &sequences {
        let result = sim.run(inputs);
        for (i, cycle) in result.detection_cycles().iter().enumerate() {
            hit[i] |= cycle.is_some();
        }
    }
    let mut detected: Vec<FaultId> = Vec::new();
    let mut unresolved: Vec<FaultId> = Vec::new();
    for (i, &id) in targets.iter().enumerate() {
        if hit[i] {
            detected.push(id);
        } else {
            unresolved.push(id);
        }
    }
    detected.sort_unstable();
    unresolved.sort_unstable();
    (detected, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::reachability::Reachability;
    use tpg::{Lfsr1, ShiftDirection, TestGenerator};

    fn lp_mini() -> (Netlist, FaultUniverse, u32) {
        let design = filters::designs::lowpass_mini().expect("design LP-MINI");
        let netlist = design.netlist().clone();
        let input_bits = design.spec().input_bits;
        let reach = Reachability::analyze(&netlist, input_bits);
        let universe = FaultUniverse::enumerate_pruned(&netlist, design.claimed_ranges(), &reach);
        (netlist, universe, input_bits)
    }

    fn short_campaign_residue(netlist: &Netlist, universe: &FaultUniverse) -> Vec<FaultId> {
        let mut lfsr = Lfsr1::new(12, ShiftDirection::LsbToMsb).unwrap();
        let inputs: Vec<i64> = (0..256).map(|_| lfsr.next_word() << 4).collect();
        ParallelFaultSimulator::new(netlist, universe).run(&inputs).missed()
    }

    #[test]
    fn top_off_partitions_the_residue_exactly() {
        let (netlist, universe, input_bits) = lp_mini();
        let residue = short_campaign_residue(&netlist, &universe);
        assert!(!residue.is_empty(), "a 256-vector campaign should leave a residue");
        let result = top_off(&netlist, &universe, &residue, input_bits, &TopOffConfig::default());
        assert_eq!(result.verdicts.len(), residue.len());
        let mut all: Vec<FaultId> = result
            .untestable
            .iter()
            .chain(&result.detected)
            .chain(&result.unresolved)
            .copied()
            .collect();
        all.sort_unstable();
        let mut expect = residue;
        expect.sort_unstable();
        assert_eq!(all, expect, "verdict partition must cover the residue exactly");
        // Every justified fault is covered by a seed or stored raw.
        let seed_covered: Vec<FaultId> =
            result.plan.seeds.iter().flat_map(|b| b.covers.iter().copied()).collect();
        for (id, verdict) in &result.verdicts {
            if matches!(verdict, Verdict::Detected { .. }) {
                assert!(
                    seed_covered.contains(id)
                        || result.plan.stored.iter().any(|(sid, _)| sid == id),
                    "justified fault {id:?} neither seed-covered nor stored"
                );
                assert!(result.detected.contains(id), "justified fault {id:?} not verified");
            }
        }
    }

    #[test]
    fn top_off_is_deterministic_across_thread_counts() {
        // The planner and verifier only use the parallel fault
        // simulator (bit-identical at every thread count) plus
        // order-stable greedy selection, so two runs must agree even
        // though intermediate sims pick their own thread counts.
        let (netlist, universe, input_bits) = lp_mini();
        let residue = short_campaign_residue(&netlist, &universe);
        let cfg = TopOffConfig { block_len: 64, max_seeds: 8 };
        let a = top_off(&netlist, &universe, &residue, input_bits, &cfg);
        let b = top_off(&netlist, &universe, &residue, input_bits, &cfg);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.unresolved, b.unresolved);
    }

    #[test]
    fn untestable_screen_agrees_with_the_justifier() {
        let (netlist, universe, input_bits) = lp_mini();
        let screened = untestable_faults(&netlist, &universe, input_bits);
        let justifier = Justifier::new(&netlist, input_bits);
        assert_eq!(screened, justifier.untestable(&universe));
    }
}
