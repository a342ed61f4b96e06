//! The redundancy prover proves every fault from the same good-machine
//! gate graph, truncating its circuit back to it and starting an empty
//! solver per fault. That reset must be invisible: proving a candidate
//! list with one `prove_faults` call must give exactly the verdicts,
//! witnesses and summed search counts of a fresh prover per fault. A
//! reset that leaks anything from one fault to the next (a faulty gate,
//! a stale hash-cons entry or emitted literal) moves a later fault's
//! search and fails here.
//!
//! The candidates are LP-MINI's three redundant residue faults (the ones
//! `sat_golden` pins: long UNSAT searches that reduce their learnt
//! clauses), and all 28 ATPG screen candidates of LP-CSA at a
//! 200-conflict budget, the `proof-topoff` benchmark's setting, with
//! each one's verdict pinned. That covers proofs, out-of-budget queries
//! and faults whose miter folds to a constant.

use bist_core::BistSession;
use faultsim::{FaultId, FaultUniverse};
use filters::FilterDesign;
use rtl::reachability::Reachability;

fn spec_for(universe: &FaultUniverse, id: FaultId) -> sat::FaultSpec {
    let site = universe.site(id);
    sat::FaultSpec { node: site.node, cell: site.cell, fault: site.representative }
}

/// The search counts `prove_faults` sums over its queries.
fn counts(stats: &sat::SolverStats) -> [u64; 5] {
    [stats.conflicts, stats.decisions, stats.propagations, stats.restarts, stats.learnts]
}

/// Proves `candidates` on one prover and again on a fresh prover per
/// fault, asserts the two agree, and returns the shared outcome.
fn assert_reuse_invisible(
    design: &FilterDesign,
    candidates: &[sat::FaultSpec],
    max_conflicts: u64,
) -> sat::PruneOutcome {
    let netlist = design.netlist();
    let input_bits = design.spec().input_bits;
    let config = sat::PruneConfig { max_conflicts };
    let shared = sat::prove_faults(netlist, input_bits, candidates, &config);

    let mut summed = [0u64; 5];
    let mut confirmed = 0;
    for (i, fault) in candidates.iter().enumerate() {
        let alone = sat::prove_faults(netlist, input_bits, &[*fault], &config);
        assert_eq!(
            shared.verdicts[i].1,
            alone.verdicts[0].1,
            "{}: candidate {i} ({}[cell {}]) got a different verdict on a reused prover",
            design.spec().name,
            fault.node,
            fault.cell,
        );
        for (sum, n) in summed.iter_mut().zip(counts(&alone.stats)) {
            *sum += n;
        }
        confirmed += alone.witnesses_confirmed;
    }
    assert_eq!(
        counts(&shared.stats),
        summed,
        "{}: summed conflicts/decisions/propagations/restarts/learnts differ on a reused prover",
        design.spec().name,
    );
    assert_eq!(shared.witnesses_confirmed, confirmed);
    shared
}

#[test]
fn lp_mini_residue_proofs_are_identical_on_a_reused_prover() {
    let design = filters::designs::lowpass_mini().expect("LP-MINI");
    let netlist = design.netlist();
    let reach = Reachability::analyze(netlist, design.spec().input_bits);
    let universe = FaultUniverse::enumerate_pruned(netlist, design.claimed_ranges(), &reach);
    // The redundant faults of `sat_golden`'s LP-MINI residue.
    let candidates: Vec<sat::FaultSpec> =
        [2446, 4331, 6370].map(|id| spec_for(&universe, FaultId(id))).to_vec();
    let outcome = assert_reuse_invisible(&design, &candidates, 100_000);
    assert_eq!(outcome.redundant, 3, "all three residue faults are proven redundant");
}

/// LP-CSA's 28 ATPG screen candidates, in screen order.
fn lp_csa_candidates(design: &FilterDesign) -> Vec<sat::FaultSpec> {
    let session = BistSession::new(design).expect("session");
    let universe = session.universe();
    let screen = atpg::untestable_faults(design.netlist(), universe, design.spec().input_bits);
    screen.iter().map(|&id| spec_for(universe, id)).collect()
}

/// The screen positions of the LP-CSA candidates proven redundant at
/// budget 200: four faults on one carry-save cell whose miters fold to
/// constants. The other 24 run out of budget.
const LP_CSA_REDUNDANT: [usize; 4] = [24, 25, 26, 27];

#[test]
fn lp_csa_screen_candidates_are_identical_on_a_reused_prover() {
    let design = filters::designs::lowpass_carry_save().expect("LP-CSA");
    let candidates = lp_csa_candidates(&design);
    assert_eq!(candidates.len(), 28, "LP-CSA screen candidates");
    let outcome = assert_reuse_invisible(&design, &candidates, 200);
    let redundant: Vec<usize> = (0..candidates.len())
        .filter(|&i| outcome.verdicts[i].1 == sat::FaultVerdict::Redundant)
        .collect();
    assert_eq!(redundant, LP_CSA_REDUNDANT, "candidates proven redundant");
    assert_eq!(outcome.unknown, 24, "the rest run out of budget");
    assert_eq!(outcome.detectable, 0);
}

/// Every LP-CSA query runs on a solver that holds only its cone of
/// influence: under a tenth of the good machine's full unroll.
#[test]
fn lp_csa_queries_hold_a_small_fraction_of_the_good_unroll() {
    let design = filters::designs::lowpass_carry_save().expect("LP-CSA");
    let netlist = design.netlist();
    let input_bits = design.spec().input_bits;
    let mut enc = sat::NetlistEncoder::new(netlist, input_bits);
    let mut good = sat::Circuit::new();
    enc.ensure_frames(&mut good, enc.memory_depth() as usize);
    let config = sat::PruneConfig { max_conflicts: 200 };
    for (i, fault) in lp_csa_candidates(&design).iter().enumerate() {
        let outcome = sat::prove_faults(netlist, input_bits, &[*fault], &config);
        assert!(
            outcome.solver_vars * 10 < good.len() as u64,
            "candidate {i}: {} solver variables against {} good-machine gates",
            outcome.solver_vars,
            good.len(),
        );
        assert!(outcome.faulty_gates * 10 < good.len() as u64, "candidate {i}");
    }
}
