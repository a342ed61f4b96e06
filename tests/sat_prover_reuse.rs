//! The redundancy prover keeps one working circuit/solver pair and resets
//! it from the good-machine base before each fault. That reuse must be
//! invisible: proving a candidate list with one `prove_faults` call must
//! give exactly the verdicts, witnesses and summed search counts of a
//! fresh prover per fault. A reset that leaks anything from one fault to
//! the next (a learnt clause, a saved phase, an activity, a stale emitted
//! literal) moves a later fault's search and fails here.
//!
//! The candidates are LP-MINI's three redundant residue faults (the ones
//! `sat_golden` pins: long UNSAT searches that reduce their learnt
//! clauses), and the first six and last four ATPG screen candidates of
//! LP-CSA at a 200-conflict budget, the `proof-topoff` benchmark's
//! setting. That covers proofs, out-of-budget queries and faults whose
//! miter folds to a constant.

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

#[test]
fn lp_csa_screen_candidates_are_identical_on_a_reused_prover() {
    let design = filters::designs::lowpass_carry_save().expect("LP-CSA");
    let session = BistSession::new(&design).expect("session");
    let universe = session.universe();
    let screen = atpg::untestable_faults(design.netlist(), universe, design.spec().input_bits);
    assert!(screen.len() >= 10, "LP-CSA keeps {} screen candidates", screen.len());
    let picked = screen[..6].iter().chain(&screen[screen.len() - 4..]);
    let candidates: Vec<sat::FaultSpec> = picked.map(|&id| spec_for(universe, id)).collect();
    let outcome = assert_reuse_invisible(&design, &candidates, 200);
    assert!(outcome.unknown > 0, "some query runs out of its budget");
    assert!(outcome.redundant > 0, "some fault is proven redundant");
}
