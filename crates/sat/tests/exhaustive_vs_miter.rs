//! Exhaustive ground truth for the per-fault miter: on cones small
//! enough to enumerate *every* aligned input sequence of length
//! `memory_depth + 1`, the brute-force detectability verdict and the
//! SAT verdict must agree exactly — `Detectable` iff some sequence
//! diverges the faulty machine, `Redundant` iff none does, and every
//! witness must replay through the bit-sliced simulator.
//!
//! Two fixed LP-MINI-shaped fixtures (tapped delay lines with shifts,
//! adds and subs) run first, then [`CASES`] seeded random cones. Each
//! cone proves many faults on one prover, so the suite also checks that
//! truncating the prover's circuit between faults leaks nothing.
//!
//! The random cones come from `testkit::random_netlist`, over every
//! node kind. A failure names its seed, and `BIST_RANDOM_SEED=<seed>`
//! replays just that case.

use bist_sat::{FaultSpec, FaultVerdict, PruneConfig, RedundancyProver};
use faultsim::FaultUniverse;
use rtl::range::{aligned_input_range, RangeAnalysis};
use rtl::sim::{BitSlicedSim, CellFault};
use rtl::{Netlist, NetlistBuilder};
use testkit::{for_each_seed, random_netlist, replay_seed, Rng};

const WIDTH: u32 = 6;
const INPUT_BITS: u32 = 4;

/// Seeded random cones per run; those deeper than two registers are
/// skipped, because enumeration costs `16^(depth + 1)` per fault.
const CASES: u64 = 48;

fn universe_of(n: &Netlist) -> FaultUniverse {
    let ranges = RangeAnalysis::analyze(n, aligned_input_range(INPUT_BITS, WIDTH));
    let reach = rtl::reachability::Reachability::analyze(n, INPUT_BITS);
    FaultUniverse::enumerate_pruned(n, &ranges, &reach)
}

/// Brute-force detectability: every aligned input sequence of length
/// `depth + 1` from reset, output diff checked after every step.
fn brute_force_detectable(netlist: &Netlist, fault: &FaultSpec, depth: usize) -> bool {
    let align = WIDTH - INPUT_BITS;
    let words: Vec<i64> =
        (0..1u64 << INPUT_BITS).map(|raw| netlist.format().sign_extend(raw << align)).collect();
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

fn witness_replays(netlist: &Netlist, fault: &FaultSpec, witness: &[i64]) -> bool {
    let mut sim = BitSlicedSim::new(netlist);
    sim.set_faults(
        fault.node,
        vec![CellFault { cell: fault.cell, fault: fault.fault, lanes: 1 << 1 }],
    );
    let mut diff = false;
    for &w in witness {
        sim.step(w);
        diff = sim.output_diff_lanes(0) & (1 << 1) != 0;
    }
    diff
}

/// Proves every `stride`-th fault of the netlist's universe and checks
/// the verdict against exhaustive enumeration. Returns the number of
/// faults compared.
fn cross_check(netlist: &Netlist, stride: usize) -> usize {
    let universe = universe_of(netlist);
    let mut prover = RedundancyProver::new(netlist, INPUT_BITS);
    let depth = prover.memory_depth() as usize;
    let mut checked = 0usize;
    for id in universe.ids().step_by(stride.max(1)) {
        let site = universe.site(id);
        let fault = FaultSpec { node: site.node, cell: site.cell, fault: site.representative };
        let oracle = brute_force_detectable(netlist, &fault, depth);
        match prover.prove(&fault, PruneConfig::default().max_conflicts) {
            FaultVerdict::Detectable { witness } => {
                assert!(oracle, "miter witnessed fault {id:?} but enumeration finds no test");
                assert!(witness_replays(netlist, &fault, &witness), "witness fails replay");
            }
            FaultVerdict::Redundant => {
                assert!(!oracle, "miter proved fault {id:?} UNSAT but enumeration found a test");
            }
            FaultVerdict::Unknown => {
                panic!("cone-sized proof for fault {id:?} must not exhaust its budget")
            }
        }
        checked += 1;
    }
    checked
}

/// A two-tap accumulate: the LP-MINI shape in miniature.
fn two_tap() -> Netlist {
    let mut b = NetlistBuilder::new(WIDTH).expect("width valid");
    let x = b.input("x");
    let d1 = b.register(x);
    let t0 = b.shift_right(x, 2);
    let t1 = b.shift_right(d1, 1);
    let sum = b.add(t0, t1);
    let acc = b.register(sum);
    let y = b.add(sum, acc);
    b.output(y, "y");
    b.finish().expect("DAG by construction")
}

/// A fold-and-difference line, the symmetric-architecture shape.
fn fold_diff() -> Netlist {
    let mut b = NetlistBuilder::new(WIDTH).expect("width valid");
    let x = b.input("x");
    let d1 = b.register(x);
    let d2 = b.register(d1);
    let fold = b.add(x, d2);
    let half = b.shift_right(fold, 1);
    let diff = b.sub(fold, half);
    let y = b.add(diff, d1);
    b.output(y, "y");
    b.finish().expect("DAG by construction")
}

#[test]
fn miter_matches_exhaustive_enumeration_on_the_two_tap_cone() {
    let n = two_tap();
    let checked = cross_check(&n, 3);
    assert!(checked >= 20, "only {checked} faults compared");
}

#[test]
fn miter_matches_exhaustive_enumeration_on_the_fold_cone() {
    let n = fold_diff();
    let checked = cross_check(&n, 3);
    assert!(checked >= 20, "only {checked} faults compared");
}

/// Cross-checks one seeded random cone of two to seven node draws;
/// false when it is too deep to enumerate and was skipped.
fn check_case(seed: u64) -> bool {
    let mut rng = Rng::new(seed);
    let nodes = 2 + rng.below(6);
    let n = random_netlist(&mut rng, WIDTH, nodes);
    if RedundancyProver::new(&n, INPUT_BITS).memory_depth() > 2 {
        return false;
    }
    cross_check(&n, 5);
    true
}

#[test]
fn miter_matches_exhaustive_enumeration_on_random_cones() {
    let mut checked = 0;
    for_each_seed(0x5A7_0000, CASES, |seed| checked += usize::from(check_case(seed)));
    if replay_seed().is_none() {
        assert!(2 * checked as u64 >= CASES, "only {checked} of {CASES} cones were shallow enough");
    }
}
