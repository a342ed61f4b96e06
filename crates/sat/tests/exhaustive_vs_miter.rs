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
//! resetting the prover's working pair between faults leaks nothing.
//!
//! The generator is a hand-rolled xorshift, so the suite builds
//! offline. A failure names its seed, and `BIST_RANDOM_SEED=<seed>`
//! replays just that case.

use bist_sat::{FaultSpec, FaultVerdict, PruneConfig, RedundancyProver};
use faultsim::FaultUniverse;
use rtl::range::{aligned_input_range, RangeAnalysis};
use rtl::sim::{BitSlicedSim, CellFault};
use rtl::{Netlist, NetlistBuilder, NodeId};
use std::panic::{catch_unwind, AssertUnwindSafe};

const WIDTH: u32 = 6;
const INPUT_BITS: u32 = 4;

/// Seeded random cones per run; those deeper than two registers are
/// skipped, because enumeration costs `16^(depth + 1)` per fault.
const CASES: u64 = 48;

#[derive(Debug, Clone)]
enum Op {
    Register(usize),
    ShiftRight(usize, u32),
    Add(usize, usize),
    Sub(usize, usize),
}

fn build(ops: &[Op]) -> Netlist {
    let mut b = NetlistBuilder::new(WIDTH).expect("width valid");
    let mut ids: Vec<NodeId> = vec![b.input("x")];
    for op in ops {
        let pick = |i: usize| ids[i % ids.len()];
        let id = match *op {
            Op::Register(s) => b.register(pick(s)),
            Op::ShiftRight(s, k) => b.shift_right(pick(s), k),
            Op::Add(a, c) => b.add(pick(a), pick(c)),
            Op::Sub(a, c) => b.sub(pick(a), pick(c)),
        };
        ids.push(id);
    }
    let last = *ids.last().expect("nonempty");
    b.output(last, "y");
    b.finish().expect("DAG by construction")
}

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
    build(&[
        Op::Register(0),
        Op::ShiftRight(0, 2),
        Op::ShiftRight(1, 1),
        Op::Add(2, 3),
        Op::Register(4),
        Op::Add(4, 5),
    ])
}

/// A fold-and-difference line, the symmetric-architecture shape.
fn fold_diff() -> Netlist {
    build(&[
        Op::Register(0),
        Op::Register(1),
        Op::Add(0, 2),
        Op::ShiftRight(3, 1),
        Op::Sub(3, 4),
        Op::Add(5, 1),
    ])
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

/// Marsaglia xorshift64: small, seedable, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // Splitmix the seed so neighbouring seeds diverge at once.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Two to seven ops over sources `0..8` (wrapped onto the nodes built
/// so far), shifts by `0..4`.
fn random_ops(rng: &mut XorShift) -> Vec<Op> {
    const MAX_SRC: usize = 8;
    let len = 2 + rng.below(6);
    (0..len)
        .map(|_| match rng.below(4) {
            0 => Op::Register(rng.below(MAX_SRC)),
            1 => Op::ShiftRight(rng.below(MAX_SRC), rng.below(4) as u32),
            2 => Op::Add(rng.below(MAX_SRC), rng.below(MAX_SRC)),
            _ => Op::Sub(rng.below(MAX_SRC), rng.below(MAX_SRC)),
        })
        .collect()
}

/// Cross-checks one seeded random cone; false when it is too deep to
/// enumerate and was skipped.
fn check_case(seed: u64) -> bool {
    let ops = random_ops(&mut XorShift::new(seed));
    let n = build(&ops);
    if RedundancyProver::new(&n, INPUT_BITS).memory_depth() > 2 {
        return false;
    }
    cross_check(&n, 5);
    true
}

/// The seed `BIST_RANDOM_SEED` names (decimal or `0x` hex), if set.
fn replay_seed() -> Option<u64> {
    let raw = std::env::var("BIST_RANDOM_SEED").ok()?;
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("BIST_RANDOM_SEED={raw} is not a number")))
}

#[test]
fn miter_matches_exhaustive_enumeration_on_random_cones() {
    let replay = replay_seed();
    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..CASES).map(|i| 0x5A7_0000 + i).collect(),
    };
    let mut checked = 0;
    for &seed in &seeds {
        match catch_unwind(AssertUnwindSafe(|| check_case(seed))) {
            Ok(ran) => checked += usize::from(ran),
            Err(cause) => {
                let msg = cause
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| cause.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                panic!(
                    "random miter cross-check failed for seed {seed:#x} \
                     (replay with BIST_RANDOM_SEED={seed:#x}): {msg}"
                );
            }
        }
    }
    if replay.is_none() {
        assert!(
            2 * checked >= seeds.len(),
            "only {checked} of {} cones were shallow enough",
            seeds.len()
        );
    }
}
