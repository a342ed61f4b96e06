//! Seeded randomized checks of the word-level model over random
//! netlists.
//!
//! Each case draws a single-input netlist over every builder node kind
//! (constants, inverters, set-lsb ties, carry-save sum/carry pairs,
//! registers and register chains, shifts, adders and subtractors;
//! sometimes with a second output), an input narrower than or as wide
//! as the datapath, sometimes sign trimming, and a stimulus of aligned
//! input samples. The reference is [`ScalarSim`], the plain simulator
//! over [`bist_rtl::eval`]'s one word-level model. Every cycle, at
//! every node:
//!
//! * the bit-sliced simulator's lanes 0 and 17 carry the reference
//!   word;
//! * the word lies inside its range-analysis interval, with its
//!   claimed-zero low bits zero;
//! * every arithmetic cell's [`cell_combos`] combination is one the
//!   reachability analysis admits, its parity is the node's sum bit
//!   and the carry it generates is the next cell's carry-in.
//!
//! The single-sample cone evaluator (`atpg::ConeEval`) must also give
//! every input-pure node the word the reference holds once the sample
//! has filled the pipeline.
//!
//! Netlists come from `testkit::random_netlist`. The suite runs
//! [`CASES`] seeded cases; a failure names its seed, and
//! `BIST_RANDOM_SEED=<seed>` replays just that case.

use atpg::{ConeAnalysis, ConeEval, Purity};
use bist_rtl::eval::{cell_combos, ScalarSim};
use bist_rtl::range::{aligned_input_range, RangeAnalysis};
use bist_rtl::reachability::Reachability;
use bist_rtl::sim::BitSlicedSim;
use bist_rtl::{Netlist, NodeId, NodeKind};
use testkit::{for_each_seed, random_netlist, Rng};

/// Seeded cases per run.
const CASES: u64 = 128;

/// Cycles of stimulus per case.
const CYCLES: usize = 48;

/// Bit `i` of a raw word.
fn bit(q: fixedpoint::QFormat, word: i64, i: u32) -> u8 {
    ((q.to_bits(word) >> i) & 1) as u8
}

/// The carry a full-adder cell generates from its combination.
fn carry_out(combo: u8) -> u8 {
    u8::from(combo.count_ones() >= 2)
}

/// Checks one node's cell combinations against the reference words:
/// admitted by reachability, sum bit = parity, carry chained up.
fn check_cells(netlist: &Netlist, reach: &Reachability, id: NodeId, values: &[i64]) {
    let q = netlist.format();
    let kind = netlist.node(id).kind;
    let combos = cell_combos(q, kind, values);
    for cell in 0..netlist.width() {
        let combo = combos[cell as usize];
        let mask = reach.combo_mask(id, cell);
        assert_ne!(mask & (1 << combo), 0, "{id} cell {cell}: combo {combo} outside {mask:08b}");
    }
    // Ripple cells above the trimmed top are sign wiring.
    let top = match kind {
        NodeKind::CsaSum { .. } => netlist.width() - 1,
        _ => netlist.msb_trim(id),
    };
    for cell in 0..=top {
        let combo = combos[cell as usize];
        let sum = (combo.count_ones() & 1) as u8;
        assert_eq!(sum, bit(q, values[id.index()], cell), "{id} cell {cell}: sum bit");
        if cell < top && !matches!(kind, NodeKind::CsaSum { .. }) {
            let ci = combos[cell as usize + 1] & 1;
            assert_eq!(ci, carry_out(combo), "{id} cell {cell}: carry into the next cell");
        }
    }
}

/// A carry-save carry word is the cells' generated carries, shifted.
fn check_csa_carry(netlist: &Netlist, carry: NodeId, sum: NodeId, values: &[i64]) {
    let q = netlist.format();
    let combos = cell_combos(q, netlist.node(sum).kind, values);
    assert_eq!(bit(q, values[carry.index()], 0), 0, "{carry}: carry word bit 0");
    for cell in 0..netlist.width() - 1 {
        let expect = carry_out(combos[cell as usize]);
        assert_eq!(bit(q, values[carry.index()], cell + 1), expect, "{carry} cell {cell}: carry");
    }
}

fn check_case(seed: u64) {
    let mut rng = Rng::new(seed);
    let width = 4 + rng.below(9) as u32; // 4..=12
    let input_bits = width - rng.below(4) as u32;
    let nodes = 3 + rng.below(16);
    let netlist = random_netlist(&mut rng, width, nodes);
    let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(input_bits, width));
    let netlist = if rng.below(2) == 0 { netlist.with_sign_trimming(&ranges) } else { netlist };
    let reach = Reachability::analyze(&netlist, input_bits);
    let align = width - input_bits;
    let samples: Vec<i64> = (0..CYCLES).map(|_| rng.signed(input_bits) << align).collect();

    let mut scalar = ScalarSim::new(&netlist);
    let mut walker = BitSlicedSim::new(&netlist);
    for (cycle, &x) in samples.iter().enumerate() {
        scalar.step(x);
        walker.step(x);
        let values = scalar.values();
        for id in netlist.node_ids() {
            let word = values[id.index()];
            let kind = netlist.node(id).kind;
            for lane in [0, 17] {
                assert_eq!(
                    walker.lane_value(id, lane),
                    word,
                    "cycle {cycle} {id} {kind:?} lane {lane}"
                );
            }
            let r = ranges.range(id);
            assert!(
                r.lo <= word && word <= r.hi,
                "{id} {kind:?}: {word} outside [{}, {}]",
                r.lo,
                r.hi
            );
            let low = (1i64 << r.zero_lsbs.min(62)) - 1;
            assert_eq!(word & low, 0, "{id} {kind:?}: {word} below {} zero LSBs", r.zero_lsbs);
            match kind {
                NodeKind::Add { .. } | NodeKind::Sub { .. } | NodeKind::CsaSum { .. } => {
                    check_cells(&netlist, &reach, id, values);
                }
                NodeKind::CsaCarry { sum, .. } => check_csa_carry(&netlist, id, sum, values),
                _ => {}
            }
        }
    }

    // A held sample fills every delay line; input-pure nodes then
    // hold the cone evaluator's single-sample word.
    let cone = ConeAnalysis::analyze(&netlist);
    let mut eval = ConeEval::new(&netlist, input_bits);
    for &x in samples.iter().take(6) {
        eval.eval(x >> align);
        scalar.reset();
        for _ in 0..=netlist.register_indices().len() {
            scalar.step(x);
        }
        for id in netlist.node_ids() {
            if cone.purity(id) != Purity::Window {
                assert_eq!(eval.value(id), scalar.values()[id.index()], "{id}: cone word");
            }
        }
    }
}

#[test]
fn word_model_agrees_with_the_simulator_and_the_analyses() {
    for_each_seed(0x0E7A_0000, CASES, check_case);
}
