//! First activations: the cycle in which each fault can first make its
//! machine differ from the good machine.
//!
//! A fault sits on one full-adder cell. In a cycle where the fault-free
//! operands of that cell (`a`, `b` and the carry-in, read from the tape
//! ops the fault patches; a subtractor's `b` complemented) form a
//! combination on which the injected stuck-at line leaves the cell's sum
//! and carry as they are, the faulty cell computes exactly what the good
//! cell computes. The fault model is one stuck-at fault per machine and
//! the netlist has no feedback, so the cell's operands never depend on
//! the cell itself: until the fault's first *activation* F — the first
//! cycle whose combination changes the sum or the carry — the faulty
//! machine is the good machine, register state included. The staged
//! simulator therefore leaves a fault out of every stage that ends at or
//! before F, and enters it from the good state afterwards.
//!
//! The pass runs the fault-free machine as one cycle-lane word (the
//! `cycle` module), 64 cycles per block, and reads each watched cell's
//! operand planes from the block before the next block overwrites them.
//! It keeps one `u32` per fault and stops once every fault is
//! activated.

use crate::cone::input_planes;
use crate::cycle::{LaneMachine, LaneProgram};
use crate::fault::FaultUniverse;
use crate::kernel::Tape;
use rtl::fulladder::{eval_faulty, eval_good, FaFault};

/// The first activation of a fault the test never activates.
pub(crate) const NEVER: u32 = u32::MAX;

/// The cell input combinations `abc` (bit 2 `a`, bit 1 `b`, bit 0 the
/// carry-in, the cell-test numbering of [`rtl::fulladder`]) on which
/// `fault` changes the cell's sum or carry.
fn activating_combos(fault: FaFault) -> u8 {
    (0u8..8).fold(0, |mask, t| {
        let (a, b, ci) = (t & 4 != 0, t & 2 != 0, t & 1 != 0);
        let differs = eval_faulty(a, b, ci, fault) != eval_good(a, b, ci);
        mask | (u8::from(differs) << t)
    })
}

/// [`activating_combos`] of every stuck-at fault, by `2 * line + stuck`.
fn combo_table() -> [u8; 32] {
    let mut table = [0u8; 32];
    for fault in FaFault::all() {
        table[2 * fault.line as usize + usize::from(fault.stuck_one)] = activating_combos(fault);
    }
    table
}

/// One patched tape op and the faults on it not yet activated, each
/// with its activating combinations.
struct Watch {
    a: u32,
    b: u32,
    c: u32,
    negate_b: bool,
    pending: Vec<(u32, u8)>,
}

/// Each fault's first activation under `inputs`, indexed by
/// [`crate::FaultId::index`]: the first cycle in which the fault-free
/// operands of one of the tape ops its cell drives
/// ([`Tape::cell_ops`]) form an activating combination, or [`NEVER`].
/// `program` is the whole tape compiled for cycle-lane execution
/// (`Cone::full`). Lanes past the last cycle of a partial final block
/// are never read as activations.
pub(crate) fn first_activations(
    tape: &Tape,
    program: &LaneProgram,
    universe: &FaultUniverse,
    inputs: &[i64],
) -> Vec<u32> {
    let mut first = vec![NEVER; universe.len()];
    let table = combo_table();
    // One watch per op of each run of neighbouring sites on one cell (a
    // universe lists a cell's classes together; a cell split across
    // runs only gets more watches).
    let ops = &tape.ops;
    let mut watches: Vec<Watch> = Vec::new();
    let mut next = 0u32;
    for run in universe.sites().chunk_by(|x, y| (x.node, x.cell) == (y.node, y.cell)) {
        let pending: Vec<(u32, u8)> = (next..)
            .zip(run)
            .map(|(i, site)| {
                let f = site.representative;
                (i, table[2 * f.line as usize + usize::from(f.stuck_one)])
            })
            .collect();
        next += run.len() as u32;
        for op in tape.cell_ops(run[0].node.index() as u32, run[0].cell) {
            let o = op as usize;
            let negate_b = tape.kind[o].negates_b();
            let pending = pending.clone();
            watches.push(Watch { a: ops.a[o], b: ops.b[o], c: ops.c[o], negate_b, pending });
        }
    }

    let mut machine = LaneMachine::new(tape, program, Vec::new(), &[]);
    let mut input = vec![0u64; tape.width];
    for block in 0..inputs.len().div_ceil(64) {
        if watches.is_empty() {
            break;
        }
        input_planes(inputs, block, &mut input);
        machine.run_block(&input, &[], 0);
        let base = 64 * block as u32;
        let lanes = inputs.len() - 64 * block;
        let valid = if lanes >= 64 { !0u64 } else { (1u64 << lanes) - 1 };
        for watch in &mut watches {
            let a = machine.tape_plane(0, watch.a);
            let b = machine.tape_plane(0, watch.b) ^ if watch.negate_b { !0 } else { 0 };
            let c = machine.tape_plane(0, watch.c);
            let pick = |plane: u64, bit: bool| if bit { plane } else { !plane };
            let mut at = [0u64; 8];
            let mut seen = 0u8;
            for (t, lanes) in at.iter_mut().enumerate() {
                *lanes = pick(a, t & 4 != 0) & pick(b, t & 2 != 0) & pick(c, t & 1 != 0) & valid;
                seen |= u8::from(*lanes != 0) << t;
            }
            // A fault on two ops (a carry-save cell) takes the earlier
            // of the two; one found on another op this block leaves
            // this op's list too.
            watch.pending.retain(|&(fault, combos)| {
                let slot = &mut first[fault as usize];
                if combos & seen != 0 {
                    let hit = at.iter().enumerate().fold(0, |hit, (t, &lanes)| {
                        hit | (lanes & u64::from((combos >> t) & 1).wrapping_neg())
                    });
                    *slot = (*slot).min(base + hit.trailing_zeros());
                }
                *slot == NEVER
            });
        }
        watches.retain(|w| !w.pending.is_empty());
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::{Cone, ConeIndex};
    use rtl::fulladder::{Line, ALL_LINES};
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::sim::BitSlicedSim;
    use rtl::{NetlistBuilder, NodeKind};

    #[test]
    fn every_stuck_line_changes_the_cell_on_some_combination() {
        for line in ALL_LINES {
            for stuck_one in [false, true] {
                assert_ne!(activating_combos(FaFault { line, stuck_one }), 0, "{line:?}");
            }
        }
        // The sum stuck at 0 shows exactly where the good sum is 1.
        let sum_sa0 = activating_combos(FaFault { line: Line::Sum, stuck_one: false });
        assert_eq!(sum_sa0, 0b1001_0110);
    }

    #[test]
    fn first_activations_match_a_per_cycle_scan_on_random_netlists() {
        // The block pass against the walker's lane-0 operand values,
        // cycle by cycle, including tests that end mid-block.
        testkit::for_each_seed(0xAC71_0000, 40, |seed| {
            let mut rng = testkit::Rng::new(seed);
            let width = 4 + rng.below(7) as u32;
            let nodes = 3 + rng.below(16);
            let n = testkit::random_netlist(&mut rng, width, nodes);
            let ranges = RangeAnalysis::analyze(&n, aligned_input_range(width, width));
            let n = if rng.chance(2) { n.with_sign_trimming(&ranges) } else { n };
            let universe = FaultUniverse::enumerate(&n, &ranges);
            let zeros = rng.below(150);
            let inputs: Vec<i64> = (0..1 + rng.below(300))
                .map(|i| if i < zeros { 0 } else { rng.signed(width) })
                .collect();
            let tape = Tape::compile(&n);
            let index = ConeIndex::new(&n, &tape, &universe);
            let program = LaneProgram::compile(&index, &Cone::full(&tape));
            let first = first_activations(&tape, &program, &universe, &inputs);

            let mut expected = vec![NEVER; universe.len()];
            let mut walker = BitSlicedSim::new(&n);
            for (cycle, &x) in inputs.iter().enumerate() {
                walker.step(x);
                let bit = |node: rtl::NodeId, b: u32| (walker.lane_value(node, 0) >> b) & 1 == 1;
                for (i, site) in universe.sites().iter().enumerate() {
                    if expected[i] != NEVER {
                        continue;
                    }
                    let (a, b, ci) = match n.node(site.node).kind {
                        NodeKind::CsaSum { a, b, c } => {
                            (bit(a, site.cell), bit(b, site.cell), bit(c, site.cell))
                        }
                        NodeKind::Add { a, b } | NodeKind::Sub { a, b } => {
                            let sub = matches!(n.node(site.node).kind, NodeKind::Sub { .. });
                            let mask = (1i64 << site.cell) - 1;
                            let (av, bv) = (walker.lane_value(a, 0), walker.lane_value(b, 0));
                            let bv = if sub { !bv } else { bv };
                            // The carry into the cell: the carry out of
                            // the low bits' sum.
                            let low = (av & mask) + (bv & mask) + i64::from(sub);
                            let ci = (low >> site.cell) & 1 == 1;
                            (bit(a, site.cell), bit(b, site.cell) ^ sub, ci)
                        }
                        ref other => panic!("fault on {other:?}"),
                    };
                    let t = (u8::from(a) << 2) | (u8::from(b) << 1) | u8::from(ci);
                    let hardware = tape.cell_ops(site.node.index() as u32, site.cell).count() > 0;
                    if hardware && activating_combos(site.representative) & (1 << t) != 0 {
                        expected[i] = cycle as u32;
                    }
                }
            }
            assert_eq!(first, expected);
        });
    }

    #[test]
    fn an_all_zero_test_activates_only_the_faults_combination_zero_shows() {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let y = b.add(x, d);
        b.output(y, "y");
        let n = b.finish().unwrap();
        let universe =
            FaultUniverse::enumerate(&n, &RangeAnalysis::analyze(&n, aligned_input_range(8, 8)));
        let tape = Tape::compile(&n);
        let index = ConeIndex::new(&n, &tape, &universe);
        let program = LaneProgram::compile(&index, &Cone::full(&tape));
        let first = first_activations(&tape, &program, &universe, &[0; 100]);
        for (site, &f) in universe.sites().iter().zip(&first) {
            let zero = activating_combos(site.representative) & 1 != 0;
            assert_eq!(f, if zero { 0 } else { NEVER }, "{site}");
        }
        assert!(first.contains(&NEVER) && first.contains(&0));
    }
}
