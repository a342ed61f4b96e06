//! Exact input-cone reachability analysis: which `(a, b, carry)`
//! combinations each full-adder cell can actually see.
//!
//! The constant-coefficient multipliers of a CSD filter add *shifted
//! copies of the same input word*, so their cells' inputs are strongly
//! correlated: many of the eight `(a, b, ci)` combinations can never
//! occur, and any fault distinguishable only under an unreachable
//! combination is provably redundant. The paper removes exactly these
//! ("further optimizations can be performed on the upper bits of many
//! adders to eliminate redundancies that are induced by signal
//! constraints").
//!
//! For *pure* adders — arithmetic nodes whose operands are combinational
//! functions of the current input word — the analysis is exact: every
//! possible input word is enumerated (there are only `2^input_bits`)
//! and each cell's reachable-combination mask is recorded. For adders
//! with state-dependent operands (the accumulation chain), any operand
//! that is itself pure contributes an exact per-cell *bit marginal*
//! (can the operand bit be 0? be 1?), which soundly restricts the
//! combination mask without assuming anything about the other inputs.

use crate::eval::{cell_combos, node_word};
use crate::node::{NodeId, NodeKind};
use crate::Netlist;

/// Reachable-combination masks for the arithmetic nodes of a netlist.
/// Both tables are indexed by node index.
#[derive(Debug, Clone)]
pub struct Reachability {
    /// Exact per-cell combo masks for pure adders (bit `t` set ⇔
    /// `abc = t` reachable).
    joint: Vec<Option<Vec<u8>>>,
    /// Per-cell marginals for non-pure adders, as combo masks built
    /// from any pure operand's reachable bit values.
    marginal: Vec<Option<Vec<u8>>>,
}

impl Reachability {
    /// Runs the analysis, enumerating every value of a `input_bits`-wide
    /// input left-aligned into the datapath.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have exactly one input, or
    /// `input_bits` exceeds 20 (the enumeration would be excessive).
    pub fn analyze(netlist: &Netlist, input_bits: u32) -> Reachability {
        assert!(input_bits <= 20, "input enumeration of 2^{input_bits} values is excessive");
        let inputs = netlist.input_ids();
        assert_eq!(inputs.len(), 1, "reachability analysis needs exactly one input");
        let input = inputs[0];
        let width = netlist.width();
        let align = width - input_bits;
        let q = netlist.format();

        let pure = pure_nodes(netlist);
        let n = netlist.nodes().len();

        // Joint masks for pure arithmetic nodes; bit-value marginals
        // (bit0: value-0 seen, bit1: value-1 seen) per cell for every
        // pure node (for the marginal constraints of non-pure adders).
        let cells = width as usize;
        let mut joint: Vec<Option<Vec<u8>>> = vec![None; n];
        let mut seen_bits: Vec<Option<Vec<u8>>> = vec![None; n];
        for (i, node) in netlist.nodes().iter().enumerate() {
            if pure[i] {
                seen_bits[i] = Some(vec![0u8; cells]);
                if node.kind.is_arithmetic() {
                    joint[i] = Some(vec![0u8; cells]);
                }
            }
        }
        // Only pure nodes are evaluated per sample.
        let order: Vec<usize> =
            netlist.eval_order().iter().map(|&idx| idx as usize).filter(|&i| pure[i]).collect();

        let mut values = vec![0i64; n];
        let lo = -(1i64 << (input_bits - 1));
        let hi = 1i64 << (input_bits - 1);
        for v in lo..hi {
            let raw = v << align;
            values[input.index()] = raw;
            for &i in &order {
                // Pure nodes hold no register, so every word but the
                // input's is a combinational function of the sample.
                let kind = netlist.nodes()[i].kind;
                if kind != NodeKind::Input {
                    values[i] = node_word(q, kind, &values);
                }
                if let Some(masks) = &mut joint[i] {
                    for (mask, combo) in masks.iter_mut().zip(cell_combos(q, kind, &values)) {
                        *mask |= 1 << combo;
                    }
                }
                if let Some(bits) = &mut seen_bits[i] {
                    let pattern = q.to_bits(values[i]);
                    for (cell, b) in bits.iter_mut().enumerate() {
                        *b |= 1 << ((pattern >> cell) & 1);
                    }
                }
            }
        }

        // Marginal constraints for non-pure adders with pure operands.
        let mut marginal: Vec<Option<Vec<u8>>> = vec![None; n];
        for (i, node) in netlist.nodes().iter().enumerate() {
            if pure[i] || !node.kind.is_arithmetic() {
                continue;
            }
            let (a, b, is_sub) = match node.kind {
                NodeKind::Add { a, b } => (a, b, false),
                NodeKind::Sub { a, b } => (a, b, true),
                // Carry-save stages get their (weaker) constraints from
                // the range-based masks instead.
                NodeKind::CsaSum { .. } => continue,
                _ => unreachable!("arithmetic is add, sub or csa"),
            };
            let mut masks = vec![0xFFu8; cells];
            let mut constrained = false;
            if let Some(bits) = &seen_bits[a.index()] {
                for (cell, &seen) in bits.iter().enumerate() {
                    masks[cell] &= a_marginal_mask(seen);
                }
                constrained = true;
            }
            if let Some(bits) = &seen_bits[b.index()] {
                for (cell, &seen) in bits.iter().enumerate() {
                    // The cell's B line carries ~b for a subtractor.
                    let seen_line = if is_sub { swap_bits(seen) } else { seen };
                    masks[cell] &= b_marginal_mask(seen_line);
                }
                constrained = true;
            }
            if constrained {
                marginal[i] = Some(masks);
            }
        }

        Reachability { joint, marginal }
    }

    /// The reachable-combination mask for `cell` of an arithmetic node:
    /// exact for pure adders, marginal-constrained otherwise, `0xFF`
    /// when nothing is known.
    pub fn combo_mask(&self, node: NodeId, cell: u32) -> u8 {
        if let Some(Some(m)) = self.joint.get(node.index()) {
            return m.get(cell as usize).copied().unwrap_or(0);
        }
        if let Some(Some(m)) = self.marginal.get(node.index()) {
            return m.get(cell as usize).copied().unwrap_or(0xFF);
        }
        0xFF
    }

    /// `true` if the node's combo masks are exact (the node is a pure
    /// function of the current input word).
    pub fn is_exact(&self, node: NodeId) -> bool {
        matches!(self.joint.get(node.index()), Some(Some(_)))
    }
}

/// Marks nodes that are combinational functions of the current input.
fn pure_nodes(netlist: &Netlist) -> Vec<bool> {
    let n = netlist.nodes().len();
    let mut pure = vec![false; n];
    for &idx in netlist.eval_order() {
        let i = idx as usize;
        pure[i] = match netlist.nodes()[i].kind {
            NodeKind::Input | NodeKind::Const { .. } => true,
            NodeKind::Register { .. } => false,
            // Carry-save stages are excluded from the exact enumeration
            // (the multipliers it serves are ripple structures); their
            // masks fall back to the range-based constraints.
            NodeKind::CsaSum { .. } | NodeKind::CsaCarry { .. } => false,
            ref k => k.operands().iter().all(|op| pure[op.index()]),
        };
    }
    pure
}

/// Combos consistent with the observed values of the A line
/// (`seen` bit0 = value 0 observed, bit1 = value 1 observed).
fn a_marginal_mask(seen: u8) -> u8 {
    let mut mask = 0u8;
    if seen & 0b01 != 0 {
        mask |= 0b0000_1111; // a = 0 combos
    }
    if seen & 0b10 != 0 {
        mask |= 0b1111_0000; // a = 1 combos
    }
    mask
}

/// Combos consistent with the observed values of the B line.
fn b_marginal_mask(seen: u8) -> u8 {
    let mut mask = 0u8;
    if seen & 0b01 != 0 {
        mask |= 0b0011_0011; // b = 0 combos
    }
    if seen & 0b10 != 0 {
        mask |= 0b1100_1100; // b = 1 combos
    }
    mask
}

/// Swaps the "seen 0"/"seen 1" bits (an inverted line sees inverted
/// values).
fn swap_bits(seen: u8) -> u8 {
    ((seen & 1) << 1) | ((seen >> 1) & 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn pure_marking_stops_at_registers() {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let s = b.shift_right(x, 1);
        let d = b.register(x);
        let pure_add = b.add_labeled(x, s, "pure");
        let impure_add = b.add_labeled(pure_add, d, "impure");
        b.output(impure_add, "y");
        let n = b.finish().unwrap();
        let r = Reachability::analyze(&n, 8);
        assert!(r.is_exact(n.find_label("pure").unwrap()));
        assert!(!r.is_exact(n.find_label("impure").unwrap()));
    }

    #[test]
    fn correlated_operands_restrict_combos() {
        // x + x: a-bit always equals b-bit, so combos with a != b are
        // unreachable at every cell.
        let mut b = NetlistBuilder::new(6).unwrap();
        let x = b.input("x");
        let s = b.add_labeled(x, x, "dbl");
        b.output(s, "y");
        let n = b.finish().unwrap();
        let r = Reachability::analyze(&n, 6);
        let node = n.find_label("dbl").unwrap();
        for cell in 0..6 {
            let mask = r.combo_mask(node, cell);
            // Unreachable: a=0,b=1 (combos 2,3) and a=1,b=0 (combos 4,5).
            assert_eq!(mask & 0b0011_1100, 0, "cell {cell}: {mask:08b}");
        }
    }

    #[test]
    fn exhaustive_enumeration_matches_brute_force() {
        // x>>1 + x>>3 over a 6-bit input: check cell 2's mask against a
        // brute-force recomputation.
        let mut b = NetlistBuilder::new(6).unwrap();
        let x = b.input("x");
        let s1 = b.shift_right(x, 1);
        let s3 = b.shift_right(x, 3);
        let sum = b.add_labeled(s1, s3, "sum");
        b.output(sum, "y");
        let n = b.finish().unwrap();
        let r = Reachability::analyze(&n, 6);
        let node = n.find_label("sum").unwrap();

        let mut expect = [0u8; 6];
        for v in -32i64..32 {
            let a = (v >> 1) as u64 & 0x3F;
            let bb = (v >> 3) as u64 & 0x3F;
            let mut carry = 0u64;
            for (cell, e) in expect.iter_mut().enumerate() {
                let ab = (a >> cell) & 1;
                let bbit = (bb >> cell) & 1;
                *e |= 1 << ((ab << 2) | (bbit << 1) | carry);
                let x1 = ab ^ bbit;
                carry = (ab & bbit) | (x1 & carry);
            }
        }
        for (cell, &e) in expect.iter().enumerate() {
            assert_eq!(r.combo_mask(node, cell as u32), e, "cell {cell}");
        }
    }

    #[test]
    fn subtractor_lsb_carry_is_one() {
        let mut b = NetlistBuilder::new(6).unwrap();
        let x = b.input("x");
        let s = b.shift_right(x, 1);
        let d = b.sub_labeled(x, s, "diff");
        b.output(d, "y");
        let n = b.finish().unwrap();
        let r = Reachability::analyze(&n, 6);
        let node = n.find_label("diff").unwrap();
        // Cell 0 of a subtractor always has carry-in 1.
        assert_eq!(r.combo_mask(node, 0) & 0b0101_0101, 0);
    }

    #[test]
    fn impure_adder_gets_marginal_from_pure_operand() {
        // The accumulation pattern: register + (x>>4). The product's
        // upper cells can still be 0 or 1 (sign), but cells above the
        // shifted word's value range... check at least that a marginal
        // mask exists and is sound (never empties a cell reachable by
        // the good machine).
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let prod = b.shift_right(x, 4);
        let dreg = b.register(x);
        let acc = b.add_labeled(dreg, prod, "acc");
        b.output(acc, "y");
        let n = b.finish().unwrap();
        let r = Reachability::analyze(&n, 8);
        let node = n.find_label("acc").unwrap();
        assert!(!r.is_exact(node));
        for cell in 0..8 {
            let mask = r.combo_mask(node, cell);
            assert_ne!(mask, 0, "cell {cell} emptied");
            // b can be 0 and 1 at every cell here (sign extension),
            // but a is unconstrained: a-combos must both be present.
            assert_ne!(mask & 0b0000_1111, 0);
            assert_ne!(mask & 0b1111_0000, 0);
        }
    }

    #[test]
    fn unknown_nodes_are_unconstrained() {
        let mut b = NetlistBuilder::new(6).unwrap();
        let x = b.input("x");
        b.output(x, "y");
        let n = b.finish().unwrap();
        let r = Reachability::analyze(&n, 6);
        assert_eq!(r.combo_mask(NodeId(0), 3), 0xFF);
    }
}
