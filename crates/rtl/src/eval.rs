//! Word-level semantics of the netlist, written once.
//!
//! Every scalar analysis in the workspace — the plain simulator below,
//! the input-cone reachability enumeration, and the top-off layers'
//! single-sample evaluator, witness sweeps and chain decomposition —
//! computes node words from operand words and reads each full-adder
//! cell's input combination off an arithmetic node's operands. These
//! two pieces live here:
//!
//! * [`node_word`] — a combinational node's word from its operands'
//!   words (two's-complement, wrapped to the datapath width). Inputs
//!   and registers are not combinational: each caller supplies their
//!   words under its own policy (a sample, a register file, a
//!   pass-through).
//! * [`cell_combos`] — the `(a, b_line, ci)` combination every cell of
//!   an adder, subtractor or carry-save stage sees, rippled from the
//!   LSB exactly as the bit-sliced simulator's gates compute it.
//!
//! [`ScalarSim`] is the plain one-machine simulator built on them.

use crate::node::{NodeId, NodeKind};
use crate::Netlist;
use fixedpoint::QFormat;

/// The word of a combinational node, from its operands' words in
/// `values` (indexed by node index, each a raw word of format `q`).
///
/// # Panics
///
/// Panics on [`NodeKind::Input`] and [`NodeKind::Register`]: their
/// words are not functions of the current operand words.
#[inline]
pub fn node_word(q: QFormat, kind: NodeKind, values: &[i64]) -> i64 {
    let word = |id: NodeId| values[id.index()];
    let bits = |id: NodeId| q.to_bits(values[id.index()]);
    // `sign_extend` keeps the low `width` bits: the modular wrap of
    // the hardware's carry chains.
    match kind {
        NodeKind::Input | NodeKind::Register { .. } => {
            panic!("{kind:?} is not combinational: its word comes from the caller")
        }
        NodeKind::Const { raw } => raw,
        NodeKind::Output { src } => word(src),
        NodeKind::ShiftRight { src, amount } => word(src) >> amount.min(62),
        NodeKind::Not { src } => q.sign_extend(!bits(src)),
        NodeKind::SetLsb { src } => q.sign_extend(bits(src) | 1),
        NodeKind::Add { a, b } => q.sign_extend((word(a) + word(b)) as u64),
        NodeKind::Sub { a, b } => q.sign_extend((word(a) - word(b)) as u64),
        NodeKind::CsaSum { a, b, c } => q.sign_extend(bits(a) ^ bits(b) ^ bits(c)),
        NodeKind::CsaCarry { a, b, c, .. } => {
            let (a, b, c) = (bits(a), bits(b), bits(c));
            q.sign_extend(((a & b) | ((a ^ b) & c)) << 1)
        }
    }
}

/// The full-adder input combination `(a << 2) | (b_line << 1) | ci` of
/// every cell of an arithmetic node, LSB first, for the operand words
/// in `values` (format `q`). A ripple adder's carry-in is the carry out
/// of the cell below; a subtractor's B line is the inverted subtrahend
/// with carry-in 1 at cell 0; a carry-save cell's three inputs are the
/// three operand bits. Entries from `q.width()` up are zero.
///
/// # Panics
///
/// Panics if `kind` is not an adder, subtractor or carry-save sum.
#[inline]
pub fn cell_combos(q: QFormat, kind: NodeKind, values: &[i64]) -> [u8; 64] {
    let bits = |id: NodeId| q.to_bits(values[id.index()]);
    let mut combos = [0u8; 64];
    let cells = combos.iter_mut().take(q.width() as usize).enumerate();
    match kind {
        NodeKind::Add { a, b } | NodeKind::Sub { a, b } => {
            let subtract = matches!(kind, NodeKind::Sub { .. });
            let (a, b_line) = (bits(a), if subtract { !bits(b) } else { bits(b) });
            let mut carry = u64::from(subtract);
            for (cell, combo) in cells {
                let (av, bv) = ((a >> cell) & 1, (b_line >> cell) & 1);
                *combo = ((av << 2) | (bv << 1) | carry) as u8;
                carry = (av & bv) | ((av ^ bv) & carry);
            }
        }
        NodeKind::CsaSum { a, b, c } => {
            let (a, b, c) = (bits(a), bits(b), bits(c));
            for (cell, combo) in cells {
                *combo =
                    ((((a >> cell) & 1) << 2) | (((b >> cell) & 1) << 1) | ((c >> cell) & 1)) as u8;
            }
        }
        _ => panic!("no full-adder cells on {kind:?}"),
    }
    combos
}

/// A plain scalar simulator: one fault-free machine, exact register
/// semantics, reset to zero, one raw (aligned) word driven onto every
/// input per cycle. The reference the bit-sliced simulator is checked
/// against, and the engine of the top-off witness sweeps, which drive
/// thousands of short runs: register state can be snapshotted and
/// restored so multi-phase stimuli don't replay their shared prefix.
///
/// # Example
///
/// ```
/// use bist_rtl::{eval::ScalarSim, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new(8)?;
/// let x = b.input("x");
/// let d = b.register(x);
/// let y = b.sub(x, d);
/// b.output(y, "y");
/// let n = b.finish()?;
///
/// let mut sim = ScalarSim::new(&n);
/// sim.step(3);
/// sim.step(5);
/// assert_eq!(sim.values()[y.index()], 2); // 5 - 3
/// # Ok::<(), bist_rtl::RtlError>(())
/// ```
pub struct ScalarSim<'n> {
    netlist: &'n Netlist,
    values: Vec<i64>,
    regs: Vec<i64>,
}

impl<'n> ScalarSim<'n> {
    /// A simulator at reset.
    pub fn new(netlist: &'n Netlist) -> Self {
        let n = netlist.nodes().len();
        ScalarSim { netlist, values: vec![0; n], regs: vec![0; n] }
    }

    /// Back to the all-zero reset state.
    pub fn reset(&mut self) {
        self.values.fill(0);
        self.regs.fill(0);
    }

    /// Advances one cycle with the given raw (aligned) input word.
    pub fn step(&mut self, raw: i64) {
        let q = self.netlist.format();
        // Operands point backwards, so node order is topological.
        for (i, node) in self.netlist.nodes().iter().enumerate() {
            self.values[i] = match node.kind {
                NodeKind::Input => raw,
                NodeKind::Register { .. } => self.regs[i],
                kind => node_word(q, kind, &self.values),
            };
        }
        for &idx in self.netlist.register_indices() {
            let i = idx as usize;
            if let NodeKind::Register { src } = self.netlist.nodes()[i].kind {
                self.regs[i] = self.values[src.index()];
            }
        }
    }

    /// The node words of the current cycle, indexed by node index.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Snapshot of the register state (restorable).
    pub fn save_regs(&self) -> Vec<i64> {
        self.regs.clone()
    }

    /// Restores a [`ScalarSim::save_regs`] snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a different netlist.
    pub fn restore_regs(&mut self, snapshot: &[i64]) {
        assert_eq!(snapshot.len(), self.regs.len(), "snapshot from a different netlist");
        self.regs.copy_from_slice(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn carry_save_words_are_bitwise_sum_and_shifted_majority() {
        let mut b = NetlistBuilder::new(6).unwrap();
        let x = b.input("x");
        let k1 = b.constant(0b01_0110);
        let k2 = b.constant(0b00_1011);
        let (sum, carry) = b.csa(x, k1, k2, "csa");
        b.output(sum, "s");
        b.output(carry, "c");
        let n = b.finish().unwrap();
        let q = n.format();
        let mut sim = ScalarSim::new(&n);
        sim.step(q.sign_extend(0b11_0101));
        // 110101 ^ 010110 ^ 001011 = 101000; majority 010111 << 1.
        assert_eq!(q.to_bits(sim.values()[sum.index()]), 0b10_1000);
        assert_eq!(q.to_bits(sim.values()[carry.index()]), 0b10_1110);
    }

    #[test]
    fn subtractor_cells_see_the_inverted_line_and_a_carry_in() {
        let mut b = NetlistBuilder::new(4).unwrap();
        let x = b.input("x");
        let k = b.constant(3);
        let d = b.sub(x, k);
        b.output(d, "y");
        let n = b.finish().unwrap();
        let mut values = vec![0i64; n.nodes().len()];
        values[x.index()] = 5;
        values[k.index()] = 3;
        // a = 0101, b_line = !0011 = 1100, carry-in 1:
        // cell0 (1,0,1) cell1 (0,0,1) cell2 (1,1,0) cell3 (0,1,1).
        let combos = cell_combos(n.format(), n.node(d).kind, &values);
        assert_eq!(&combos[..5], &[0b101, 0b001, 0b110, 0b011, 0]);
        assert_eq!(node_word(n.format(), n.node(d).kind, &values), 2);
    }

    #[test]
    #[should_panic(expected = "not combinational")]
    fn registers_have_no_combinational_word() {
        let mut b = NetlistBuilder::new(4).unwrap();
        let x = b.input("x");
        let r = b.register(x);
        b.output(r, "y");
        let n = b.finish().unwrap();
        node_word(n.format(), n.node(r).kind, &[0, 0, 0]);
    }
}
