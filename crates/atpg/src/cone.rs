//! Uniform-delay purity analysis and the exact single-sample cone
//! evaluator behind backward justification.
//!
//! The paper's circuits are single-input feedforward datapaths: a delay
//! line feeding per-tap CSD multipliers feeding an accumulator chain.
//! Every multiplier node is a function of exactly *one* delayed input
//! sample `x[t-d]` — the generalization of the reachability analysis's
//! "pure" nodes (functions of the *current* sample) to arbitrary but
//! uniform register depth. For such nodes, backward justification is
//! exhaustive: enumerating the `2^input_bits` values of the one driving
//! sample yields the exact set of reachable full-adder cell input
//! combinations, so an activating input either exists (and is in hand)
//! or provably does not (the fault is untestable).
//!
//! The evaluator only chooses how inputs and registers get their words;
//! every other node word is [`rtl::eval::node_word`], and callers read
//! cell combinations off its values with [`rtl::eval::cell_combos`], so
//! the top-off layers share one word-level model with the reachability
//! analysis and the plain [`rtl::eval::ScalarSim`].

use rtl::eval::node_word;
use rtl::{Netlist, NodeId, NodeKind};

/// How a node's value depends on the input history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purity {
    /// Constant, independent of the input.
    Const,
    /// A function of exactly one input sample, `x[t - delay]`.
    Pure(u32),
    /// Depends on samples at two or more distinct delays (a window).
    Window,
}

/// Per-node purity classification of a feedforward netlist.
#[derive(Debug, Clone)]
pub struct ConeAnalysis {
    purity: Vec<Purity>,
}

impl ConeAnalysis {
    /// Classifies every node. Node ids are creation-ordered in a
    /// [`NetlistBuilder`](rtl::NetlistBuilder) DAG, so one forward pass
    /// suffices — operands always precede their users.
    pub fn analyze(netlist: &Netlist) -> ConeAnalysis {
        let nodes = netlist.nodes();
        let mut purity = vec![Purity::Window; nodes.len()];
        let join = |a: Purity, b: Purity| match (a, b) {
            (Purity::Const, p) | (p, Purity::Const) => p,
            (Purity::Pure(d1), Purity::Pure(d2)) if d1 == d2 => Purity::Pure(d1),
            _ => Purity::Window,
        };
        for (i, node) in nodes.iter().enumerate() {
            purity[i] = match node.kind {
                NodeKind::Input => Purity::Pure(0),
                NodeKind::Const { .. } => Purity::Const,
                // A register stays pure only on a clean delay line (its
                // source is the input or another register). Elsewhere
                // the reset state (zero) differs from the value a zero
                // sample would propagate, so warm-up cycles could show
                // combinations outside the enumerated set and the
                // untestability proof would be unsound.
                NodeKind::Register { src } => match (purity[src.index()], &nodes[src.index()].kind)
                {
                    (Purity::Pure(d), NodeKind::Input | NodeKind::Register { .. }) => {
                        Purity::Pure(d + 1)
                    }
                    _ => Purity::Window,
                },
                NodeKind::Output { src }
                | NodeKind::ShiftRight { src, .. }
                | NodeKind::Not { src }
                | NodeKind::SetLsb { src } => purity[src.index()],
                NodeKind::Add { a, b } | NodeKind::Sub { a, b } => {
                    join(purity[a.index()], purity[b.index()])
                }
                NodeKind::CsaSum { a, b, c } | NodeKind::CsaCarry { a, b, c, .. } => {
                    join(join(purity[a.index()], purity[b.index()]), purity[c.index()])
                }
                // Future node kinds: conservatively opaque, never pure.
                _ => Purity::Window,
            };
        }
        ConeAnalysis { purity }
    }

    /// The node's classification.
    pub fn purity(&self, node: NodeId) -> Purity {
        self.purity[node.index()]
    }

    /// The node's uniform sample delay, if it is pure.
    pub fn delay(&self, node: NodeId) -> Option<u32> {
        match self.purity[node.index()] {
            Purity::Pure(d) => Some(d),
            _ => None,
        }
    }
}

/// Scalar evaluator of the netlist as a function of *one* input sample,
/// with registers treated as pass-throughs. The computed value of a
/// node classified [`Purity::Pure`]`(d)` is exactly its word at time
/// `t + d` when the sample is applied at time `t` (after the `d`-deep
/// register chain has been fed the same sample); values at
/// [`Purity::Window`] nodes are meaningless and must not be read.
/// Every other node word is [`rtl::eval::node_word`].
pub struct ConeEval<'n> {
    netlist: &'n Netlist,
    align: u32,
    values: Vec<i64>,
}

impl<'n> ConeEval<'n> {
    /// An evaluator for an `input_bits`-wide sample left-aligned into
    /// the datapath (the alignment every design and analysis in this
    /// workspace uses).
    ///
    /// # Panics
    ///
    /// Panics if `input_bits` exceeds the datapath width.
    pub fn new(netlist: &'n Netlist, input_bits: u32) -> Self {
        assert!(input_bits <= netlist.width(), "input wider than the datapath");
        ConeEval {
            netlist,
            align: netlist.width() - input_bits,
            values: vec![0; netlist.nodes().len()],
        }
    }

    /// Evaluates every node for the signed `input_bits`-wide sample `v`.
    pub fn eval(&mut self, v: i64) {
        let q = self.netlist.format();
        let raw = v << self.align;
        for (i, node) in self.netlist.nodes().iter().enumerate() {
            self.values[i] = match node.kind {
                NodeKind::Input => raw,
                NodeKind::Register { src } => self.values[src.index()],
                kind => node_word(q, kind, &self.values),
            };
        }
    }

    /// The evaluated word at a node (valid for pure nodes only).
    pub fn value(&self, node: NodeId) -> i64 {
        self.values[node.index()]
    }

    /// Every node's evaluated word, indexed by node index (the operand
    /// table [`rtl::eval::cell_combos`] reads).
    pub fn values(&self) -> &[i64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::eval::cell_combos;
    use rtl::sim::BitSlicedSim;
    use rtl::NetlistBuilder;

    /// A two-tap toy: tap 0 multiplies the current sample, tap 1 a
    /// one-cycle-delayed sample; the accumulator mixes both delays.
    fn taps() -> Netlist {
        let mut b = NetlistBuilder::new(10).unwrap();
        let x = b.input("x");
        let m0 = b.shift_right(x, 1);
        let d1 = b.register(x);
        let h1 = b.shift_right(d1, 2);
        let m1 = b.add_labeled(h1, d1, "tap1");
        let acc = b.add_labeled(m0, m1, "acc");
        b.output(acc, "y");
        b.finish().unwrap()
    }

    #[test]
    fn purity_tracks_uniform_delays() {
        let n = taps();
        let cone = ConeAnalysis::analyze(&n);
        let tap1 = n.find_label("tap1").unwrap();
        let acc = n.find_label("acc").unwrap();
        // tap1 adds two delay-1 views of the input: pure at delay 1.
        assert_eq!(cone.purity(tap1), Purity::Pure(1));
        // acc mixes delay 0 and delay 1: a window.
        assert_eq!(cone.purity(acc), Purity::Window);
        assert_eq!(cone.delay(tap1), Some(1));
        assert_eq!(cone.delay(acc), None);
    }

    #[test]
    fn cone_eval_matches_the_bit_sliced_simulator() {
        // Drive the real simulator with a constant sample until the
        // pipeline fills; every pure node must then hold exactly the
        // cone evaluator's value for that sample.
        let n = taps();
        let cone = ConeAnalysis::analyze(&n);
        let mut eval = ConeEval::new(&n, 10);
        for v in [-512i64, -100, -1, 0, 1, 37, 511] {
            eval.eval(v);
            let mut sim = BitSlicedSim::new(&n);
            for _ in 0..4 {
                sim.step(v);
            }
            for id in n.node_ids() {
                if cone.delay(id).is_some() {
                    assert_eq!(sim.lane_value(id, 0), eval.value(id), "node {id} sample {v}");
                }
            }
        }
    }

    #[test]
    fn combos_match_a_direct_ripple() {
        let n = taps();
        let tap1 = n.find_label("tap1").unwrap();
        let mut eval = ConeEval::new(&n, 10);
        let q = n.format();
        for v in [-512i64, -3, 0, 5, 511] {
            eval.eval(v);
            // tap1 = (d1 >> 2) + d1 with d1 = v: rebuild the ripple.
            let a_bits = q.to_bits(v >> 2);
            let b_bits = q.to_bits(v);
            let combos = cell_combos(q, n.node(tap1).kind, eval.values());
            let mut carry = 0u64;
            for cell in 0..10u32 {
                let av = (a_bits >> cell) & 1;
                let bv = (b_bits >> cell) & 1;
                let expect = ((av << 2) | (bv << 1) | carry) as u8;
                assert_eq!(combos[cell as usize], expect, "cell {cell} sample {v}");
                carry = (av & bv) | ((av ^ bv) & carry);
            }
        }
    }
}
