//! 64-lane bit-sliced logic simulation with gate-level fault injection.
//!
//! Every node value is stored as `width` bit-planes of 64 lanes each:
//! lane `l` of plane `b` is bit `b` of machine `l`'s word. All lanes see
//! the same input sequence, so lane 0 can carry the fault-free machine
//! while lanes 1..64 carry machines with injected full-adder faults —
//! the classic *parallel fault simulation* arrangement, which handles
//! sequential (register) state exactly: each faulty machine's diverged
//! register contents simply live in its own lane.
//!
//! Adders and subtractors are evaluated cell by cell through the
//! five-gate model in [`crate::fulladder`], so faults can be forced on
//! any gate line of any cell in any lane.

use crate::fulladder::{eval_word, FaFault};
use crate::node::{NodeId, NodeKind};
use crate::Netlist;

/// A fault injected into one lane of one full-adder cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFault {
    /// Cell (bit) position within the adder, `0` = LSB.
    pub cell: u32,
    /// The stuck-at fault to force.
    pub fault: FaFault,
    /// Lane mask; the fault is active in every set lane.
    pub lanes: u64,
}

/// The bit-sliced simulator.
///
/// # Example
///
/// ```
/// use bist_rtl::{NetlistBuilder, sim::BitSlicedSim};
///
/// let mut b = NetlistBuilder::new(8)?;
/// let x = b.input("x");
/// let d = b.register(x);
/// let y = b.add(x, d);
/// b.output(y, "y");
/// let n = b.finish()?;
///
/// let mut sim = BitSlicedSim::new(&n);
/// sim.step(3);
/// assert_eq!(sim.lane_value(n.output_ids()[0], 0), 3); // 3 + 0
/// sim.step(5);
/// assert_eq!(sim.lane_value(n.output_ids()[0], 0), 8); // 5 + 3
/// # Ok::<(), bist_rtl::RtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitSlicedSim<'n> {
    netlist: &'n Netlist,
    w: usize,
    planes: Vec<u64>,
    state: Vec<u64>,
    faults: Vec<Vec<CellFault>>,
    faulty_nodes: Vec<u32>,
    scratch: Vec<(FaFault, u64)>,
}

impl<'n> BitSlicedSim<'n> {
    /// Creates a simulator with all registers reset to zero and no
    /// faults injected.
    pub fn new(netlist: &'n Netlist) -> Self {
        let w = netlist.width() as usize;
        let n = netlist.nodes().len();
        let mut sim = BitSlicedSim {
            netlist,
            w,
            planes: vec![0; n * w],
            state: vec![0; n * w],
            faults: vec![Vec::new(); n],
            faulty_nodes: Vec::new(),
            scratch: Vec::new(),
        };
        // Constants never change; fill their planes once.
        for (i, node) in netlist.nodes().iter().enumerate() {
            if let NodeKind::Const { raw } = node.kind {
                sim.broadcast(i, raw);
            }
        }
        sim
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Resets all register state to zero (faults are kept).
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|x| *x = 0);
    }

    /// Injects faults into an adder or subtractor node. Replaces any
    /// faults previously set on that node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an adder/subtractor or a cell index is
    /// outside the datapath width.
    pub fn set_faults(&mut self, node: NodeId, faults: Vec<CellFault>) {
        assert!(
            self.netlist.node(node).kind.is_arithmetic(),
            "faults can only be injected into adders/subtractors"
        );
        for f in &faults {
            assert!((f.cell as usize) < self.w, "cell {} outside datapath", f.cell);
        }
        let idx = node.index();
        if self.faults[idx].is_empty() && !faults.is_empty() {
            self.faulty_nodes.push(idx as u32);
        }
        if faults.is_empty() {
            self.faulty_nodes.retain(|&i| i as usize != idx);
        }
        self.faults[idx] = faults;
    }

    /// Removes every injected fault.
    pub fn clear_all_faults(&mut self) {
        for &i in &self.faulty_nodes {
            self.faults[i as usize].clear();
        }
        self.faulty_nodes.clear();
    }

    /// Advances one clock cycle with the same input word broadcast to
    /// all lanes (single-input netlists).
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have exactly one input.
    pub fn step(&mut self, input_raw: i64) {
        let inputs = self.netlist.input_ids();
        assert_eq!(inputs.len(), 1, "netlist does not have exactly one input");
        let id = inputs[0];
        self.step_with(&[(id, input_raw)]);
    }

    /// Advances one clock cycle driving every listed input.
    pub fn step_with(&mut self, inputs: &[(NodeId, i64)]) {
        for &(id, raw) in inputs {
            debug_assert!(matches!(self.netlist.node(id).kind, NodeKind::Input));
            self.broadcast(id.index(), raw);
        }
        self.eval_combinational();
        self.latch_registers();
    }

    fn broadcast(&mut self, node_idx: usize, raw: i64) {
        let base = node_idx * self.w;
        let bits = raw as u64;
        for b in 0..self.w {
            self.planes[base + b] = if (bits >> b) & 1 == 1 { !0u64 } else { 0 };
        }
    }

    fn eval_combinational(&mut self) {
        let w = self.w;
        let order: &[u32] = self.netlist.eval_order();
        for &idx in order {
            let i = idx as usize;
            let kind = self.netlist.nodes()[i].kind;
            match kind {
                NodeKind::Input | NodeKind::Const { .. } => {}
                NodeKind::Register { .. } => {
                    // Registers read their own stored state.
                    let base = i * w;
                    self.planes[base..base + w].copy_from_slice(&self.state[base..base + w]);
                }
                NodeKind::Output { src } => {
                    let (dst, s) = (i * w, src.index() * w);
                    let (head, tail) = split_pair(&mut self.planes, dst, s, w);
                    head.copy_from_slice(tail);
                }
                NodeKind::ShiftRight { src, amount } => {
                    let s = src.index() * w;
                    let dst = i * w;
                    let amount = amount as usize;
                    for b in 0..w {
                        let from = b + amount;
                        let v = if from < w {
                            self.planes[s + from]
                        } else {
                            self.planes[s + w - 1] // sign extension
                        };
                        self.planes[dst + b] = v;
                    }
                }
                NodeKind::Not { src } => {
                    let sp = src.index() * w;
                    let dst = i * w;
                    for bit in 0..w {
                        self.planes[dst + bit] = !self.planes[sp + bit];
                    }
                }
                NodeKind::SetLsb { src } => {
                    let sp = src.index() * w;
                    let dst = i * w;
                    self.planes[dst] = !0u64;
                    for bit in 1..w {
                        self.planes[dst + bit] = self.planes[sp + bit];
                    }
                }
                NodeKind::Add { a, b } => self.eval_arith(i, a, b, false),
                NodeKind::Sub { a, b } => self.eval_arith(i, a, b, true),
                NodeKind::CsaSum { a, b, c } => self.eval_csa(i, a, b, c, i, false),
                NodeKind::CsaCarry { a, b, c, sum } => self.eval_csa(i, a, b, c, sum.index(), true),
            }
        }
    }

    /// Evaluates one output of a carry-save stage. The stage's faults
    /// live on the paired sum node (`fault_node`); both outputs are
    /// computed through the same faulty gate network, so a single
    /// stuck-at consistently affects sum and carry.
    fn eval_csa(
        &mut self,
        i: usize,
        a: NodeId,
        b: NodeId,
        c: NodeId,
        fault_node: usize,
        carry_out: bool,
    ) {
        let w = self.w;
        let (pa, pb, pc) = (a.index() * w, b.index() * w, c.index() * w);
        let dst = i * w;
        if self.faults[fault_node].is_empty() {
            if carry_out {
                self.planes[dst] = 0;
                for bit in 0..w - 1 {
                    let (av, bv, cv) =
                        (self.planes[pa + bit], self.planes[pb + bit], self.planes[pc + bit]);
                    self.planes[dst + bit + 1] = (av & bv) | ((av ^ bv) & cv);
                }
            } else {
                for bit in 0..w {
                    self.planes[dst + bit] =
                        self.planes[pa + bit] ^ self.planes[pb + bit] ^ self.planes[pc + bit];
                }
            }
            return;
        }
        if carry_out {
            self.planes[dst] = 0;
        }
        for bit in 0..w {
            let (av, bv, cv) =
                (self.planes[pa + bit], self.planes[pb + bit], self.planes[pc + bit]);
            self.scratch.clear();
            for f in &self.faults[fault_node] {
                if f.cell as usize == bit {
                    self.scratch.push((f.fault, f.lanes));
                }
            }
            let (sum, cout) = eval_word(av, bv, cv, &self.scratch);
            if carry_out {
                if bit + 1 < w {
                    self.planes[dst + bit + 1] = cout;
                }
            } else {
                self.planes[dst + bit] = sum;
            }
        }
    }

    fn eval_arith(&mut self, i: usize, a: NodeId, b: NodeId, subtract: bool) {
        let w = self.w;
        let pa = a.index() * w;
        let pb = b.index() * w;
        let dst = i * w;
        // Sign trimming: full cells below `top`, a carry-less sum cell
        // at `top`, sign-extension wiring above.
        let top = self.netlist.msb_trim(NodeId(i as u32)) as usize;
        let mut carry: u64 = if subtract { !0u64 } else { 0 };
        if self.faults[i].is_empty() {
            for bit in 0..top {
                let av = self.planes[pa + bit];
                let bv = if subtract { !self.planes[pb + bit] } else { self.planes[pb + bit] };
                let x1 = av ^ bv;
                self.planes[dst + bit] = x1 ^ carry;
                carry = (av & bv) | (x1 & carry);
            }
            let av = self.planes[pa + top];
            let bv = if subtract { !self.planes[pb + top] } else { self.planes[pb + top] };
            self.planes[dst + top] = av ^ bv ^ carry;
        } else {
            for bit in 0..top {
                let av = self.planes[pa + bit];
                let bv = if subtract { !self.planes[pb + bit] } else { self.planes[pb + bit] };
                self.scratch.clear();
                for f in &self.faults[i] {
                    if f.cell as usize == bit {
                        self.scratch.push((f.fault, f.lanes));
                    }
                }
                let (sum, cout) = eval_word(av, bv, carry, &self.scratch);
                self.planes[dst + bit] = sum;
                carry = cout;
            }
            let av = self.planes[pa + top];
            let bv = if subtract { !self.planes[pb + top] } else { self.planes[pb + top] };
            self.scratch.clear();
            for f in &self.faults[i] {
                if f.cell as usize == top {
                    self.scratch.push((f.fault, f.lanes));
                }
            }
            self.planes[dst + top] =
                crate::fulladder::eval_word_sum_only(av, bv, carry, &self.scratch);
        }
        let sign = self.planes[dst + top];
        for bit in top + 1..w {
            self.planes[dst + bit] = sign;
        }
    }

    fn latch_registers(&mut self) {
        let w = self.w;
        for &idx in self.netlist.register_indices() {
            let i = idx as usize;
            if let NodeKind::Register { src } = self.netlist.nodes()[i].kind {
                let s = src.index() * w;
                let d = i * w;
                self.state[d..d + w].copy_from_slice(&self.planes[s..s + w]);
            }
        }
    }

    /// Reads one lane's word at a node, sign-extended to `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn lane_value(&self, node: NodeId, lane: u32) -> i64 {
        assert!(lane < 64, "lane out of range");
        let base = node.index() * self.w;
        let mut bits: u64 = 0;
        for b in 0..self.w {
            bits |= ((self.planes[base + b] >> lane) & 1) << b;
        }
        self.netlist.format().sign_extend(bits)
    }

    /// Mask of lanes whose *output* words differ from `reference_lane`'s
    /// this cycle (the reference lane's own bit is always clear).
    pub fn output_diff_lanes(&self, reference_lane: u32) -> u64 {
        let mut diff: u64 = 0;
        for out in self.netlist.output_ids() {
            let base = out.index() * self.w;
            for b in 0..self.w {
                let plane = self.planes[base + b];
                let good = (plane >> reference_lane) & 1;
                let broadcast = good.wrapping_neg(); // 0 or all-ones
                diff |= plane ^ broadcast;
            }
        }
        diff & !(1u64 << reference_lane)
    }

    /// Folds the current cycle's output word of every lane into a
    /// signature bank, one [`crate::misr::MisrBank::absorb_planes`] per
    /// output node in [`Netlist::output_ids`] order.
    ///
    /// The planes go straight from the simulator into the bank — no
    /// per-lane word extraction — so compaction costs `O(width)` word
    /// operations per cycle for all 64 machines together. Lane `l` of
    /// the bank then tracks exactly the signature a scalar
    /// [`crate::misr::Misr`] would compute over lane `l`'s
    /// (sign-extended) output stream.
    pub fn fold_outputs(&self, bank: &mut crate::misr::MisrBank) {
        for out in self.netlist.output_ids() {
            let base = out.index() * self.w;
            bank.absorb_planes(&self.planes[base..base + self.w]);
        }
    }

    /// Snapshot of one lane's register state (one `width`-bit word per
    /// register, in [`Netlist::register_indices`] order).
    pub fn register_state_lane(&self, lane: u32) -> Vec<u64> {
        assert!(lane < 64, "lane out of range");
        self.netlist
            .register_indices()
            .iter()
            .map(|&idx| {
                let base = idx as usize * self.w;
                let mut bits: u64 = 0;
                for b in 0..self.w {
                    bits |= ((self.state[base + b] >> lane) & 1) << b;
                }
                bits
            })
            .collect()
    }
}

/// Splits one vector into two non-overlapping `len`-sized windows at
/// `dst` and `src` (dst gets the mutable half).
fn split_pair(v: &mut [u64], dst: usize, src: usize, len: usize) -> (&mut [u64], &[u64]) {
    assert!(dst + len <= src || src + len <= dst, "windows overlap");
    if dst < src {
        let (a, b) = v.split_at_mut(src);
        (&mut a[dst..dst + len], &b[..len])
    } else {
        let (a, b) = v.split_at_mut(dst);
        (&mut b[..len], &a[src..src + len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fulladder::Line;
    use crate::NetlistBuilder;
    use fixedpoint::QFormat;

    fn adder_netlist(width: u32) -> Netlist {
        let mut b = NetlistBuilder::new(width).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let y = b.add_labeled(x, d, "acc");
        b.output(y, "y");
        b.finish().unwrap()
    }

    #[test]
    fn functional_add_with_delay() {
        let n = adder_netlist(12);
        let out = n.output_ids()[0];
        let mut sim = BitSlicedSim::new(&n);
        let q = QFormat::new(12, 11).unwrap();
        let seq = [100i64, -200, 321, 1000, -1024];
        let mut prev = 0i64;
        for &v in &seq {
            sim.step(v);
            assert_eq!(sim.lane_value(out, 0), q.wrap(v + prev));
            assert_eq!(sim.lane_value(out, 63), q.wrap(v + prev));
            prev = v;
        }
    }

    #[test]
    fn subtractor_matches_wrapping_sub() {
        let mut b = NetlistBuilder::new(10).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let y = b.sub(x, d);
        b.output(y, "y");
        let n = b.finish().unwrap();
        let out = n.output_ids()[0];
        let q = QFormat::new(10, 9).unwrap();
        let mut sim = BitSlicedSim::new(&n);
        let mut prev = 0i64;
        for v in [-512i64, 511, -100, 37, 250] {
            sim.step(v);
            assert_eq!(sim.lane_value(out, 0), q.wrap(v - prev), "input {v}");
            prev = v;
        }
    }

    #[test]
    fn shift_is_arithmetic() {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let s = b.shift_right(x, 2);
        b.output(s, "y");
        let n = b.finish().unwrap();
        let out = n.output_ids()[0];
        let mut sim = BitSlicedSim::new(&n);
        sim.step(-5);
        assert_eq!(sim.lane_value(out, 0), -2); // -5 >> 2 = -2 (floor)
        sim.step(7);
        assert_eq!(sim.lane_value(out, 0), 1);
    }

    #[test]
    fn injected_fault_shows_only_in_its_lane() {
        let n = adder_netlist(12);
        let acc = n.find_label("acc").unwrap();
        let out = n.output_ids()[0];
        let mut sim = BitSlicedSim::new(&n);
        // Stuck-at-1 on the sum line of cell 0: forces output LSB to 1.
        sim.set_faults(
            acc,
            vec![CellFault {
                cell: 0,
                fault: FaFault { line: Line::Sum, stuck_one: true },
                lanes: 1 << 5,
            }],
        );
        sim.step(0); // good sum = 0, faulty lane reads 1
        assert_eq!(sim.lane_value(out, 0), 0);
        assert_eq!(sim.lane_value(out, 5), 1);
        assert_eq!(sim.output_diff_lanes(0), 1 << 5);
    }

    #[test]
    fn carry_fault_propagates_to_upper_bits() {
        let n = adder_netlist(12);
        let acc = n.find_label("acc").unwrap();
        let out = n.output_ids()[0];
        let mut sim = BitSlicedSim::new(&n);
        // cout stuck-at-1 on cell 3 injects a carry into cell 4.
        sim.set_faults(
            acc,
            vec![CellFault {
                cell: 3,
                fault: FaFault { line: Line::Cout, stuck_one: true },
                lanes: 1,
            }],
        );
        sim.step(0);
        assert_eq!(sim.lane_value(out, 1), 0); // unfaulted lane
        assert_eq!(sim.lane_value(out, 0), 16); // +2^4 from forced carry
    }

    #[test]
    fn faulty_machine_state_diverges_and_persists() {
        let n = adder_netlist(12);
        let acc = n.find_label("acc").unwrap();
        let out = n.output_ids()[0];
        let mut sim = BitSlicedSim::new(&n);
        sim.set_faults(
            acc,
            vec![CellFault {
                cell: 0,
                fault: FaFault { line: Line::Sum, stuck_one: true },
                lanes: 1 << 1,
            }],
        );
        sim.step(0);
        sim.clear_all_faults();
        // After clearing the fault the corrupted value (1) sits in no
        // register (the register holds x, not the sum), so both lanes
        // agree again next cycle.
        sim.step(2);
        assert_eq!(sim.lane_value(out, 0), sim.lane_value(out, 1));
    }

    #[test]
    fn state_snapshot_round_trips() {
        let n = adder_netlist(12);
        let mut sim = BitSlicedSim::new(&n);
        sim.step(100);
        sim.step(-3);
        // The register latched the last input: its raw 12-bit two's
        // complement reads back, identically in every fault-free lane.
        let snap = sim.register_state_lane(0);
        assert_eq!(snap, vec![(-3i64 as u64) & 0xFFF]);
        assert_eq!(sim.register_state_lane(7), snap);
    }

    #[test]
    fn reset_clears_state() {
        let n = adder_netlist(12);
        let out = n.output_ids()[0];
        let mut sim = BitSlicedSim::new(&n);
        sim.step(500);
        sim.reset();
        sim.step(7);
        assert_eq!(sim.lane_value(out, 0), 7);
    }

    #[test]
    #[should_panic(expected = "adders/subtractors")]
    fn faults_on_non_adder_panic() {
        let n = adder_netlist(12);
        let mut sim = BitSlicedSim::new(&n);
        sim.set_faults(
            n.input_ids()[0],
            vec![CellFault {
                cell: 0,
                fault: FaFault { line: Line::Sum, stuck_one: true },
                lanes: 1,
            }],
        );
    }

    #[cfg(feature = "proptest")]
    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_all_lanes_agree_without_faults(
                seq in proptest::collection::vec(-2048i64..=2047, 1..20),
                lane in 1u32..64,
            ) {
                let n = adder_netlist(12);
                let out = n.output_ids()[0];
                let mut sim = BitSlicedSim::new(&n);
                for &v in &seq {
                    sim.step(v);
                    prop_assert_eq!(sim.lane_value(out, 0), sim.lane_value(out, lane));
                    prop_assert_eq!(sim.output_diff_lanes(0), 0);
                }
            }

            #[test]
            fn prop_matches_reference_model(
                seq in proptest::collection::vec(-2048i64..=2047, 1..30)
            ) {
                let n = adder_netlist(12);
                let out = n.output_ids()[0];
                let q = QFormat::new(12, 11).unwrap();
                let mut sim = BitSlicedSim::new(&n);
                let mut prev = 0i64;
                for &v in &seq {
                    sim.step(v);
                    prop_assert_eq!(sim.lane_value(out, 0), q.wrap(v + prev));
                    prev = v;
                }
            }
        }
    }
}
