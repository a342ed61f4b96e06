//! Tseitin encoding of the `rtl` netlist into the gate graph, with frame
//! unrolling for the feed-forward filter pipelines.
//!
//! The encoder mirrors [`rtl::sim::BitSlicedSim`] gate for gate: sign-trimmed
//! ripple adders (full five-gate cells below the trim, a carry-less sum cell
//! at the trim, sign-copy wiring above), carry-save compressor pairs with a
//! structurally-zero carry LSB and a discarded top majority bit, and the
//! sixteen injectable full-adder lines of [`rtl::fulladder`]. Any divergence
//! between the encoder and the simulator is a soundness bug; the crate's
//! tests sweep random vectors comparing both engines word for word.
//!
//! Time is handled by *unrolling*: frame `t` holds every node's value at
//! simulator step `t` from reset (frame-0 registers are constant false).
//! Because the builder API only produces feed-forward netlists, a netlist
//! with memory depth `D` (the maximum number of registers on any path to an
//! output) computes a fixed function of the last `D+1` input words once
//! `t >= D` — the basis for the redundancy prover's completeness argument.
//!
//! The good machine is unrolled whole, once ([`NetlistEncoder::ensure_frames`]).
//! A faulty machine is unrolled on demand ([`NetlistEncoder::unroll_faulty`]):
//! each requested frame builds only the (node, frame) rows its outputs
//! reach inside the fault's structural fanout, and a row equal to the
//! good row is not built at all, so a query's gates stay close to its
//! cone of influence. The [`Circuit`] is passed in rather than owned: the
//! redundancy prover keeps the good machine's gates in one circuit and
//! truncates each fault's gates away before the next.

use crate::circuit::{Circuit, GLit};
use crate::solver::Solver;
use rtl::fulladder::{FaFault, Line};
use rtl::NodeKind;
use rtl::{Netlist, NodeId};

/// One stuck-at fault to inject while unrolling: the arithmetic node, the
/// cell (bit) position, and the faulty line/polarity.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// The adder, subtractor or carry-save sum node carrying the fault.
    pub node: NodeId,
    /// Cell (bit) position within the datapath.
    pub cell: u32,
    /// The stuck-at fault to force.
    pub fault: FaFault,
}

/// A per-frame view of one unrolled machine: `cone[t]` holds
/// `node_count * width` edges, node-major, LSB first.
pub type FrameCone = Vec<Vec<GLit>>;

/// [`FaultyUnroll`] slot of a row no frame has asked for yet.
const UNBUILT: u32 = u32::MAX;
/// Slot of a row some frame needs, in the middle of being built.
const PENDING: u32 = u32::MAX - 1;
/// Slot of a row equal to the good machine's row.
const GOOD: u32 = u32::MAX - 2;

/// One fault's faulty machine, unrolled on demand by
/// [`NetlistEncoder::unroll_faulty`]: a (node, frame) row is built only
/// once a requested frame's outputs reach it, and a row equal to the
/// good machine's is not stored.
pub struct FaultyUnroll {
    fault: FaultSpec,
    /// The fault's structural fanout; every other node keeps its good row.
    tainted: Vec<bool>,
    /// `slot[t * node_count + i]`: [`UNBUILT`], [`PENDING`], [`GOOD`], or
    /// the offset of node `i`'s frame-`t` row in `rows`.
    slot: Vec<u32>,
    rows: Vec<GLit>,
}

impl FaultyUnroll {
    /// The slot of row `key`, with every row outside the fanout good.
    fn slot_or_good(&self, key: usize) -> u32 {
        if self.tainted[key % self.tainted.len()] {
            self.slot[key]
        } else {
            GOOD
        }
    }

    fn is_good(&self, key: usize) -> bool {
        self.slot_or_good(key) == GOOD
    }

    /// Marks row `key` needed and queues it, if it is in the fanout and
    /// not built or queued yet.
    fn request(&mut self, key: usize, stack: &mut Vec<usize>) {
        if self.tainted[key % self.tainted.len()] && self.slot[key] == UNBUILT {
            self.slot[key] = PENDING;
            stack.push(key);
        }
    }
}

/// Frame-unrolled encoder for one netlist.
pub struct NetlistEncoder<'n> {
    netlist: &'n Netlist,
    input_bits: u32,
    align: u32,
    w: usize,
    depth: u32,
    /// `frames[t][node_index * w + bit]` — the good machine.
    frames: FrameCone,
    /// `inputs[t][k]` — free literal for bit `k` of the input's active
    /// window at frame `t`, LSB of the window first.
    inputs: Vec<Vec<GLit>>,
}

impl<'n> NetlistEncoder<'n> {
    /// Creates an encoder. `input_bits` is the width of the input's active
    /// window; the low `width - input_bits` bits are constant zero, matching
    /// the left-aligned drive of `FilterDesign::align_input`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have exactly one input or
    /// `input_bits` is zero or exceeds the datapath width.
    #[must_use]
    pub fn new(netlist: &'n Netlist, input_bits: u32) -> Self {
        let w = netlist.width();
        assert!(input_bits >= 1 && input_bits <= w, "bad input window");
        assert_eq!(netlist.input_ids().len(), 1, "single-input netlists only");
        let depth = memory_depth(netlist);
        NetlistEncoder {
            netlist,
            input_bits,
            align: w - input_bits,
            w: w as usize,
            depth,
            frames: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// The encoded netlist.
    #[must_use]
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Width of the input's active window.
    #[must_use]
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }

    /// Maximum number of registers on any source-to-output path. Outputs at
    /// frame `t >= memory_depth()` are a fixed function of the last
    /// `memory_depth() + 1` input words.
    #[must_use]
    pub fn memory_depth(&self) -> u32 {
        self.depth
    }

    /// Free input-window literals of frame `t` (LSB of the window first).
    #[must_use]
    pub fn input_lits(&self, frame: usize) -> &[GLit] {
        &self.inputs[frame]
    }

    /// Good-machine bits of `node` at `frame`, LSB first.
    #[must_use]
    pub fn good(&self, frame: usize, node: NodeId) -> &[GLit] {
        let base = node.index() * self.w;
        &self.frames[frame][base..base + self.w]
    }

    /// Builds good-machine frames `0..=upto` into `circuit` (idempotent).
    /// Every call must pass the same circuit.
    pub fn ensure_frames(&mut self, circuit: &mut Circuit, upto: usize) {
        while self.frames.len() <= upto {
            let input_lits: Vec<GLit> = (0..self.input_bits).map(|_| circuit.input()).collect();
            let mut plane = vec![GLit::FALSE; self.netlist.nodes().len() * self.w];
            self.seed_frame(&mut plane, &input_lits, self.frames.last());
            let all = vec![true; self.netlist.nodes().len()];
            self.eval_frame(circuit, &mut plane, None, &all);
            self.frames.push(plane);
            self.inputs.push(input_lits);
        }
    }

    /// Fills inputs, constants and register values (from the previous
    /// frame, or reset-zero at frame 0) into a fresh frame plane.
    fn seed_frame(&self, plane: &mut [GLit], input_lits: &[GLit], prev: Option<&Vec<GLit>>) {
        let w = self.w;
        for (i, node) in self.netlist.nodes().iter().enumerate() {
            match node.kind {
                NodeKind::Const { raw } => {
                    for b in 0..w {
                        plane[i * w + b] = const_bit(raw, b);
                    }
                }
                NodeKind::Register { src } => {
                    if let Some(prev) = prev {
                        let s = src.index() * w;
                        plane[i * w..i * w + w].copy_from_slice(&prev[s..s + w]);
                    } // frame 0: reset, already constant false
                }
                NodeKind::Input => {
                    for (k, &l) in input_lits.iter().enumerate() {
                        plane[i * w + self.align as usize + k] = l;
                    }
                }
                _ => {}
            }
        }
    }

    /// The structural fanout of `node` (register edges included; the carry
    /// half of a carry-save pair follows its sum node): `true` for every
    /// node whose value can differ from the good machine under a fault at
    /// `node`.
    #[must_use]
    pub fn fanout_set(&self, node: NodeId) -> Vec<bool> {
        let nodes = self.netlist.nodes();
        let mut tainted = vec![false; nodes.len()];
        tainted[node.index()] = true;
        // Operands (and register sources) always have smaller indices, so
        // one ascending pass reaches the fixed point of the static graph
        // with register edges folded in.
        for (i, n) in nodes.iter().enumerate() {
            if tainted[i] {
                continue;
            }
            tainted[i] = match n.kind {
                NodeKind::Input | NodeKind::Const { .. } => false,
                NodeKind::Register { src }
                | NodeKind::Output { src }
                | NodeKind::ShiftRight { src, .. }
                | NodeKind::Not { src }
                | NodeKind::SetLsb { src } => tainted[src.index()],
                NodeKind::Add { a, b } | NodeKind::Sub { a, b } => {
                    tainted[a.index()] || tainted[b.index()]
                }
                NodeKind::CsaSum { a, b, c } => {
                    tainted[a.index()] || tainted[b.index()] || tainted[c.index()]
                }
                NodeKind::CsaCarry { a, b, c, sum } => {
                    // The pair shares one faulty gate network: a fault on
                    // the sum node corrupts the carry output too.
                    tainted[a.index()]
                        || tainted[b.index()]
                        || tainted[c.index()]
                        || tainted[sum.index()]
                }
                _ => false,
            };
        }
        tainted
    }

    /// Unrolls the whole faulty machine over frames `0..=upto`, sharing
    /// every gate outside the fault's structural fanout with the good
    /// machine. Good frames `0..=upto` must already be built. The prover
    /// unrolls on demand instead ([`NetlistEncoder::output_diff`]); this
    /// full unroll is the test reference it must match edge for edge.
    #[cfg(test)]
    #[must_use]
    fn faulty_frames(&self, circuit: &mut Circuit, fault: &FaultSpec, upto: usize) -> FrameCone {
        assert!(self.frames.len() > upto, "good frames not built");
        let tainted = self.fanout_set(fault.node);
        let w = self.w;
        let mut out: FrameCone = Vec::with_capacity(upto + 1);
        for t in 0..=upto {
            let mut plane = self.frames[t].clone();
            // Re-seed tainted registers from the faulty previous frame.
            for (i, node) in self.netlist.nodes().iter().enumerate() {
                if !tainted[i] {
                    continue;
                }
                if let NodeKind::Register { src } = node.kind {
                    if t == 0 {
                        for b in 0..w {
                            plane[i * w + b] = GLit::FALSE;
                        }
                    } else {
                        let prev: &Vec<GLit> = &out[t - 1];
                        let s = src.index() * w;
                        let row: Vec<GLit> = prev[s..s + w].to_vec();
                        plane[i * w..i * w + w].copy_from_slice(&row);
                    }
                }
            }
            self.eval_frame(circuit, &mut plane, Some(fault), &tainted);
            out.push(plane);
        }
        out
    }

    /// Starts an on-demand unroll of `fault`'s faulty machine over the
    /// good frames built so far. Nothing is built until
    /// [`NetlistEncoder::unroll_faulty`] asks for a frame.
    #[must_use]
    pub fn faulty_unroll(&self, fault: &FaultSpec) -> FaultyUnroll {
        FaultyUnroll {
            fault: *fault,
            tainted: self.fanout_set(fault.node),
            slot: vec![UNBUILT; self.frames.len() * self.netlist.nodes().len()],
            rows: Vec::new(),
        }
    }

    /// Builds every faulty row that `frame`'s outputs reach and that no
    /// earlier call built: a backward needed-set over operands and
    /// register edges (only the fault's structural fanout enters it), then
    /// one forward pass in (frame, node) order. A node that does not carry
    /// the fault and whose operand rows all equal the good rows keeps the
    /// good row without touching `circuit`; a built row that hash-conses
    /// to the good row is recorded as good too. Either way the edges are
    /// the ones the full reference unroll (`faulty_frames`, in the
    /// tests) would build.
    pub fn unroll_faulty(&self, circuit: &mut Circuit, unroll: &mut FaultyUnroll, frame: usize) {
        assert!(frame < self.frames.len(), "good frames not built");
        let nodes = self.netlist.nodes();
        let n = nodes.len();
        let mut stack: Vec<usize> = Vec::new();
        for out in self.netlist.output_ids() {
            unroll.request(frame * n + out.index(), &mut stack);
        }
        let mut pending: Vec<usize> = Vec::new();
        while let Some(key) = stack.pop() {
            pending.push(key);
            let t = key / n;
            match nodes[key % n].kind {
                NodeKind::Register { src } => {
                    if t > 0 {
                        unroll.request((t - 1) * n + src.index(), &mut stack);
                    }
                }
                kind => {
                    for op in kind.operands() {
                        unroll.request(t * n + op.index(), &mut stack);
                    }
                }
            }
        }
        // Operands and register sources have smaller indices, so key
        // order is a topological order across frames.
        pending.sort_unstable();
        let mut row = vec![GLit::FALSE; self.w];
        for key in pending {
            let (t, i) = (key / n, key % n);
            let kind = nodes[i].kind;
            unroll.slot[key] = match kind {
                // A register aliases its source's previous-frame row; at
                // frame 0 it is reset-zero, like the good machine's.
                NodeKind::Register { src } if t > 0 => {
                    unroll.slot_or_good((t - 1) * n + src.index())
                }
                NodeKind::Register { .. } => GOOD,
                _ if !self.hosts(&unroll.fault, i)
                    && kind.operands().iter().all(|op| unroll.is_good(t * n + op.index())) =>
                {
                    GOOD
                }
                _ => {
                    let view: &FaultyUnroll = unroll;
                    self.eval_node(
                        circuit,
                        i,
                        Some(&view.fault),
                        |id| self.faulty(view, t, id),
                        &mut row,
                    );
                    if row == self.good(t, self.netlist.node_id(i)) {
                        GOOD
                    } else {
                        let at = unroll.rows.len() as u32;
                        unroll.rows.extend_from_slice(&row);
                        at
                    }
                }
            };
        }
    }

    /// Faulty-machine bits of `node` at `frame`, LSB first. The row must
    /// be built: `frame`'s outputs reach it and
    /// [`NetlistEncoder::unroll_faulty`] has run for `frame`, or `node`
    /// lies outside the fault's fanout.
    ///
    /// # Panics
    ///
    /// Panics if the row is in the fanout and not built.
    #[must_use]
    pub fn faulty<'a>(
        &'a self,
        unroll: &'a FaultyUnroll,
        frame: usize,
        node: NodeId,
    ) -> &'a [GLit] {
        let n = self.netlist.nodes().len();
        let slot = unroll.slot_or_good(frame * n + node.index());
        if slot == GOOD {
            return self.good(frame, node);
        }
        assert!(slot < GOOD, "faulty row of {node} at frame {frame} is not built");
        &unroll.rows[slot as usize..slot as usize + self.w]
    }

    /// True when `fault` is injected while computing node `i`: the faulty
    /// adder itself, or the carry half of a faulty carry-save pair.
    fn hosts(&self, fault: &FaultSpec, i: usize) -> bool {
        match self.netlist.nodes()[i].kind {
            NodeKind::CsaCarry { sum, .. } => sum == fault.node,
            _ => fault.node.index() == i,
        }
    }

    /// Evaluates the masked combinational nodes of one frame in place,
    /// optionally with a stuck-at fault injected.
    fn eval_frame(
        &self,
        circuit: &mut Circuit,
        plane: &mut [GLit],
        fault: Option<&FaultSpec>,
        mask: &[bool],
    ) {
        let w = self.w;
        let mut row = vec![GLit::FALSE; w];
        for &idx in self.netlist.eval_order() {
            let i = idx as usize;
            let seeded = matches!(
                self.netlist.nodes()[i].kind,
                NodeKind::Input | NodeKind::Const { .. } | NodeKind::Register { .. }
            );
            if !mask[i] || seeded {
                continue;
            }
            let view: &[GLit] = plane;
            self.eval_node(
                circuit,
                i,
                fault,
                |id| &view[id.index() * w..id.index() * w + w],
                &mut row,
            );
            plane[i * w..i * w + w].copy_from_slice(&row);
        }
    }

    /// Computes combinational node `i`'s row at one frame into `out` from
    /// its operands' rows at that frame (`row`), with `fault` injected
    /// when it sits on this node. Inputs, constants and registers are
    /// seeded by the caller.
    fn eval_node<'r>(
        &self,
        circuit: &mut Circuit,
        i: usize,
        fault: Option<&FaultSpec>,
        row: impl Fn(NodeId) -> &'r [GLit],
        out: &mut [GLit],
    ) {
        let w = self.w;
        match self.netlist.nodes()[i].kind {
            NodeKind::Output { src } => out.copy_from_slice(row(src)),
            NodeKind::ShiftRight { src, amount } => {
                let s = row(src);
                for (b, bit) in out.iter_mut().enumerate() {
                    *bit = s.get(b + amount as usize).copied().unwrap_or(s[w - 1]);
                }
            }
            NodeKind::Not { src } => {
                for (bit, &s) in out.iter_mut().zip(row(src)) {
                    *bit = s.not();
                }
            }
            NodeKind::SetLsb { src } => {
                out.copy_from_slice(row(src));
                out[0] = GLit::TRUE;
            }
            NodeKind::Add { a, b } => {
                self.eval_arith(circuit, i, row(a), row(b), false, fault, out)
            }
            NodeKind::Sub { a, b } => self.eval_arith(circuit, i, row(a), row(b), true, fault, out),
            NodeKind::CsaSum { a, b, c } => {
                eval_csa(circuit, row(a), row(b), row(c), i, false, fault, out);
            }
            NodeKind::CsaCarry { a, b, c, sum } => {
                eval_csa(circuit, row(a), row(b), row(c), sum.index(), true, fault, out);
            }
            _ => unreachable!("inputs, constants and registers are seeded, not computed"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_arith(
        &self,
        circuit: &mut Circuit,
        i: usize,
        a: &[GLit],
        b: &[GLit],
        subtract: bool,
        fault: Option<&FaultSpec>,
        out: &mut [GLit],
    ) {
        let w = self.w;
        let top = self.netlist.msb_trim(self.netlist.node_id(i)) as usize;
        let Some(f) = fault.filter(|f| f.node.index() == i) else {
            // Fault-free: delegate to the shared constructor so the
            // equivalence lemmas certify the exact gate network the encoder
            // emits (hash-consing makes them literally the same edges).
            out.copy_from_slice(&ripple_word(circuit, a, b, subtract, top));
            return;
        };
        let mut carry = if subtract { GLit::TRUE } else { GLit::FALSE };
        for bit in 0..top {
            let av = a[bit];
            let bv = if subtract { b[bit].not() } else { b[bit] };
            if f.cell as usize == bit {
                let (s, co) = faulty_cell(circuit, av, bv, carry, f.fault);
                out[bit] = s;
                carry = co;
            } else {
                let x1 = circuit.xor(av, bv);
                out[bit] = circuit.xor(x1, carry);
                let ab = circuit.and(av, bv);
                let xc = circuit.and(x1, carry);
                carry = circuit.or(ab, xc);
            }
        }
        let av = a[top];
        let bv = if subtract { b[top].not() } else { b[top] };
        let sign = if f.cell as usize == top {
            faulty_sum_only_cell(circuit, av, bv, carry, f.fault)
        } else {
            let x1 = circuit.xor(av, bv);
            circuit.xor(x1, carry)
        };
        for slot in &mut out[top..w] {
            *slot = sign;
        }
    }

    /// Per-bit miter edges (`good XOR faulty` over every output bit) at
    /// `frame`, unrolling the faulty rows they need first.
    #[must_use]
    pub fn output_diff(
        &self,
        circuit: &mut Circuit,
        frame: usize,
        faulty: &mut FaultyUnroll,
    ) -> Vec<GLit> {
        self.unroll_faulty(circuit, faulty, frame);
        let mut diffs = Vec::new();
        for out in self.netlist.output_ids() {
            for (&g, &f) in self.good(frame, out).iter().zip(self.faulty(faulty, frame, out)) {
                diffs.push(circuit.xor(g, f));
            }
        }
        diffs
    }

    /// Reads the witness input word of `frame` from a SAT model: the free
    /// window bits, left-aligned and sign-extended — directly steppable
    /// through [`rtl::sim::BitSlicedSim::step`].
    #[must_use]
    pub fn witness_word(&self, circuit: &Circuit, solver: &Solver, frame: usize) -> i64 {
        let mut bits: u64 = 0;
        for (k, &l) in self.inputs[frame].iter().enumerate() {
            if circuit.model_value(solver, l) {
                bits |= 1 << (self.align as usize + k);
            }
        }
        self.netlist.format().sign_extend(bits)
    }
}

/// The fault-free trimmed ripple adder/subtractor over word edges: full
/// cells up to `top - 1`, a sum-only cell at `top`, sign copies above.
/// This is the exact network [`NetlistEncoder`] emits for `Add`/`Sub`
/// nodes; [`crate::equiv`] proves SAT lemmas against it directly.
pub(crate) fn ripple_word(
    circuit: &mut Circuit,
    a: &[GLit],
    b: &[GLit],
    subtract: bool,
    top: usize,
) -> Vec<GLit> {
    let w = a.len();
    debug_assert_eq!(b.len(), w);
    debug_assert!(top < w);
    let mut out = vec![GLit::FALSE; w];
    let mut carry = if subtract { GLit::TRUE } else { GLit::FALSE };
    for bit in 0..top {
        let av = a[bit];
        let bv = if subtract { b[bit].not() } else { b[bit] };
        let x1 = circuit.xor(av, bv);
        out[bit] = circuit.xor(x1, carry);
        let ab = circuit.and(av, bv);
        let xc = circuit.and(x1, carry);
        carry = circuit.or(ab, xc);
    }
    let av = a[top];
    let bv = if subtract { b[top].not() } else { b[top] };
    let x1 = circuit.xor(av, bv);
    let sign = circuit.xor(x1, carry);
    for slot in out.iter_mut().skip(top) {
        *slot = sign;
    }
    out
}

/// The fault-free carry-save pair over word edges: `(sum, carry)` with the
/// carry column shifted up one bit (LSB zero, top majority bit dropped).
/// Matches the encoder's `CsaSum`/`CsaCarry` networks edge-for-edge.
pub(crate) fn csa_words(
    circuit: &mut Circuit,
    a: &[GLit],
    b: &[GLit],
    c: &[GLit],
) -> (Vec<GLit>, Vec<GLit>) {
    let w = a.len();
    debug_assert_eq!(b.len(), w);
    debug_assert_eq!(c.len(), w);
    let mut sum = vec![GLit::FALSE; w];
    let mut carry = vec![GLit::FALSE; w];
    for bit in 0..w {
        let x = circuit.xor(a[bit], b[bit]);
        sum[bit] = circuit.xor(x, c[bit]);
        if bit + 1 < w {
            let ab = circuit.and(a[bit], b[bit]);
            let xc = circuit.and(x, c[bit]);
            carry[bit + 1] = circuit.or(ab, xc);
        }
    }
    (sum, carry)
}

/// Computes one carry-save output word into `out`: the sum word, or the
/// carry word when `carry_out`, with `fault` injected when it sits on
/// the pair's sum node `fault_node`.
#[allow(clippy::too_many_arguments)]
fn eval_csa(
    circuit: &mut Circuit,
    a: &[GLit],
    b: &[GLit],
    c: &[GLit],
    fault_node: usize,
    carry_out: bool,
    fault: Option<&FaultSpec>,
    out: &mut [GLit],
) {
    let w = out.len();
    let Some(f) = fault.filter(|f| f.node.index() == fault_node) else {
        // Fault-free: the shared constructor (hash-consing dedups the
        // second half of the pair when its sibling already ran).
        let (sum, carry) = csa_words(circuit, a, b, c);
        out.copy_from_slice(if carry_out { &carry } else { &sum });
        return;
    };
    if carry_out {
        out[0] = GLit::FALSE;
        for bit in 0..w - 1 {
            let (av, bv, cv) = (a[bit], b[bit], c[bit]);
            out[bit + 1] = if f.cell as usize == bit {
                faulty_cell(circuit, av, bv, cv, f.fault).1
            } else {
                let ab = circuit.and(av, bv);
                let x = circuit.xor(av, bv);
                let xc = circuit.and(x, cv);
                circuit.or(ab, xc)
            };
        }
    } else {
        for bit in 0..w {
            let (av, bv, cv) = (a[bit], b[bit], c[bit]);
            out[bit] = if f.cell as usize == bit {
                faulty_cell(circuit, av, bv, cv, f.fault).0
            } else {
                let x = circuit.xor(av, bv);
                circuit.xor(x, cv)
            };
        }
    }
}

/// Constant bit `b` of a raw word as a gate edge.
fn const_bit(raw: i64, b: usize) -> GLit {
    if (raw as u64 >> b) & 1 == 1 {
        GLit::TRUE
    } else {
        GLit::FALSE
    }
}

/// Maximum number of registers on any source-to-output path.
fn memory_depth(netlist: &Netlist) -> u32 {
    let nodes = netlist.nodes();
    let mut d = vec![0u32; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        d[i] = match n.kind {
            NodeKind::Input | NodeKind::Const { .. } => 0,
            NodeKind::Register { src } => d[src.index()] + 1,
            NodeKind::Output { src }
            | NodeKind::ShiftRight { src, .. }
            | NodeKind::Not { src }
            | NodeKind::SetLsb { src } => d[src.index()],
            NodeKind::Add { a, b } | NodeKind::Sub { a, b } => d[a.index()].max(d[b.index()]),
            NodeKind::CsaSum { a, b, c } | NodeKind::CsaCarry { a, b, c, .. } => {
                d[a.index()].max(d[b.index()]).max(d[c.index()])
            }
            _ => 0,
        };
    }
    netlist.output_ids().iter().map(|o| d[o.index()]).max().unwrap_or(0)
}

/// The five-gate full-adder cell with one stuck line, mirroring
/// [`rtl::fulladder::eval_word`]. Returns `(sum, cout)`.
pub(crate) fn faulty_cell(
    c: &mut Circuit,
    a: GLit,
    b: GLit,
    ci: GLit,
    fault: FaFault,
) -> (GLit, GLit) {
    let stuck = if fault.stuck_one { GLit::TRUE } else { GLit::FALSE };
    let f = |line: Line, v: GLit| if line == fault.line { stuck } else { v };
    let a_stem = f(Line::AStem, a);
    let a_xor = f(Line::AXor, a_stem);
    let a_and = f(Line::AAnd, a_stem);
    let b_stem = f(Line::BStem, b);
    let b_xor = f(Line::BXor, b_stem);
    let b_and = f(Line::BAnd, b_stem);
    let ci_stem = f(Line::CiStem, ci);
    let ci_xor = f(Line::CiXor, ci_stem);
    let ci_and = f(Line::CiAnd, ci_stem);
    let x1 = c.xor(a_xor, b_xor);
    let x1_stem = f(Line::X1Stem, x1);
    let x1_xor = f(Line::X1Xor, x1_stem);
    let x1_and = f(Line::X1And, x1_stem);
    let and1 = f(Line::And1, c.and(a_and, b_and));
    let and2 = f(Line::And2, c.and(x1_and, ci_and));
    let sum_raw = c.xor(x1_xor, ci_xor);
    let sum = f(Line::Sum, sum_raw);
    let cout_raw = c.or(and1, and2);
    let cout = f(Line::Cout, cout_raw);
    (sum, cout)
}

/// The sum-only (trimmed MSB) cell with one stuck line, mirroring
/// [`rtl::fulladder::eval_word_sum_only`]: stems and their single XOR
/// branches coincide; carry-path faults have no hardware to sit on.
pub(crate) fn faulty_sum_only_cell(
    c: &mut Circuit,
    a: GLit,
    b: GLit,
    ci: GLit,
    fault: FaFault,
) -> GLit {
    let stuck = if fault.stuck_one { GLit::TRUE } else { GLit::FALSE };
    let f = |line: Line, v: GLit| if line == fault.line { stuck } else { v };
    let av = f(Line::AXor, f(Line::AStem, a));
    let bv = f(Line::BXor, f(Line::BStem, b));
    let civ = f(Line::CiXor, f(Line::CiStem, ci));
    let x1_raw = c.xor(av, bv);
    let x1 = f(Line::X1Xor, f(Line::X1Stem, x1_raw));
    let sum_raw = c.xor(x1, civ);
    f(Line::Sum, sum_raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;
    use rtl::sim::{BitSlicedSim, CellFault};
    use rtl::NetlistBuilder;
    use testkit::Rng;

    /// A small feed-forward netlist exercising every node kind except CSA.
    fn mixed_netlist(width: u32) -> Netlist {
        let mut b = NetlistBuilder::new(width).unwrap();
        let x = b.input("x");
        let d1 = b.register(x);
        let d2 = b.register(d1);
        let s = b.shift_right(d1, 2);
        let a = b.add_labeled(x, s, "a");
        let n = b.not_word(d2);
        let sub = b.sub_labeled(a, n, "s");
        b.output(sub, "y");
        b.finish().unwrap()
    }

    /// A CSA pair netlist (sum/carry compressors plus a merge adder).
    fn csa_netlist(width: u32) -> Netlist {
        let mut b = NetlistBuilder::new(width).unwrap();
        let x = b.input("x");
        let d1 = b.register(x);
        let d2 = b.register(d1);
        let (s, c) = b.csa(x, d1, d2, "csa0");
        let sl = b.set_lsb(c);
        let m = b.add_labeled(s, sl, "merge");
        b.output(m, "y");
        b.finish().unwrap()
    }

    /// Drives the simulator with `seq` and returns the final-step output
    /// word of lane `lane`.
    fn sim_run(netlist: &Netlist, seq: &[i64], fault: Option<&FaultSpec>, lane: u32) -> i64 {
        let mut sim = BitSlicedSim::new(netlist);
        if let Some(f) = fault {
            sim.set_faults(
                f.node,
                vec![CellFault { cell: f.cell, fault: f.fault, lanes: 1 << lane }],
            );
        }
        for &v in seq {
            sim.step(v);
        }
        sim.lane_value(netlist.output_ids()[0], lane)
    }

    /// Forces the encoder's input literals to `seq` and reads the output
    /// word at the last frame via the SAT model.
    fn encoded_run(netlist: &Netlist, seq: &[i64], fault: Option<&FaultSpec>) -> i64 {
        let w = netlist.width();
        let mut enc = NetlistEncoder::new(netlist, w);
        let mut circuit = Circuit::new();
        let last = seq.len() - 1;
        enc.ensure_frames(&mut circuit, last);
        let cone = match fault {
            Some(f) => enc.faulty_frames(&mut circuit, f, last),
            None => (0..=last).map(|t| enc.good(t, netlist.output_ids()[0]).to_vec()).collect(),
        };
        let mut solver = Solver::new();
        for (t, &v) in seq.iter().enumerate() {
            for (k, &l) in enc.input_lits(t).iter().enumerate() {
                let want = (v as u64 >> k) & 1 == 1;
                let edge = if want { l } else { l.not() };
                assert!(circuit.assert_true(&mut solver, edge));
            }
        }
        assert_eq!(solver.solve(), SolveResult::Sat);
        let out = netlist.output_ids()[0];
        let bits: u64 = (0..w as usize)
            .map(|b| {
                let edge = match fault {
                    Some(_) => cone[last][out.index() * w as usize + b],
                    None => enc.good(last, out)[b],
                };
                u64::from(circuit.model_value(&solver, edge)) << b
            })
            .fold(0, |acc, x| acc | x);
        netlist.format().sign_extend(bits)
    }

    #[test]
    fn good_machine_matches_simulator_on_random_vectors() {
        for netlist in [mixed_netlist(10), csa_netlist(10)] {
            let mut rng = Rng::new(0xDEAD_BEEF);
            for round in 0..12 {
                let len = 1 + (round % 5);
                let seq: Vec<i64> = (0..len)
                    .map(|_| {
                        let raw = rng.next_u64() % (1 << 10);
                        netlist.format().sign_extend(raw)
                    })
                    .collect();
                assert_eq!(
                    encoded_run(&netlist, &seq, None),
                    sim_run(&netlist, &seq, None, 0),
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn faulty_machine_matches_simulator_on_every_line() {
        let netlist = mixed_netlist(8);
        let node = netlist.find_label("s").unwrap();
        let mut rng = Rng::new(0x1234_5678);
        for line in rtl::fulladder::ALL_LINES {
            for stuck_one in [false, true] {
                let f = FaultSpec { node, cell: 1, fault: FaFault { line, stuck_one } };
                let seq: Vec<i64> = (0..3)
                    .map(|_| {
                        let raw = rng.next_u64() % (1 << 8);
                        netlist.format().sign_extend(raw)
                    })
                    .collect();
                assert_eq!(
                    encoded_run(&netlist, &seq, Some(&f)),
                    sim_run(&netlist, &seq, Some(&f), 1),
                    "{line:?} s-a-{}",
                    u8::from(stuck_one)
                );
            }
        }
    }

    #[test]
    fn faulty_csa_pair_matches_simulator() {
        let netlist = csa_netlist(8);
        let sum_node = netlist.find_label("csa0").unwrap();
        let mut rng = Rng::new(0x0BAD_CAFE);
        for cell in [0u32, 3, 7] {
            for line in [Line::Sum, Line::Cout, Line::AStem, Line::X1And] {
                let f =
                    FaultSpec { node: sum_node, cell, fault: FaFault { line, stuck_one: true } };
                let seq: Vec<i64> = (0..4)
                    .map(|_| {
                        let raw = rng.next_u64() % (1 << 8);
                        netlist.format().sign_extend(raw)
                    })
                    .collect();
                assert_eq!(
                    encoded_run(&netlist, &seq, Some(&f)),
                    sim_run(&netlist, &seq, Some(&f), 1),
                    "cell {cell} {line:?}"
                );
            }
        }
    }

    /// A delay line below an adder that carries the fault, and a second
    /// adder reading both ends of it.
    fn delayed_adder_netlist(width: u32) -> Netlist {
        let mut b = NetlistBuilder::new(width).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let a = b.add_labeled(x, d, "a");
        let r1 = b.register(a);
        let r2 = b.register(r1);
        let r3 = b.register(r2);
        let s = b.shift_right(r3, 1);
        let y = b.add_labeled(s, a, "y");
        b.output(y, "y");
        b.finish().unwrap()
    }

    /// Unrolls each fault on demand, frame `D` first as the prover does,
    /// then the whole faulty machine into the same circuit, and asserts
    /// every frame's output rows are the same edges.
    fn assert_on_demand_matches_full_unroll(netlist: &Netlist, faults: &[FaultSpec]) {
        let mut enc = NetlistEncoder::new(netlist, netlist.width());
        let mut circuit = Circuit::new();
        let d = enc.memory_depth() as usize;
        enc.ensure_frames(&mut circuit, d);
        for f in faults {
            let mut unroll = enc.faulty_unroll(f);
            for t in std::iter::once(d).chain(0..d) {
                enc.unroll_faulty(&mut circuit, &mut unroll, t);
            }
            let full = enc.faulty_frames(&mut circuit, f, d);
            let w = netlist.width() as usize;
            for (t, plane) in full.iter().enumerate() {
                for out in netlist.output_ids() {
                    assert_eq!(
                        enc.faulty(&unroll, t, out),
                        &plane[out.index() * w..out.index() * w + w],
                        "{f:?}: output {out} at frame {t}"
                    );
                }
            }
        }
    }

    /// Every arithmetic node's faults at `cells_per_node` random cells,
    /// each on a random line.
    fn sampled_faults(netlist: &Netlist, rng: &mut Rng, cells_per_node: usize) -> Vec<FaultSpec> {
        let mut faults = Vec::new();
        for node in netlist.node_ids() {
            if !netlist.nodes()[node.index()].kind.is_arithmetic() {
                continue;
            }
            for _ in 0..cells_per_node {
                let line = rtl::fulladder::ALL_LINES[rng.below(rtl::fulladder::ALL_LINES.len())];
                let cell = rng.below(netlist.width() as usize) as u32;
                faults.push(FaultSpec {
                    node,
                    cell,
                    fault: FaFault { line, stuck_one: rng.chance(2) },
                });
            }
        }
        faults
    }

    #[test]
    fn on_demand_unroll_matches_the_full_unroll() {
        // The fixtures: a carry-save pair with the fault on its sum node,
        // registers fed by registers, and a delay line below a faulty
        // adder, on every cell and line.
        for (netlist, label) in
            [(csa_netlist(6), "csa0"), (mixed_netlist(6), "s"), (delayed_adder_netlist(6), "a")]
        {
            let node = netlist.find_label(label).unwrap();
            let faults: Vec<FaultSpec> = (0..6)
                .flat_map(|cell| {
                    rtl::fulladder::ALL_LINES.into_iter().flat_map(move |line| {
                        [false, true].map(|stuck_one| FaultSpec {
                            node,
                            cell,
                            fault: FaFault { line, stuck_one },
                        })
                    })
                })
                .collect();
            assert_on_demand_matches_full_unroll(&netlist, &faults);
        }
        testkit::for_each_seed(0x5EED_0C01, 24, |seed| {
            let mut rng = Rng::new(seed);
            let netlist = testkit::random_netlist(&mut rng, 7, 14);
            let faults = sampled_faults(&netlist, &mut rng, 3);
            assert_on_demand_matches_full_unroll(&netlist, &faults);
        });
        let lp_mini = filters::designs::lowpass_mini().unwrap();
        let faults = sampled_faults(lp_mini.netlist(), &mut Rng::new(0x1F_3141), 1);
        assert_on_demand_matches_full_unroll(lp_mini.netlist(), &faults);
    }

    #[test]
    fn memory_depth_counts_register_chains() {
        let n = mixed_netlist(8);
        assert_eq!(memory_depth(&n), 2);
        let c = csa_netlist(8);
        assert_eq!(memory_depth(&c), 2);
    }

    #[test]
    fn fanout_set_is_monotone_downstream() {
        let n = mixed_netlist(8);
        let a = n.find_label("a").unwrap();
        let tainted = NetlistEncoder::new(&n, 8).fanout_set(a);
        assert!(tainted[a.index()]);
        assert!(tainted[n.find_label("s").unwrap().index()]);
        assert!(tainted[n.output_ids()[0].index()]);
        assert!(!tainted[n.input_ids()[0].index()]);
    }

    #[test]
    fn input_window_pins_low_bits_to_zero() {
        let netlist = mixed_netlist(8);
        let mut enc = NetlistEncoder::new(&netlist, 5);
        let mut circuit = Circuit::new();
        enc.ensure_frames(&mut circuit, 0);
        let x = netlist.input_ids()[0];
        let bits = enc.good(0, x);
        for (b, &bit) in bits.iter().enumerate().take(3) {
            assert_eq!(bit, GLit::FALSE, "aligned low bit {b}");
        }
        assert_eq!(enc.input_lits(0).len(), 5);
        // Witness with no constraints decodes to an aligned word.
        let solver = Solver::new();
        assert_eq!(enc.witness_word(&circuit, &solver, 0) & 0b111, 0);
    }
}
