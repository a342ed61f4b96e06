//! Flat levelized structure-of-arrays simulation kernel.
//!
//! [`rtl::sim::BitSlicedSim`] walks the netlist graph every cycle:
//! per-node enum dispatch, plane copies for wiring nodes (shifts,
//! outputs, sign extension, register reads), and — once any cell of a
//! node is faulted — a slow path that re-scans the node's fault list
//! and calls the interpretive gate model for *every* bit of that node.
//! This module compiles the same netlist **once** into a [`Tape`]: a
//! topologically-ordered straight-line program over a flat array of
//! u64 bit-plane *slots*, with
//!
//! * **one fused op per full-adder cell** (sum and carry produced
//!   together from three source slots — no per-gate dispatch in the
//!   hot loop, which runs over uniform-kind segments),
//! * **wiring compiled away**: shifts, sign extension, `SetLsb` upper
//!   bits, register reads and constant bits are pure *slot aliases*
//!   resolved at compile time — zero instructions at run time,
//! * **fault injection as tape patches** ([`KernelSim::set_faults`]):
//!   a patched cell is executed through the exact interpretive gate
//!   model ([`rtl::fulladder::eval_word`]) while every other op of the
//!   tape — including the rest of the faulted adder — stays on the
//!   branch-free fast path, and
//! * **optional multi-word lanes** ([`KernelSim::with_words`]): `N`
//!   independent 64-pattern words per pass share one instruction
//!   stream.
//!
//! # Slot-numbering contract
//!
//! Slot `0` is constant all-zeros and slot `1` constant all-ones;
//! neither is ever a destination. Every other physical slot is written
//! by exactly one producer per cycle (input broadcast, one tape op, or
//! the register latch phase) — the tape is in SSA form — and every op
//! reads only slots produced earlier in the tape, by the latch phase
//! of the previous cycle, or by the input broadcast. Register slots
//! double as the architectural state: they hold the *previous* cycle's
//! latched value throughout combinational evaluation and are updated
//! in a two-phase gather/commit latch, so chained registers observe
//! pre-latch values exactly like hardware (and like the walker).
//!
//! # Bit-identity with the walker
//!
//! Each compiled construct mirrors one arm of the walker's evaluator:
//! fused `Full`/`FullN` ops are its ripple-carry fast path, `SumOnly`
//! its trimmed MSB cell, aliases its wiring copies, and patches its
//! faulted slow path (same [`rtl::fulladder::eval_word`] lane masks,
//! same per-cell carry chaining). [`KernelSim`] therefore produces the
//! same output planes, register snapshots, detection masks and MISR
//! foldings bit-for-bit — the differential tests in this crate and
//! `tests/kernel_parity.rs` hold the two equal on every built-in
//! design.
//!
//! Determinism: compilation and execution are pure functions of the
//! netlist, the input words and the injected faults — no hashing
//! iteration order, clocks or thread scheduling can reach the result.

use rtl::fulladder::{eval_word, FaFault};
use rtl::misr::MisrBank;
use rtl::sim::CellFault;
use rtl::{Netlist, NodeId, NodeKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Sentinel for "no slot" (an op without a carry destination).
const NO_SLOT: u32 = u32::MAX;

/// The operation kinds a tape is made of. A full-adder cell is one
/// fused op (not five gates); wiring is compiled into slot aliases and
/// emits no op at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// Full-adder cell: `sum = a^b^c`, `cout = maj(a,b,c)`.
    Full,
    /// Full-adder cell of a subtractor: `b` is complemented on read.
    FullN,
    /// Carry-less sum cell (trimmed MSB, or a carry-save sum bit):
    /// `sum = a^b^c`.
    SumOnly,
    /// Carry-less sum cell of a subtractor.
    SumOnlyN,
    /// Carry-save carry bit: `dst = maj(a,b,c)`. Emitted at the carry
    /// node's own topological position (its cells share the paired sum
    /// node's gate network, so its patches come from the sum node's
    /// fault list).
    Carry,
    /// Bitwise complement: `dst = !a`.
    Not,
    /// Plane copy: `dst = a` (only used to gather output blocks).
    Copy,
}

impl OpKind {
    /// `true` when the op complements its `b` operand on read (the
    /// subtractor's `a + !b + 1` form).
    fn negates_b(self) -> bool {
        matches!(self, OpKind::FullN | OpKind::SumOnlyN)
    }

    /// Stable lowercase mnemonic used by [`Tape::dump`].
    fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Full => "full",
            OpKind::FullN => "fulln",
            OpKind::SumOnly => "sum",
            OpKind::SumOnlyN => "sumn",
            OpKind::Carry => "carry",
            OpKind::Not => "not",
            OpKind::Copy => "copy",
        }
    }
}

/// Where one arithmetic node's cells live on the tape: cells `0..=top`
/// occupy ops `base_op..=base_op+top`, in bit order. A carry-save sum
/// node additionally records its paired carry node's `Carry` ops
/// (`carry_base..carry_base+width-1`), which the same cell faults
/// patch — the two nodes share one gate network, exactly as in the
/// walker.
#[derive(Debug, Clone, Copy)]
struct ArithOps {
    base_op: u32,
    top: u32,
    carry_base: Option<u32>,
}

/// A compiled netlist: the straight-line op tape (structure-of-arrays:
/// one parallel array per field) plus the slot map and the metadata
/// the executor needs (input/output/register slot blocks, latch pairs,
/// per-cell op addresses for fault patching).
///
/// Compile once with [`Tape::compile`], then run any number of
/// [`KernelSim`] machines against it — the tape is immutable and
/// freely shared across threads.
#[derive(Debug)]
pub struct Tape {
    width: usize,
    slots: usize,
    /// Parallel op arrays, indexed by op: kind, sources `a`/`b`/`c`,
    /// sum destination, carry destination (`NO_SLOT` when carry-less).
    kind: Vec<OpKind>,
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
    dst: Vec<u32>,
    dst2: Vec<u32>,
    /// Maximal uniform-kind runs `(kind, start, end)` covering the
    /// tape in order; the hot loop executes these without per-op
    /// dispatch.
    segments: Vec<(OpKind, u32, u32)>,
    /// `(node index, base slot)` of each input's `width`-slot block.
    inputs: Vec<(u32, u32)>,
    /// Base slot of each output's contiguous `width`-slot block, in
    /// [`Netlist::output_ids`] order.
    outputs: Vec<u32>,
    /// Base slot of each register's state block, in
    /// [`Netlist::register_indices`] order.
    reg_bases: Vec<u32>,
    /// `(register slot, source slot)` latch pairs, register-major in
    /// [`Netlist::register_indices`] order, bit-minor.
    latches: Vec<(u32, u32)>,
    /// Per-arithmetic-node cell-to-op addressing for fault patches.
    arith: HashMap<u32, ArithOps>,
    /// Physical slot of every `(node, bit)` plane, aliasing resolved;
    /// indexed `node_index * width + bit`.
    slot_of: Vec<u32>,
}

impl Tape {
    /// Lowers a netlist into its op tape. One pass over
    /// [`Netlist::eval_order`] allocates slots, resolves every wiring
    /// alias and emits the fused cell ops in topological (levelized)
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's evaluation order is not topological
    /// over its combinational edges (the builder guarantees it is).
    pub fn compile(netlist: &Netlist) -> Tape {
        let w = netlist.width() as usize;
        let n = netlist.nodes().len();
        let zero = 0u32;
        let ones = 1u32;
        let mut slots: u32 = 2;
        let mut slot_of = vec![NO_SLOT; n * w];
        let mut inputs = Vec::new();

        // Stateful and source-free nodes first: their slots exist
        // before any combinational consumer regardless of eval order.
        for (i, node) in netlist.nodes().iter().enumerate() {
            match node.kind {
                NodeKind::Input => {
                    let base = slots;
                    slots += w as u32;
                    for bit in 0..w {
                        slot_of[i * w + bit] = base + bit as u32;
                    }
                    inputs.push((i as u32, base));
                }
                NodeKind::Const { raw } => {
                    for bit in 0..w {
                        slot_of[i * w + bit] =
                            if (raw as u64 >> bit) & 1 == 1 { ones } else { zero };
                    }
                }
                NodeKind::Register { .. } => {
                    let base = slots;
                    slots += w as u32;
                    for bit in 0..w {
                        slot_of[i * w + bit] = base + bit as u32;
                    }
                }
                _ => {}
            }
        }

        let mut kind: Vec<OpKind> = Vec::new();
        let mut a: Vec<u32> = Vec::new();
        let mut b: Vec<u32> = Vec::new();
        let mut c: Vec<u32> = Vec::new();
        let mut dst: Vec<u32> = Vec::new();
        let mut dst2: Vec<u32> = Vec::new();
        let mut arith: HashMap<u32, ArithOps> = HashMap::new();
        // Carry ops recorded at each CsaCarry node, keyed by the paired
        // sum node; merged into `arith` after the pass (either node may
        // appear first in the evaluation order — the sum is not an
        // operand of the carry).
        let mut csa_carry_ops: HashMap<u32, u32> = HashMap::new();

        let slot = |slot_of: &[u32], id: NodeId, bit: usize| slot_of[id.index() * w + bit];

        for &order_idx in netlist.eval_order() {
            let i = order_idx as usize;
            match netlist.nodes()[i].kind {
                NodeKind::Input | NodeKind::Const { .. } | NodeKind::Register { .. } => {}
                NodeKind::ShiftRight { src, amount } => {
                    for bit in 0..w {
                        let from = (bit + amount as usize).min(w - 1);
                        slot_of[i * w + bit] = slot(&slot_of, src, from);
                    }
                }
                NodeKind::SetLsb { src } => {
                    slot_of[i * w] = ones;
                    for bit in 1..w {
                        slot_of[i * w + bit] = slot(&slot_of, src, bit);
                    }
                }
                NodeKind::Not { src } => {
                    let base = slots;
                    slots += w as u32;
                    for bit in 0..w {
                        kind.push(OpKind::Not);
                        a.push(slot(&slot_of, src, bit));
                        b.push(NO_SLOT);
                        c.push(NO_SLOT);
                        dst.push(base + bit as u32);
                        dst2.push(NO_SLOT);
                        slot_of[i * w + bit] = base + bit as u32;
                    }
                }
                NodeKind::Output { src } => {
                    // Outputs must be physically contiguous blocks (the
                    // MISR folds and the diff scan walk them as plane
                    // slices), so the aliased source is gathered.
                    let base = slots;
                    slots += w as u32;
                    for bit in 0..w {
                        kind.push(OpKind::Copy);
                        a.push(slot(&slot_of, src, bit));
                        b.push(NO_SLOT);
                        c.push(NO_SLOT);
                        dst.push(base + bit as u32);
                        dst2.push(NO_SLOT);
                        slot_of[i * w + bit] = base + bit as u32;
                    }
                }
                NodeKind::Add { a: na, b: nb } | NodeKind::Sub { a: na, b: nb } => {
                    let subtract = matches!(netlist.nodes()[i].kind, NodeKind::Sub { .. });
                    let top = netlist.msb_trim(netlist.node_id(i)) as usize;
                    let sum_base = slots;
                    slots += (top + 1) as u32;
                    arith.insert(
                        i as u32,
                        ArithOps { base_op: kind.len() as u32, top: top as u32, carry_base: None },
                    );
                    // The ripple carry chain: cell 0 starts from the
                    // constant carry-in (all-ones for `a + !b + 1`),
                    // each cout slot feeds the next cell's cin.
                    let mut cin = if subtract { ones } else { zero };
                    for bit in 0..top {
                        let cout = slots;
                        slots += 1;
                        kind.push(if subtract { OpKind::FullN } else { OpKind::Full });
                        a.push(slot(&slot_of, na, bit));
                        b.push(slot(&slot_of, nb, bit));
                        c.push(cin);
                        dst.push(sum_base + bit as u32);
                        dst2.push(cout);
                        cin = cout;
                    }
                    kind.push(if subtract { OpKind::SumOnlyN } else { OpKind::SumOnly });
                    a.push(slot(&slot_of, na, top));
                    b.push(slot(&slot_of, nb, top));
                    c.push(cin);
                    dst.push(sum_base + top as u32);
                    dst2.push(NO_SLOT);
                    for bit in 0..=top {
                        slot_of[i * w + bit] = sum_base + bit as u32;
                    }
                    // Sign extension is wiring: upper bits alias the
                    // trimmed MSB slot.
                    for bit in top + 1..w {
                        slot_of[i * w + bit] = sum_base + top as u32;
                    }
                }
                NodeKind::CsaSum { a: na, b: nb, c: nc } => {
                    // Carry-save sum: one carry-less sum op per cell
                    // (the cell's carry output lives on the paired
                    // CsaCarry node, evaluated at its own topological
                    // position — exactly the walker's split).
                    let sum_base = slots;
                    slots += w as u32;
                    arith.insert(
                        i as u32,
                        ArithOps {
                            base_op: kind.len() as u32,
                            top: (w - 1) as u32,
                            carry_base: None,
                        },
                    );
                    for bit in 0..w {
                        kind.push(OpKind::SumOnly);
                        a.push(slot(&slot_of, na, bit));
                        b.push(slot(&slot_of, nb, bit));
                        c.push(slot(&slot_of, nc, bit));
                        dst.push(sum_base + bit as u32);
                        dst2.push(NO_SLOT);
                        slot_of[i * w + bit] = sum_base + bit as u32;
                    }
                }
                NodeKind::CsaCarry { a: na, b: nb, c: nc, sum } => {
                    // Carry-save carry: bit 0 is hardwired zero; bits
                    // 1..w are majority ops over the *cell inputs* of
                    // bits 0..w-1. The cells are physically the paired
                    // sum node's, so its fault list patches these ops
                    // too (see `rebuild_patches`).
                    let base = slots;
                    slots += (w - 1) as u32;
                    csa_carry_ops.insert(sum.index() as u32, kind.len() as u32);
                    slot_of[i * w] = zero;
                    for bit in 0..w - 1 {
                        kind.push(OpKind::Carry);
                        a.push(slot(&slot_of, na, bit));
                        b.push(slot(&slot_of, nb, bit));
                        c.push(slot(&slot_of, nc, bit));
                        dst.push(base + bit as u32);
                        dst2.push(NO_SLOT);
                        slot_of[i * w + bit + 1] = base + bit as u32;
                    }
                }
                // `NodeKind` is non-exhaustive; a new variant must get a
                // lowering rule before the kernel can run it.
                ref other => panic!("no kernel lowering for node kind {other:?}"),
            }
        }

        for (sum_node, base) in csa_carry_ops {
            arith
                .get_mut(&sum_node)
                .expect("a carry-save carry node references a compiled sum node")
                .carry_base = Some(base);
        }

        debug_assert!(
            slot_of.iter().all(|&s| s != NO_SLOT),
            "every (node, bit) plane must resolve to a physical slot"
        );

        // Uniform-kind segments over the finished tape.
        let mut segments: Vec<(OpKind, u32, u32)> = Vec::new();
        for (op, &k) in kind.iter().enumerate() {
            match segments.last_mut() {
                Some((sk, _, end)) if *sk == k && *end == op as u32 => *end = op as u32 + 1,
                _ => segments.push((k, op as u32, op as u32 + 1)),
            }
        }

        let outputs =
            netlist.output_ids().iter().map(|out| slot_of[out.index() * w]).collect::<Vec<_>>();
        let mut reg_bases = Vec::new();
        let mut latches = Vec::new();
        for &idx in netlist.register_indices() {
            let i = idx as usize;
            if let NodeKind::Register { src } = netlist.nodes()[i].kind {
                reg_bases.push(slot_of[i * w]);
                for bit in 0..w {
                    latches.push((slot_of[i * w + bit], slot_of[src.index() * w + bit]));
                }
            }
        }

        Tape {
            width: w,
            slots: slots as usize,
            kind,
            a,
            b,
            c,
            dst,
            dst2,
            segments,
            inputs,
            outputs,
            reg_bases,
            latches,
            arith,
            slot_of,
        }
    }

    /// Datapath width in bits (one slot per bit plane).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of physical bit-plane slots (including the two constant
    /// slots).
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Number of ops on the tape.
    pub fn op_count(&self) -> usize {
        self.kind.len()
    }

    /// Number of sum-producing cell ops (`Full`/`FullN`/`SumOnly`/
    /// `SumOnlyN`) — one per full-adder cell of the design, excluding
    /// the wiring `Copy`/`Not` ops and the `Carry` ops that re-address
    /// carry-save cells from the paired carry node.
    pub fn cell_op_count(&self) -> usize {
        self.kind
            .iter()
            .filter(|k| !matches!(k, OpKind::Not | OpKind::Copy | OpKind::Carry))
            .count()
    }

    /// Number of uniform-kind segments the hot loop executes.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// A stable, human-readable rendering of the whole tape — slot
    /// blocks, every op, the segment runs and the latch pairs — used
    /// by the golden snapshot test to pin the compiled form.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tape width={} slots={} ops={} segments={} zero=s0 ones=s1",
            self.width,
            self.slots,
            self.op_count(),
            self.segments.len()
        );
        for &(node, base) in &self.inputs {
            let _ = writeln!(out, "input n{node} -> s{base}..s{}", base as usize + self.width);
        }
        for (r, &base) in self.reg_bases.iter().enumerate() {
            let _ = writeln!(out, "reg {r} -> s{base}..s{}", base as usize + self.width);
        }
        for (o, &base) in self.outputs.iter().enumerate() {
            let _ = writeln!(out, "out {o} -> s{base}..s{}", base as usize + self.width);
        }
        let mut nodes: Vec<(&u32, &ArithOps)> = self.arith.iter().collect();
        nodes.sort_by_key(|(&n, _)| n);
        for (&node, info) in nodes {
            let _ = write!(out, "arith n{node} base_op={} top={}", info.base_op, info.top);
            if let Some(cb) = info.carry_base {
                let _ = write!(out, " carry_base={cb}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "ops:");
        for i in 0..self.kind.len() {
            let _ = write!(out, "  {i:4} {:5} a=s{}", self.kind[i].mnemonic(), self.a[i]);
            if self.b[i] != NO_SLOT {
                let _ = write!(out, " b=s{}", self.b[i]);
            }
            if self.c[i] != NO_SLOT {
                let _ = write!(out, " c=s{}", self.c[i]);
            }
            let _ = write!(out, " -> s{}", self.dst[i]);
            if self.dst2[i] != NO_SLOT {
                let _ = write!(out, " co=s{}", self.dst2[i]);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "segments:");
        for &(k, s, e) in &self.segments {
            let _ = writeln!(out, "  {:5} {s}..{e}", k.mnemonic());
        }
        let _ = writeln!(out, "latches:");
        for &(d, s) in &self.latches {
            let _ = writeln!(out, "  s{d} <- s{s}");
        }
        out
    }
}

/// The per-word fault lists of one patched op: `(word, [(fault,
/// lanes)])` entries sorted by word index.
type WordPatches = Vec<(u32, Vec<(FaFault, u64)>)>;

/// A machine executing a [`Tape`]: the engine behind the parallel
/// fault simulator.
///
/// The API mirrors [`rtl::sim::BitSlicedSim`] (step, fault injection,
/// output diff, MISR folding, per-lane register snapshots) and is
/// bit-identical to it — see the module docs for the argument. With
/// [`KernelSim::with_words`] the machine carries `N` independent
/// 64-lane pattern words per pass over the same instruction stream;
/// the lane-indexed APIs (diff, folding, snapshots) address word 0.
#[derive(Debug)]
pub struct KernelSim<'t> {
    tape: &'t Tape,
    words: usize,
    /// Bit-plane buffer, slot-major: slot `s` of word `k` lives at
    /// `s * words + k`, so one op's `words` operand planes are
    /// contiguous. The hot loop runs op-outer/word-inner: the `words`
    /// lanes of a ripple-carry cell are independent, so the serialized
    /// carry chain of one word overlaps with its neighbours' and the
    /// inner loop vectorizes.
    buf: Vec<u64>,
    /// Injected faults, keyed `(word, node)`.
    node_faults: BTreeMap<(u32, u32), Vec<CellFault>>,
    /// Per-op patch list, sorted by op index; each entry carries the
    /// faulted words (sorted) with their lane-masked fault lists.
    patches: Vec<(u32, WordPatches)>,
    /// Architectural register state, latch-major (`latch * words +
    /// word`; mirrors the walker's separate `state` array): committed
    /// into the register slots at the start of each step, gathered
    /// from the latch source slots at its end — so mid-cycle reads see
    /// the register *output* and snapshots see the latched *state*,
    /// exactly like hardware.
    reg_state: Vec<u64>,
}

impl<'t> KernelSim<'t> {
    /// A single-word (64-lane) machine with all registers zero and no
    /// faults — the drop-in replacement for
    /// [`rtl::sim::BitSlicedSim::new`].
    pub fn new(tape: &'t Tape) -> Self {
        Self::with_words(tape, 1)
    }

    /// A machine carrying `words` independent 64-lane pattern words
    /// per pass (`words >= 1`) over one shared instruction stream —
    /// the parallel simulator batches that many fault shards into one
    /// machine. [`KernelSim::set_faults`] applies a fault set to every
    /// word; [`KernelSim::set_faults_in_word`] faults one word alone.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn with_words(tape: &'t Tape, words: usize) -> Self {
        assert!(words > 0, "a kernel machine needs at least one word");
        let mut buf = vec![0u64; tape.slots * words];
        buf[words..2 * words].fill(!0u64); // slot 1: constant all-ones
        let reg_state = vec![0u64; tape.latches.len() * words];
        KernelSim { tape, words, buf, node_faults: BTreeMap::new(), patches: Vec::new(), reg_state }
    }

    /// The executed tape.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// The number of 64-lane words per pass.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Resets all register state to zero (faults are kept).
    pub fn reset(&mut self) {
        self.reg_state.fill(0);
        for &reg in &self.tape.reg_bases {
            let lo = reg as usize * self.words;
            let hi = (reg as usize + self.tape.width) * self.words;
            self.buf[lo..hi].fill(0);
        }
    }

    /// Injects faults into an adder/subtractor/carry-save node of
    /// *every* word, replacing any faults previously set on that node
    /// — the same contract (and panic conditions) as
    /// [`rtl::sim::BitSlicedSim::set_faults`]. Each fault becomes a
    /// patch on the one tape op of its cell; faults on trimmed sign
    /// cells above the node's MSB are inert, exactly as in the walker.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an arithmetic node or a cell index is
    /// outside the datapath width.
    pub fn set_faults(&mut self, node: NodeId, faults: Vec<CellFault>) {
        for word in 1..self.words as u32 {
            self.install_faults(word, node, faults.clone());
        }
        self.install_faults(0, node, faults);
        self.rebuild_patches();
    }

    /// Injects faults into an adder/subtractor/carry-save node of one
    /// pattern word only, replacing any faults previously set on that
    /// `(word, node)` pair — the per-shard form the parallel simulator
    /// uses when batching several fault shards into one machine.
    ///
    /// # Panics
    ///
    /// Panics like [`KernelSim::set_faults`], or if `word` is out of
    /// range.
    pub fn set_faults_in_word(&mut self, word: usize, node: NodeId, faults: Vec<CellFault>) {
        assert!(word < self.words, "word {word} out of range");
        self.install_faults(word as u32, node, faults);
        self.rebuild_patches();
    }

    fn install_faults(&mut self, word: u32, node: NodeId, faults: Vec<CellFault>) {
        assert!(
            self.tape.arith.contains_key(&(node.index() as u32)),
            "faults can only be injected into adders/subtractors"
        );
        for f in &faults {
            assert!((f.cell as usize) < self.tape.width, "cell {} outside datapath", f.cell);
        }
        if faults.is_empty() {
            self.node_faults.remove(&(word, node.index() as u32));
        } else {
            self.node_faults.insert((word, node.index() as u32), faults);
        }
    }

    /// Removes every injected fault from every word.
    pub fn clear_all_faults(&mut self) {
        self.node_faults.clear();
        self.patches.clear();
    }

    fn rebuild_patches(&mut self) {
        let mut per_op: BTreeMap<u32, BTreeMap<u32, Vec<(FaFault, u64)>>> = BTreeMap::new();
        for (&(word, node), faults) in &self.node_faults {
            let info = self.tape.arith[&node];
            for f in faults {
                // Cells above the trimmed MSB have no hardware; the
                // walker's per-bit fault scan never reaches them.
                if f.cell > info.top {
                    continue;
                }
                per_op
                    .entry(info.base_op + f.cell)
                    .or_default()
                    .entry(word)
                    .or_default()
                    .push((f.fault, f.lanes));
                // A carry-save cell's gates also drive the paired
                // carry node's bit+1 output (the top cell's carry is
                // discarded, hence no op to patch).
                if let Some(carry_base) = info.carry_base {
                    if f.cell < info.top {
                        per_op
                            .entry(carry_base + f.cell)
                            .or_default()
                            .entry(word)
                            .or_default()
                            .push((f.fault, f.lanes));
                    }
                }
            }
        }
        self.patches =
            per_op.into_iter().map(|(op, words)| (op, words.into_iter().collect())).collect();
    }

    /// Advances one clock cycle with the same input word broadcast to
    /// all lanes of every word.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have exactly one input.
    pub fn step(&mut self, input_raw: i64) {
        assert_eq!(self.tape.inputs.len(), 1, "netlist does not have exactly one input");
        let base = self.tape.inputs[0].1;
        self.commit_registers();
        let bits = input_raw as u64;
        for b in 0..self.tape.width {
            let v = if (bits >> b) & 1 == 1 { !0u64 } else { 0 };
            let lo = (base as usize + b) * self.words;
            self.buf[lo..lo + self.words].fill(v);
        }
        self.exec();
        self.gather_registers();
    }

    /// Advances one clock cycle with a distinct input word per pattern
    /// word — the multi-word form of [`KernelSim::step`].
    ///
    /// # Panics
    ///
    /// Panics if `raws` does not hold exactly [`KernelSim::words`]
    /// entries or the netlist does not have exactly one input.
    pub fn step_words(&mut self, raws: &[i64]) {
        assert_eq!(self.tape.inputs.len(), 1, "netlist does not have exactly one input");
        assert_eq!(raws.len(), self.words, "one input word per pattern word");
        let base = self.tape.inputs[0].1;
        self.commit_registers();
        for (word, &raw) in raws.iter().enumerate() {
            let bits = raw as u64;
            for b in 0..self.tape.width {
                self.buf[(base as usize + b) * self.words + word] =
                    if (bits >> b) & 1 == 1 { !0u64 } else { 0 };
            }
        }
        self.exec();
        self.gather_registers();
    }

    fn exec(&mut self) {
        if self.patches.is_empty() {
            for s in 0..self.tape.segments.len() {
                let (k, lo, hi) = self.tape.segments[s];
                self.run_segment(k, lo as usize, hi as usize);
            }
            return;
        }
        // Split the straight-line stream at the patch points: clean
        // runs stay on the segment fast path, each patched cell runs
        // through the interpretive gate model in place (for its
        // faulted words; clean words of the same op take the fast
        // expressions), preserving the carry chain through it.
        let patches = std::mem::take(&mut self.patches);
        let mut seg = 0usize;
        let mut cursor = 0u32;
        for p in &patches {
            seg = self.run_range(seg, cursor, p.0);
            self.run_patched(p);
            cursor = p.0 + 1;
        }
        self.run_range(seg, cursor, self.tape.kind.len() as u32);
        self.patches = patches;
    }

    /// Executes clean ops in `[from, to)`, resuming the segment walk at
    /// `seg_idx`; returns the segment index to resume from next.
    fn run_range(&mut self, mut seg_idx: usize, from: u32, to: u32) -> usize {
        while seg_idx < self.tape.segments.len() {
            let (k, s, e) = self.tape.segments[seg_idx];
            if s >= to {
                break;
            }
            let lo = s.max(from);
            let hi = e.min(to);
            if lo < hi {
                self.run_segment(k, lo as usize, hi as usize);
            }
            if e <= to {
                seg_idx += 1;
            } else {
                break;
            }
        }
        seg_idx
    }

    fn run_segment(&mut self, kind: OpKind, start: usize, end: usize) {
        // Monomorphize the common word counts so the inner loops run
        // over fixed-size arrays: loading each operand plane into a
        // local `[u64; W]` breaks the may-alias chain between operand
        // reads and destination writes (everything lives in one `buf`),
        // which is what lets the compiler keep sources in registers and
        // vectorize the word-wise expressions. Odd-sized trailing
        // groups take the dynamic-width form.
        match self.words {
            1 => self.run_segment_w::<1>(kind, start, end),
            2 => self.run_segment_w::<2>(kind, start, end),
            4 => self.run_segment_w::<4>(kind, start, end),
            8 => self.run_segment_w::<8>(kind, start, end),
            16 => self.run_segment_w::<16>(kind, start, end),
            _ => self.run_segment_dyn(kind, start, end),
        }
    }

    fn run_segment_w<const W: usize>(&mut self, kind: OpKind, start: usize, end: usize) {
        debug_assert_eq!(self.words, W);
        let t = self.tape;
        let buf = &mut self.buf[..];
        let load = |buf: &[u64], base: usize| -> [u64; W] {
            buf[base..base + W].try_into().expect("plane")
        };
        // Op-outer, word-inner: the inner loop's `W` lanes are
        // independent and contiguous, so the ripple-carry store→load
        // chain of one word pipelines against its neighbours'.
        match kind {
            OpKind::Full | OpKind::FullN => {
                let neg = if kind == OpKind::FullN { !0u64 } else { 0 };
                for i in start..end {
                    let av = load(buf, t.a[i] as usize * W);
                    let bn = load(buf, t.b[i] as usize * W);
                    let cv = load(buf, t.c[i] as usize * W);
                    let (d, d2) = (t.dst[i] as usize * W, t.dst2[i] as usize * W);
                    let mut sum = [0u64; W];
                    let mut cry = [0u64; W];
                    for k in 0..W {
                        let bv = bn[k] ^ neg;
                        let x1 = av[k] ^ bv;
                        sum[k] = x1 ^ cv[k];
                        cry[k] = (av[k] & bv) | (x1 & cv[k]);
                    }
                    buf[d..d + W].copy_from_slice(&sum);
                    buf[d2..d2 + W].copy_from_slice(&cry);
                }
            }
            OpKind::SumOnly | OpKind::SumOnlyN => {
                let neg = if kind == OpKind::SumOnlyN { !0u64 } else { 0 };
                for i in start..end {
                    let av = load(buf, t.a[i] as usize * W);
                    let bn = load(buf, t.b[i] as usize * W);
                    let cv = load(buf, t.c[i] as usize * W);
                    let d = t.dst[i] as usize * W;
                    let mut sum = [0u64; W];
                    for k in 0..W {
                        sum[k] = av[k] ^ bn[k] ^ neg ^ cv[k];
                    }
                    buf[d..d + W].copy_from_slice(&sum);
                }
            }
            OpKind::Carry => {
                for i in start..end {
                    let av = load(buf, t.a[i] as usize * W);
                    let bv = load(buf, t.b[i] as usize * W);
                    let cv = load(buf, t.c[i] as usize * W);
                    let d = t.dst[i] as usize * W;
                    let mut cry = [0u64; W];
                    for k in 0..W {
                        cry[k] = (av[k] & bv[k]) | ((av[k] ^ bv[k]) & cv[k]);
                    }
                    buf[d..d + W].copy_from_slice(&cry);
                }
            }
            OpKind::Not => {
                for i in start..end {
                    let av = load(buf, t.a[i] as usize * W);
                    let d = t.dst[i] as usize * W;
                    let mut out = [0u64; W];
                    for k in 0..W {
                        out[k] = !av[k];
                    }
                    buf[d..d + W].copy_from_slice(&out);
                }
            }
            OpKind::Copy => {
                for i in start..end {
                    let (a, d) = (t.a[i] as usize * W, t.dst[i] as usize * W);
                    buf.copy_within(a..a + W, d);
                }
            }
        }
    }

    /// Dynamic-width fallback for word counts without a monomorphized
    /// form — bit-identical to [`KernelSim::run_segment_w`], just
    /// without the fixed-size register blocking.
    fn run_segment_dyn(&mut self, kind: OpKind, start: usize, end: usize) {
        let t = self.tape;
        let w = self.words;
        let buf = &mut self.buf[..];
        match kind {
            OpKind::Full | OpKind::FullN => {
                let neg = if kind == OpKind::FullN { !0u64 } else { 0 };
                for i in start..end {
                    let (a, b, c) = (t.a[i] as usize * w, t.b[i] as usize * w, t.c[i] as usize * w);
                    let (d, d2) = (t.dst[i] as usize * w, t.dst2[i] as usize * w);
                    for k in 0..w {
                        let av = buf[a + k];
                        let bv = buf[b + k] ^ neg;
                        let cv = buf[c + k];
                        let x1 = av ^ bv;
                        buf[d + k] = x1 ^ cv;
                        buf[d2 + k] = (av & bv) | (x1 & cv);
                    }
                }
            }
            OpKind::SumOnly | OpKind::SumOnlyN => {
                let neg = if kind == OpKind::SumOnlyN { !0u64 } else { 0 };
                for i in start..end {
                    let (a, b, c) = (t.a[i] as usize * w, t.b[i] as usize * w, t.c[i] as usize * w);
                    let d = t.dst[i] as usize * w;
                    for k in 0..w {
                        buf[d + k] = buf[a + k] ^ buf[b + k] ^ neg ^ buf[c + k];
                    }
                }
            }
            OpKind::Carry => {
                for i in start..end {
                    let (a, b, c) = (t.a[i] as usize * w, t.b[i] as usize * w, t.c[i] as usize * w);
                    let d = t.dst[i] as usize * w;
                    for k in 0..w {
                        let (av, bv, cv) = (buf[a + k], buf[b + k], buf[c + k]);
                        buf[d + k] = (av & bv) | ((av ^ bv) & cv);
                    }
                }
            }
            OpKind::Not => {
                for i in start..end {
                    let (a, d) = (t.a[i] as usize * w, t.dst[i] as usize * w);
                    for k in 0..w {
                        buf[d + k] = !buf[a + k];
                    }
                }
            }
            OpKind::Copy => {
                for i in start..end {
                    let (a, d) = (t.a[i] as usize * w, t.dst[i] as usize * w);
                    buf.copy_within(a..a + w, d);
                }
            }
        }
    }

    /// Executes one patched cell through the interpretive gate model —
    /// the exact evaluator the walker's faulted slow path uses, so the
    /// faulty planes agree bit-for-bit. A `Carry` op takes the carry
    /// output; every other kind takes the sum (plus, for full cells,
    /// the chained carry). For carry-less sum cells (trimmed MSB,
    /// carry-save sum bits) the discarded carry matches the walker's
    /// sum-only evaluation: the two evaluators agree on the sum output
    /// for every fault.
    fn run_patched(&mut self, patch: &(u32, WordPatches)) {
        let t = self.tape;
        let w = self.words;
        let op = patch.0 as usize;
        let negate = t.kind[op].negates_b();
        let carry_op = t.kind[op] == OpKind::Carry;
        let (a, b, c) = (t.a[op] as usize * w, t.b[op] as usize * w, t.c[op] as usize * w);
        let (d, d2) = (t.dst[op] as usize * w, t.dst2[op]);
        let mut faulted = patch.1.iter().peekable();
        for k in 0..w {
            let av = self.buf[a + k];
            let raw_b = self.buf[b + k];
            let bv = if negate { !raw_b } else { raw_b };
            let cv = self.buf[c + k];
            let faults: &[(FaFault, u64)] = match faulted.peek() {
                Some(&&(word, ref list)) if word as usize == k => {
                    faulted.next();
                    list
                }
                _ => &[],
            };
            if faults.is_empty() {
                // A clean word of a patched op: the fast expressions,
                // exactly as run_segment would have produced them.
                let x1 = av ^ bv;
                self.buf[d + k] = if carry_op { (av & bv) | (x1 & cv) } else { x1 ^ cv };
                if d2 != NO_SLOT {
                    self.buf[d2 as usize * w + k] = (av & bv) | (x1 & cv);
                }
            } else {
                let (sum, cout) = eval_word(av, bv, cv, faults);
                self.buf[d + k] = if carry_op { cout } else { sum };
                if d2 != NO_SLOT {
                    self.buf[d2 as usize * w + k] = cout;
                }
            }
        }
    }

    /// Commits the architectural state into the register slots — the
    /// walker's "Register copies state into planes" arm, run once at
    /// the start of a step.
    fn commit_registers(&mut self) {
        let w = self.words;
        for (k, &(dst, _)) in self.tape.latches.iter().enumerate() {
            let lo = dst as usize * w;
            self.buf[lo..lo + w].copy_from_slice(&self.reg_state[k * w..(k + 1) * w]);
        }
    }

    /// Gathers every register's next value into the architectural
    /// state — the walker's `latch_registers`. The register slots are
    /// untouched until the next step's commit, so chained registers
    /// (and post-step reads) observe pre-latch values, like the
    /// walker's planes/state split.
    fn gather_registers(&mut self) {
        let w = self.words;
        for (k, &(_, src)) in self.tape.latches.iter().enumerate() {
            let lo = src as usize * w;
            self.reg_state[k * w..(k + 1) * w].copy_from_slice(&self.buf[lo..lo + w]);
        }
    }

    /// Reads one lane's word at a node (word 0), sign-extended to
    /// `i64` at the datapath width.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn lane_value(&self, node: NodeId, lane: u32) -> i64 {
        self.lane_value_in_word(0, node, lane)
    }

    /// [`KernelSim::lane_value`] for an arbitrary pattern word.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or `word` is out of range.
    pub fn lane_value_in_word(&self, word: usize, node: NodeId, lane: u32) -> i64 {
        assert!(lane < 64, "lane out of range");
        assert!(word < self.words, "word {word} out of range");
        let w = self.tape.width;
        let mut bits: u64 = 0;
        for b in 0..w {
            let slot = self.tape.slot_of[node.index() * w + b] as usize;
            bits |= ((self.buf[slot * self.words + word] >> lane) & 1) << b;
        }
        let shift = 64 - w;
        ((bits << shift) as i64) >> shift
    }

    /// Mask of lanes (word 0) whose output words differ from
    /// `reference_lane`'s this cycle — identical to
    /// [`rtl::sim::BitSlicedSim::output_diff_lanes`].
    pub fn output_diff_lanes(&self, reference_lane: u32) -> u64 {
        self.output_diff_lanes_in_word(0, reference_lane)
    }

    /// [`KernelSim::output_diff_lanes`] for an arbitrary pattern word.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn output_diff_lanes_in_word(&self, word: usize, reference_lane: u32) -> u64 {
        assert!(word < self.words, "word {word} out of range");
        let w = self.tape.width;
        let mut diff: u64 = 0;
        for &base in &self.tape.outputs {
            for b in 0..w {
                let plane = self.buf[(base as usize + b) * self.words + word];
                let good = (plane >> reference_lane) & 1;
                let broadcast = good.wrapping_neg();
                diff |= plane ^ broadcast;
            }
        }
        diff & !(1u64 << reference_lane)
    }

    /// Folds the current cycle's output planes (word 0) into a
    /// signature bank, one [`MisrBank::absorb_planes`] per output node
    /// in [`Netlist::output_ids`] order — identical to
    /// [`rtl::sim::BitSlicedSim::fold_outputs`].
    pub fn fold_outputs(&self, bank: &mut MisrBank) {
        self.fold_outputs_in_word(0, bank);
    }

    /// [`KernelSim::fold_outputs`] for an arbitrary pattern word: each
    /// word carries its own shard of faults, so each folds into its
    /// own bank.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn fold_outputs_in_word(&self, word: usize, bank: &mut MisrBank) {
        assert!(word < self.words, "word {word} out of range");
        let w = self.tape.width;
        let mut planes = [0u64; 64];
        for &base in &self.tape.outputs {
            for (b, plane) in planes.iter_mut().enumerate().take(w) {
                *plane = self.buf[(base as usize + b) * self.words + word];
            }
            bank.absorb_planes(&planes[..w]);
        }
    }

    /// Snapshot of one lane's register state (word 0; one `width`-bit
    /// word per register, in [`Netlist::register_indices`] order).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn register_state_lane(&self, lane: u32) -> Vec<u64> {
        self.register_state_lane_in_word(0, lane)
    }

    /// [`KernelSim::register_state_lane`] for an arbitrary pattern
    /// word.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or `word` is out of range.
    pub fn register_state_lane_in_word(&self, word: usize, lane: u32) -> Vec<u64> {
        assert!(lane < 64, "lane out of range");
        assert!(word < self.words, "word {word} out of range");
        let w = self.tape.width;
        (0..self.tape.reg_bases.len())
            .map(|r| {
                let mut bits: u64 = 0;
                for b in 0..w {
                    bits |= ((self.reg_state[(r * w + b) * self.words + word] >> lane) & 1) << b;
                }
                bits
            })
            .collect()
    }

    /// Writes a register-state snapshot into one lane of one pattern
    /// word — the inverse of [`KernelSim::register_state_lane_in_word`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the register count,
    /// `lane >= 64`, or `word` is out of range.
    pub fn set_register_state_lane_in_word(&mut self, word: usize, lane: u32, snapshot: &[u64]) {
        assert!(lane < 64, "lane out of range");
        assert!(word < self.words, "word {word} out of range");
        assert_eq!(
            snapshot.len(),
            self.tape.reg_bases.len(),
            "snapshot does not match register count"
        );
        let w = self.tape.width;
        for (r, &bits) in snapshot.iter().enumerate() {
            for b in 0..w {
                let mask = 1u64 << lane;
                let idx = (r * w + b) * self.words + word;
                if (bits >> b) & 1 == 1 {
                    self.reg_state[idx] |= mask;
                } else {
                    self.reg_state[idx] &= !mask;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::sim::BitSlicedSim;
    use rtl::NetlistBuilder;

    /// A netlist exercising every compiled construct: shifts, chained
    /// registers, add, sub, not, set-lsb, constants and a carry-save
    /// stage.
    fn kitchen_sink(width: u32) -> Netlist {
        let mut b = NetlistBuilder::new(width).unwrap();
        let x = b.input("x");
        let d1 = b.register(x);
        let d2 = b.register(d1); // chained registers: latch-order hazard
        let t0 = b.shift_right(x, 1);
        let t1 = b.shift_right(d1, 2);
        let k = b.constant(3);
        let a1 = b.add_labeled(t0, t1, "a1");
        let nk = b.not_word(k);
        let sl = b.set_lsb(nk);
        let s1 = b.sub_labeled(a1, sl, "s1");
        let (cs, cc) = b.csa(s1, d2, t1, "cs");
        let a2 = b.add_labeled(cs, cc, "a2");
        b.output(a2, "y");
        b.finish().unwrap()
    }

    fn pseudo_inputs(width: u32, n: usize) -> Vec<i64> {
        let hi = (1i64 << (width - 1)) - 1;
        let mut x = 0x1234_5678u64;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 16) as i64 % (2 * hi + 1)) - hi
            })
            .collect()
    }

    fn assert_machines_agree(netlist: &Netlist, walker: &BitSlicedSim<'_>, kernel: &KernelSim<'_>) {
        for lane in [0u32, 1, 17, 63] {
            assert_eq!(walker.output_diff_lanes(lane), kernel.output_diff_lanes(lane));
            assert_eq!(walker.register_state_lane(lane), kernel.register_state_lane(lane));
            for id in netlist.node_ids() {
                assert_eq!(
                    walker.lane_value(id, lane),
                    kernel.lane_value(id, lane),
                    "node {id} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn clean_machine_matches_the_walker_everywhere() {
        let n = kitchen_sink(10);
        let tape = Tape::compile(&n);
        let mut walker = BitSlicedSim::new(&n);
        let mut kernel = KernelSim::new(&tape);
        for raw in pseudo_inputs(10, 200) {
            walker.step(raw);
            kernel.step(raw);
            assert_machines_agree(&n, &walker, &kernel);
        }
    }

    #[test]
    fn every_universe_fault_matches_the_walker() {
        // The in-crate differential: inject every collapsed fault
        // site (sharded 63 at a time, like the parallel simulator)
        // into both engines and hold all planes equal every cycle.
        let n = kitchen_sink(8);
        let ranges = RangeAnalysis::analyze(&n, aligned_input_range(8, 8));
        let universe = FaultUniverse::enumerate(&n, &ranges);
        assert!(universe.len() > 63, "want more than one shard");
        let tape = Tape::compile(&n);
        let sites: Vec<_> = universe.ids().collect();
        for group in sites.chunks(63) {
            let mut walker = BitSlicedSim::new(&n);
            let mut kernel = KernelSim::new(&tape);
            let mut per_node: HashMap<NodeId, Vec<CellFault>> = HashMap::new();
            for (slot, &fid) in group.iter().enumerate() {
                let site = universe.site(fid);
                per_node.entry(site.node).or_default().push(CellFault {
                    cell: site.cell,
                    fault: site.representative,
                    lanes: 1u64 << (slot + 1),
                });
            }
            for (node, faults) in per_node {
                walker.set_faults(node, faults.clone());
                kernel.set_faults(node, faults);
            }
            for raw in pseudo_inputs(8, 96) {
                walker.step(raw);
                kernel.step(raw);
                assert_machines_agree(&n, &walker, &kernel);
            }
        }
    }

    #[test]
    fn signature_folding_matches_the_walker() {
        let n = kitchen_sink(9);
        let tape = Tape::compile(&n);
        let mut walker = BitSlicedSim::new(&n);
        let mut kernel = KernelSim::new(&tape);
        let mut wb = MisrBank::with_polynomial(16, 0x1100B).unwrap();
        let mut kb = MisrBank::with_polynomial(16, 0x1100B).unwrap();
        for raw in pseudo_inputs(9, 150) {
            walker.step(raw);
            kernel.step(raw);
            walker.fold_outputs(&mut wb);
            kernel.fold_outputs(&mut kb);
        }
        for lane in 0..64 {
            assert_eq!(wb.lane_signature(lane), kb.lane_signature(lane));
        }
    }

    #[test]
    fn state_snapshots_round_trip_and_faults_clear() {
        let n = kitchen_sink(8);
        let tape = Tape::compile(&n);
        let mut kernel = KernelSim::new(&tape);
        for raw in pseudo_inputs(8, 10) {
            kernel.step(raw);
        }
        let snap = kernel.register_state_lane(0);
        kernel.set_register_state_lane_in_word(0, 5, &snap);
        assert_eq!(kernel.register_state_lane(5), snap);
        kernel.reset();
        assert!(kernel.register_state_lane(0).iter().all(|&b| b == 0));

        // Fault set/replace/clear mirrors the walker's contract.
        let node = n.arithmetic_ids()[0];
        let f = CellFault {
            cell: 0,
            fault: FaFault { line: rtl::fulladder::Line::Sum, stuck_one: true },
            lanes: 2,
        };
        kernel.set_faults(node, vec![f]);
        assert_eq!(kernel.patches.len(), 1);
        kernel.set_faults(node, vec![]);
        assert!(kernel.patches.is_empty());
        kernel.set_faults(node, vec![f]);
        kernel.clear_all_faults();
        assert!(kernel.patches.is_empty());
    }

    #[test]
    #[should_panic(expected = "faults can only be injected into adders/subtractors")]
    fn set_faults_rejects_non_arithmetic_nodes() {
        let n = kitchen_sink(8);
        let tape = Tape::compile(&n);
        let mut kernel = KernelSim::new(&tape);
        let input = n.input_ids()[0];
        kernel.set_faults(input, vec![]);
    }

    #[test]
    fn multi_word_lanes_match_independent_single_word_runs() {
        let n = kitchen_sink(8);
        let tape = Tape::compile(&n);
        let a = pseudo_inputs(8, 80);
        let b: Vec<i64> = pseudo_inputs(8, 80).iter().map(|&v| -v).collect();
        let node = n.arithmetic_ids()[1];
        let f = CellFault {
            cell: 1,
            fault: FaFault { line: rtl::fulladder::Line::Cout, stuck_one: false },
            lanes: 1u64 << 7,
        };

        let mut wide = KernelSim::with_words(&tape, 2);
        let mut lone_a = KernelSim::new(&tape);
        let mut lone_b = KernelSim::new(&tape);
        wide.set_faults(node, vec![f]);
        lone_a.set_faults(node, vec![f]);
        lone_b.set_faults(node, vec![f]);
        for (&ra, &rb) in a.iter().zip(&b) {
            wide.step_words(&[ra, rb]);
            lone_a.step(ra);
            lone_b.step(rb);
            // The bare lane APIs address word 0...
            assert_eq!(wide.output_diff_lanes(0), lone_a.output_diff_lanes(0));
            assert_eq!(wide.register_state_lane(7), lone_a.register_state_lane(7));
            // ...and the `_in_word` forms address word 1, which
            // carried its own independent patterns.
            assert_eq!(wide.output_diff_lanes_in_word(1, 0), lone_b.output_diff_lanes(0));
            assert_eq!(wide.register_state_lane_in_word(1, 7), lone_b.register_state_lane(7));
        }
        // Final planes of word 1 equal the second single-word
        // machine's, slot for slot (slot-major: word 1 is the odd
        // stride).
        let slots = tape.slot_count();
        let word1: Vec<u64> = (0..slots).map(|s| wide.buf[s * 2 + 1]).collect();
        let word0: Vec<u64> = (0..slots).map(|s| wide.buf[s * 2]).collect();
        assert_eq!(word1, lone_b.buf);
        assert_ne!(word0, word1);
    }

    #[test]
    fn per_word_faults_are_isolated_to_their_word() {
        // Two words, two different fault shards: each word must match
        // a single-word machine carrying only its own shard — the
        // property the parallel simulator's shard batching rests on.
        let n = kitchen_sink(8);
        let tape = Tape::compile(&n);
        let inputs = pseudo_inputs(8, 120);
        let node_a = n.arithmetic_ids()[0];
        let node_b = n.arithmetic_ids()[2];
        let fa = CellFault {
            cell: 0,
            fault: FaFault { line: rtl::fulladder::Line::Sum, stuck_one: true },
            lanes: 1u64 << 3,
        };
        let fb = CellFault {
            cell: 2,
            fault: FaFault { line: rtl::fulladder::Line::AStem, stuck_one: false },
            lanes: 1u64 << 9,
        };

        let mut wide = KernelSim::with_words(&tape, 2);
        wide.set_faults_in_word(0, node_a, vec![fa]);
        wide.set_faults_in_word(1, node_b, vec![fb]);
        let mut lone_a = KernelSim::new(&tape);
        lone_a.set_faults(node_a, vec![fa]);
        let mut lone_b = KernelSim::new(&tape);
        lone_b.set_faults(node_b, vec![fb]);
        let mut bank_w0 = MisrBank::with_polynomial(16, 0x1100B).unwrap();
        let mut bank_w1 = MisrBank::with_polynomial(16, 0x1100B).unwrap();
        let mut bank_a = MisrBank::with_polynomial(16, 0x1100B).unwrap();
        let mut bank_b = MisrBank::with_polynomial(16, 0x1100B).unwrap();
        for &raw in &inputs {
            wide.step(raw);
            lone_a.step(raw);
            lone_b.step(raw);
            wide.fold_outputs_in_word(0, &mut bank_w0);
            wide.fold_outputs_in_word(1, &mut bank_w1);
            lone_a.fold_outputs(&mut bank_a);
            lone_b.fold_outputs(&mut bank_b);
            assert_eq!(wide.output_diff_lanes_in_word(0, 0), lone_a.output_diff_lanes(0));
            assert_eq!(wide.output_diff_lanes_in_word(1, 0), lone_b.output_diff_lanes(0));
        }
        for lane in 0..64 {
            assert_eq!(bank_w0.lane_signature(lane), bank_a.lane_signature(lane));
            assert_eq!(bank_w1.lane_signature(lane), bank_b.lane_signature(lane));
        }
    }

    #[test]
    fn tape_shape_is_consistent() {
        let n = kitchen_sink(8);
        let tape = Tape::compile(&n);
        assert!(tape.op_count() > 0);
        assert!(tape.segment_count() <= tape.op_count());
        assert!(tape.cell_op_count() < tape.op_count(), "copy/not ops exist here");
        // SSA: no physical slot is written by two ops, and the
        // constant slots are never written.
        let mut written = std::collections::HashSet::new();
        for i in 0..tape.op_count() {
            for d in [tape.dst[i], tape.dst2[i]] {
                if d != NO_SLOT {
                    assert!(d >= 2, "op {i} writes a constant slot");
                    assert!(written.insert(d), "op {i} rewrites slot {d}");
                }
            }
        }
        // Straight-line order: every op reads slots produced earlier,
        // or input/register/constant slots.
        let mut ready: std::collections::HashSet<u32> = [0u32, 1].into_iter().collect();
        for &(_, base) in &tape.inputs {
            ready.extend(base..base + tape.width() as u32);
        }
        for &base in &tape.reg_bases {
            ready.extend(base..base + tape.width() as u32);
        }
        for i in 0..tape.op_count() {
            for s in [tape.a[i], tape.b[i], tape.c[i]] {
                if s != NO_SLOT {
                    assert!(ready.contains(&s), "op {i} reads unproduced slot {s}");
                }
            }
            ready.insert(tape.dst[i]);
            if tape.dst2[i] != NO_SLOT {
                ready.insert(tape.dst2[i]);
            }
        }
        // The dump is stable and self-consistent.
        let dump = tape.dump();
        assert_eq!(dump, tape.dump());
        assert!(dump.starts_with("tape width=8"));
        assert!(dump.matches("\n  ").count() >= tape.op_count());
    }
}
