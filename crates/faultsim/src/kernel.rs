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
//! * **fault injection as tape patches** (`fold_patches`, shared with
//!   the cycle-lane machine): each patched `(op, word)` folds its fault
//!   list once into per-line `(keep, force)` masks
//!   ([`rtl::fulladder::LineMasks`]); a patched op runs on the fast path
//!   for every word, then only its faulted words are recomputed through
//!   the masked gate model, while every other op of the tape —
//!   including the rest of the faulted adder — stays on the
//!   branch-free fast path,
//! * **multi-word lanes**: 1, 2, 4, 8 or 16 independent 64-pattern
//!   words per pass share one instruction stream, the widths the word
//!   loops are specialised for (a group of any other size is padded),
//! * **cone restriction**: a fault group's machine runs only the ops,
//!   latches and boundary slots of the group's fanout cone, reading
//!   everything else from a fault-free trace recorded once per run (see
//!   the `cone` module), and
//! * **one compiled program per machine** (the `program` module): the
//!   cone renumbered over a dense local buffer with double-buffered
//!   registers, so a step copies no latch whose source it recomputes.
//!
//! # Slot-numbering contract
//!
//! On the tape, slot `0` is constant all-zeros and slot `1` constant
//! all-ones; neither is ever a destination. Every other physical slot
//! is written by exactly one producer per cycle (input broadcast, one
//! tape op, or the register latch) — the tape is in SSA form — and
//! every op reads only slots produced earlier in the tape, register
//! slots, constants or the input block.
//!
//! A machine does not run the tape's numbering. It runs a program
//! compiled from its cone, over local slots `0..n`: the two constants,
//! then the input block, the boundary slots and the slots the cone's
//! ops read and write, numbered in op order. The program has two op
//! streams, one per cycle parity, and step `t` runs stream `t % 2`
//! (`t` the absolute cycle, whatever stage the machine starts in). A
//! slot the program writes every cycle (op destination, input bit or
//! boundary fill) that some latched register reads as its source has
//! two homes: stream `q` writes it, and reads it combinationally, in
//! home `q`, and reads the register from home `1 - q`, where the
//! previous step left the source's value. The register needs no slot
//! and no copy of its own, and chained reads see pre-latch values
//! exactly like hardware (and like the walker). A latch whose source
//! the program does not rewrite every cycle (a constant bit, or another
//! register) gets two homes of its own, and an explicit copy at the end
//! of each step fills the one the next step reads. Those copies read
//! only homes no copy writes, so their order does not matter.
//!
//! Between steps, the register state entering the next step sits in
//! the homes that step will read; loads and snapshots address them at
//! the machine's current parity. Registers that share a source plane
//! (sign extension, or two registers on one node) share its state,
//! which every real machine state satisfies.
//!
//! # Bit-identity with the walker
//!
//! Each compiled construct mirrors one arm of the walker's evaluator:
//! fused `Full`/`FullN` ops are its ripple-carry fast path, `SumOnly`
//! its trimmed MSB cell, aliases its wiring copies, and patches its
//! faulted slow path (the [`rtl::fulladder::eval_word`] lane masks,
//! folded per line, and the same per-cell carry chaining). Outside a
//! machine's cone every lane carries the fault-free value, which is
//! what the good trace supplies. A group machine therefore produces the
//! same output planes, register snapshots, detection masks and MISR
//! foldings bit-for-bit — the differential tests in this crate and
//! `tests/kernel_parity.rs` hold the two equal on every built-in
//! design.
//!
//! Determinism: compilation and execution are pure functions of the
//! netlist, the input words and the injected faults — no hashing
//! iteration order, clocks or thread scheduling can reach the result.

use crate::cone::{Cone, StageTrace};
use crate::program::Program;
use rtl::fulladder::{FaFault, LineMasks};
use rtl::misr::MisrBank;
use rtl::sim::CellFault;
use rtl::{Netlist, NodeId, NodeKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Sentinel for "no slot" (an op without a carry destination).
pub(crate) const NO_SLOT: u32 = u32::MAX;

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
    pub(crate) fn negates_b(self) -> bool {
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

/// The source and destination slots of a straight-line op list, one
/// parallel array per field, indexed by op: sources `a`/`b`/`c`, sum
/// destination, carry destination (`NO_SLOT` where an op has no such
/// operand).
#[derive(Debug)]
pub(crate) struct Operands {
    pub(crate) a: Vec<u32>,
    pub(crate) b: Vec<u32>,
    pub(crate) c: Vec<u32>,
    pub(crate) dst: Vec<u32>,
    pub(crate) dst2: Vec<u32>,
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
/// machines against it — the tape is immutable and freely shared
/// across threads.
#[derive(Debug)]
pub struct Tape {
    pub(crate) width: usize,
    pub(crate) slots: usize,
    /// Kind of each op, and the ops' source and destination slots.
    pub(crate) kind: Vec<OpKind>,
    pub(crate) ops: Operands,
    /// Maximal uniform-kind runs `(kind, start, end)` covering the
    /// tape in order; the hot loop executes these without per-op
    /// dispatch.
    pub(crate) segments: Vec<(OpKind, u32, u32)>,
    /// `(node index, base slot)` of each input's `width`-slot block.
    pub(crate) inputs: Vec<(u32, u32)>,
    /// Base slot of each output's contiguous `width`-slot block, in
    /// [`Netlist::output_ids`] order.
    pub(crate) outputs: Vec<u32>,
    /// Base slot of each register's state block, in
    /// [`Netlist::register_indices`] order.
    pub(crate) reg_bases: Vec<u32>,
    /// `(register slot, source slot)` latch pairs, register-major in
    /// [`Netlist::register_indices`] order, bit-minor.
    pub(crate) latches: Vec<(u32, u32)>,
    /// The op range `(start, end)` of every node, indexed by node (a
    /// node's ops are contiguous; wiring, registers, inputs and
    /// constants have empty ranges).
    pub(crate) node_ops: Vec<(u32, u32)>,
    /// Per-arithmetic-node cell-to-op addressing for fault patches.
    arith: HashMap<u32, ArithOps>,
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
        let mut node_ops = vec![(0u32, 0u32); n];

        let slot = |slot_of: &[u32], id: NodeId, bit: usize| slot_of[id.index() * w + bit];

        for &order_idx in netlist.eval_order() {
            let i = order_idx as usize;
            let first_op = kind.len() as u32;
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
                    // too (see `fold_patches`).
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
            node_ops[i] = (first_op, kind.len() as u32);
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

        let segments = uniform_runs(&kind);

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
            ops: Operands { a, b, c, dst, dst2 },
            segments,
            inputs,
            outputs,
            reg_bases,
            latches,
            node_ops,
            arith,
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

    /// The tape ops a fault on `cell` of arithmetic node `node` patches:
    /// the cell's own op, plus, for a carry-save sum node, the paired
    /// carry node's op, because the cell's gates also drive that node's
    /// bit `cell + 1` (the top cell's carry is discarded, hence no op).
    /// Cells above the trimmed MSB have no hardware and patch nothing;
    /// the walker's per-bit fault scan never reaches them either.
    ///
    /// # Panics
    ///
    /// Panics if `node` (a node index) is not an arithmetic node.
    pub(crate) fn cell_ops(&self, node: u32, cell: u32) -> impl Iterator<Item = u32> {
        let info =
            *self.arith.get(&node).expect("faults can only be injected into adders/subtractors");
        let own = (cell <= info.top).then_some(info.base_op + cell);
        let carry = info.carry_base.filter(|_| cell < info.top).map(|base| base + cell);
        own.into_iter().chain(carry)
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
        let ops = &self.ops;
        for i in 0..self.kind.len() {
            let _ = write!(out, "  {i:4} {:5} a=s{}", self.kind[i].mnemonic(), ops.a[i]);
            if ops.b[i] != NO_SLOT {
                let _ = write!(out, " b=s{}", ops.b[i]);
            }
            if ops.c[i] != NO_SLOT {
                let _ = write!(out, " c=s{}", ops.c[i]);
            }
            let _ = write!(out, " -> s{}", ops.dst[i]);
            if ops.dst2[i] != NO_SLOT {
                let _ = write!(out, " co=s{}", ops.dst2[i]);
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

/// The faulted words of one patched op: `(word, folded line masks)`
/// entries sorted by word index.
pub(crate) type WordPatches = Vec<(u32, LineMasks)>;

/// Folds faults into per-op patches, the form both machines run: each
/// `(word, node, fault)` patches every tape op its cell drives
/// ([`Tape::cell_ops`]), mapped to the machine's own op by `local_op`,
/// and each patched `(op, word)` folds its fault list once into line
/// masks. The patches come back sorted by machine op, each op's words
/// ascending.
///
/// # Panics
///
/// Panics if a node is not an arithmetic node, a cell index is outside
/// the datapath width, or `local_op` panics (an op outside the
/// machine's cone).
pub(crate) fn fold_patches(
    tape: &Tape,
    faults: impl IntoIterator<Item = (u32, u32, CellFault)>,
    local_op: impl Fn(u32) -> u32,
) -> Vec<(u32, WordPatches)> {
    let mut per_op: BTreeMap<u32, BTreeMap<u32, Vec<(FaFault, u64)>>> = BTreeMap::new();
    for (word, node, f) in faults {
        assert!((f.cell as usize) < tape.width, "cell {} outside datapath", f.cell);
        for op in tape.cell_ops(node, f.cell) {
            let list = per_op.entry(local_op(op)).or_default().entry(word).or_default();
            list.push((f.fault, f.lanes));
        }
    }
    per_op
        .into_iter()
        .map(|(op, words)| {
            (op, words.into_iter().map(|(w, list)| (w, LineMasks::from_faults(&list))).collect())
        })
        .collect()
}

/// A fault group's machine: 64-lane pattern words, each lane one
/// faulty machine (lane 0 the good one), over the compiled program of
/// the group's fanout cone, fed by the good trace. Each word carries
/// its own shard of faults; the parallel simulator batches up to 16
/// shards into one machine, and words past the last shard pad the
/// width to [`machine_width`]. See the module docs for the slot
/// contract and the argument that it is bit-identical to the walker.
#[derive(Debug)]
pub(crate) struct KernelSim<'t> {
    tape: &'t Tape,
    /// Words per pass, a power of two.
    words: usize,
    /// The compiled ops, latches and boundary fills of the machine's
    /// cone.
    program: Program,
    /// Bit-plane buffer over the program's local slots, slot-major:
    /// slot `s` of word `k` lives at `s * words + k`, so one op's
    /// `words` operand planes are contiguous. The hot loop runs
    /// op-outer/word-inner: the `words` lanes of a ripple-carry cell are
    /// independent, so the serialized carry chain of one word overlaps
    /// with its neighbours' and the inner loop vectorizes.
    buf: Vec<u64>,
    /// Parity of the next step: it runs the program's op stream
    /// `phase`, and the register state entering it sits at that
    /// stream's register homes.
    phase: usize,
    /// Per-op patch list, sorted by program op; each entry carries the
    /// faulted words (sorted) with their folded line masks.
    patches: Vec<(u32, WordPatches)>,
}

impl<'t> KernelSim<'t> {
    /// A machine for `words` shards that runs only `cone`'s ops and
    /// latches (its boundary ranks assigned), compiled into its own
    /// [`Program`], with all registers zero and no faults. It is
    /// [`machine_width`]`(words)` words wide. Its first step is cycle
    /// `first_cycle`, whose parity picks the first op stream.
    ///
    /// # Panics
    ///
    /// Panics if `words` is above 16.
    pub(crate) fn with_cone(tape: &'t Tape, words: usize, cone: &Cone, first_cycle: u32) -> Self {
        let words = machine_width(words);
        let program = Program::compile(tape, cone);
        let mut buf = vec![0u64; program.slot_count() * words];
        buf[words..2 * words].fill(!0u64); // slot 1: constant all-ones
        KernelSim {
            tape,
            words,
            program,
            buf,
            phase: first_cycle as usize % 2,
            patches: Vec::new(),
        }
    }

    /// Ops executed per step: the cone's op count.
    pub(crate) fn ops_per_step(&self) -> usize {
        self.program.op_count()
    }

    /// Patched ops replayed per step.
    pub(crate) fn patched_ops_per_step(&self) -> usize {
        self.patches.len()
    }

    /// Explicit latch-plane copies per step: the latches whose source
    /// the program does not rewrite every cycle.
    pub(crate) fn latch_copies_per_step(&self) -> usize {
        self.program.copies[0].len()
    }

    /// The bit-plane buffer's size in `u64`s.
    pub(crate) fn buffer_words(&self) -> usize {
        self.buf.len()
    }

    /// Whether the machine latches register `r` (in
    /// [`Netlist::register_indices`] order); registers outside the cone
    /// keep their stage-entry state.
    #[cfg(test)]
    fn latches_register(&self, r: usize) -> bool {
        self.program.state[0][r * self.tape.width] != NO_SLOT
    }

    /// Injects the machine's faults, given as `(word, node index,
    /// fault)` entries: each fault acts in its lanes of its word only,
    /// on a cell of an adder, subtractor or carry-save node. Faults on
    /// trimmed sign cells above a node's MSB are inert, exactly as in
    /// the walker. Replaces any faults injected before.
    ///
    /// # Panics
    ///
    /// Panics if a node is not an arithmetic node, a cell index is
    /// outside the datapath width, or a word is out of range.
    pub(crate) fn set_faults(&mut self, faults: impl IntoIterator<Item = (u32, u32, CellFault)>) {
        let words = self.words;
        let faults = faults.into_iter().inspect(|&(word, _, _)| {
            assert!((word as usize) < words, "word {word} out of range");
        });
        let program = &self.program;
        self.patches = fold_patches(self.tape, faults, |op| program.local_op(op));
    }

    /// Advances one clock cycle: the input word and the cone's boundary
    /// slots (their fault-free `cycle` values from the stage's trace)
    /// are broadcast to every lane of every word.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have exactly one input.
    pub(crate) fn step_traced(&mut self, input_raw: i64, trace: &StageTrace, cycle: u32) {
        debug_assert_eq!(cycle as usize % 2, self.phase, "steps follow the cycle parity");
        assert_eq!(self.tape.inputs.len(), 1, "netlist does not have exactly one input");
        let w = self.words;
        let bits = input_raw as u64;
        for (b, &slot) in self.program.input[self.phase].iter().enumerate() {
            let v = ((bits >> b) & 1).wrapping_neg();
            self.buf[slot as usize * w..][..w].fill(v);
        }
        let (row, lane) = trace.block_row(cycle);
        for &(slot, rank) in &self.program.boundary[self.phase] {
            let v = ((row[rank as usize] >> lane) & 1).wrapping_neg();
            self.buf[slot as usize * w..][..w].fill(v);
        }
        let (program, buf) = (&self.program, &mut self.buf[..]);
        let ops = &program.streams[self.phase];
        let end = program.op_count() as u32;
        PatchWalk::new(&self.patches).run_to(&program.segments, &program.kind, ops, buf, w, end);
        for &(dst, src) in &program.copies[self.phase] {
            let src = src as usize * w;
            buf.copy_within(src..src + w, dst as usize * w);
        }
        self.phase ^= 1;
    }

    /// Register-state plane `latch` of pattern word `word`: the state
    /// entering the next step (zero for a register outside the cone).
    fn state_plane(&self, latch: usize, word: usize) -> u64 {
        match self.program.state[self.phase][latch] {
            NO_SLOT => 0,
            slot => self.buf[slot as usize * self.words + word],
        }
    }

    /// Mask of the lanes of one pattern word whose output words differ
    /// from `reference_lane`'s in the last step — the walker's
    /// [`rtl::sim::BitSlicedSim::output_diff_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub(crate) fn output_diff_lanes_in_word(&self, word: usize, reference_lane: u32) -> u64 {
        assert!(word < self.words, "word {word} out of range");
        let mut diff: u64 = 0;
        for &slot in &self.program.outputs[self.phase ^ 1] {
            let plane = self.buf[slot as usize * self.words + word];
            let good = (plane >> reference_lane) & 1;
            diff |= plane ^ good.wrapping_neg();
        }
        diff & !(1u64 << reference_lane)
    }

    /// Folds the last step's output planes of one pattern word into a
    /// signature bank, one [`MisrBank::absorb_planes`] per output node in
    /// [`Netlist::output_ids`] order — the walker's
    /// [`rtl::sim::BitSlicedSim::fold_outputs`]. Each word carries its
    /// own shard of faults, so each folds into its own bank.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub(crate) fn fold_outputs_in_word(&self, word: usize, bank: &mut MisrBank) {
        assert!(word < self.words, "word {word} out of range");
        let mut planes = [0u64; 64];
        for output in self.program.outputs[self.phase ^ 1].chunks(self.tape.width) {
            for (plane, &slot) in planes.iter_mut().zip(output) {
                *plane = self.buf[slot as usize * self.words + word];
            }
            bank.absorb_planes(&planes[..output.len()]);
        }
    }

    /// Loads one word's register state in bulk: every lane takes the
    /// `baseline` snapshot, then each `(lane, snapshot)` overrides its
    /// own lane. Only the registers the machine latches are loaded (the
    /// others are never read back as machine state). Touching just the
    /// bits where a snapshot differs from the baseline keeps this cheap
    /// for the many lanes whose state has not diverged. Latches that
    /// share a source share their state plane, so bits are assigned
    /// rather than flipped: writing the same bit twice is harmless.
    pub(crate) fn load_word_state<'s>(
        &mut self,
        word: usize,
        baseline: &[u64],
        lanes: impl IntoIterator<Item = (u32, &'s [u64])>,
    ) {
        let (w, words) = (self.tape.width, self.words);
        let state = &self.program.state[self.phase];
        for (latch, &slot) in state.iter().enumerate().filter(|&(_, &s)| s != NO_SLOT) {
            let (r, b) = (latch / w, latch % w);
            self.buf[slot as usize * words + word] = ((baseline[r] >> b) & 1).wrapping_neg();
        }
        for (lane, snapshot) in lanes {
            for (r, (&bits, &good)) in snapshot.iter().zip(baseline).enumerate() {
                let mut diff = bits ^ good;
                while diff != 0 {
                    let b = diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    let slot = state[r * w + b];
                    if slot != NO_SLOT {
                        let plane = &mut self.buf[slot as usize * words + word];
                        let one = (bits >> b) & 1;
                        *plane = (*plane & !(1u64 << lane)) | (one << lane);
                    }
                }
            }
        }
    }

    /// Register snapshots of the lanes in `lanes` (a mask, ascending
    /// lane order) of one word: `baseline` — the state the registers
    /// the machine does not latch hold — with the latched registers
    /// read from the machine, bit flips only where a lane differs.
    pub(crate) fn word_snapshots(
        &self,
        word: usize,
        lanes: u64,
        baseline: &[u64],
    ) -> Vec<Box<[u64]>> {
        let w = self.tape.width;
        let mut slot_of_lane = [0u8; 64];
        let mut snapshots: Vec<Box<[u64]>> = Vec::with_capacity(lanes.count_ones() as usize);
        let mut m = lanes;
        while m != 0 {
            slot_of_lane[m.trailing_zeros() as usize] = snapshots.len() as u8;
            snapshots.push(baseline.into());
            m &= m - 1;
        }
        let latched = |r: usize| self.program.state[self.phase][r * w] != NO_SLOT;
        for r in (0..baseline.len()).filter(|&r| latched(r)) {
            for b in 0..w {
                let good = ((baseline[r] >> b) & 1).wrapping_neg();
                let mut diff = (self.state_plane(r * w + b, word) ^ good) & lanes;
                while diff != 0 {
                    let lane = diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    snapshots[slot_of_lane[lane] as usize][r] ^= 1u64 << b;
                }
            }
        }
        snapshots
    }
}

/// Words per pass of a machine for `words` shards or faults: the next
/// power of two, at least 1. The word loops are specialised for 1, 2,
/// 4, 8 and 16 words, so both machines pad to one of those widths; the
/// padding words carry no fault and nothing reads them.
///
/// # Panics
///
/// Panics if `words` is above 16.
pub(crate) fn machine_width(words: usize) -> usize {
    assert!(words <= 16, "a machine is at most 16 words wide, not {words}");
    words.next_power_of_two()
}

/// Groups a straight-line op list into maximal uniform-kind runs
/// `(kind, start, end)`, which the hot loop executes without per-op
/// dispatch.
pub(crate) fn uniform_runs(kind: &[OpKind]) -> Vec<(OpKind, u32, u32)> {
    let mut runs: Vec<(OpKind, u32, u32)> = Vec::new();
    for (op, &k) in kind.iter().enumerate() {
        match runs.last_mut() {
            Some((rk, _, end)) if *rk == k => *end = op as u32 + 1,
            _ => runs.push((k, op as u32, op as u32 + 1)),
        }
    }
    runs
}

/// A walk through one step of a machine's op stream that stops at its
/// patched ops: clean runs stay on the segment fast path, and each
/// patched cell runs on it too and then recomputes its faulted words
/// through the masked gate model, preserving the carry chain through
/// it.
pub(crate) struct PatchWalk<'p> {
    /// Patches not yet run, sorted by op.
    patches: &'p [(u32, WordPatches)],
    /// Segment the walk resumes in.
    seg: usize,
    /// First op not yet run.
    op: u32,
}

impl<'p> PatchWalk<'p> {
    /// A walk from op 0 over a stream with `patches` (sorted by op).
    pub(crate) fn new(patches: &'p [(u32, WordPatches)]) -> Self {
        PatchWalk { patches, seg: 0, op: 0 }
    }

    /// Runs the stream's ops up to `to` (exclusive) over `buf`, which
    /// holds `words` words per slot.
    pub(crate) fn run_to(
        &mut self,
        segments: &[(OpKind, u32, u32)],
        kind: &[OpKind],
        ops: &Operands,
        buf: &mut [u64],
        words: usize,
        to: u32,
    ) {
        while let Some(((op, patch), rest)) =
            self.patches.split_first().filter(|((op, _), _)| *op < to)
        {
            self.seg = run_range(segments, ops, buf, words, self.seg, self.op, *op);
            run_patched(kind[*op as usize], ops, buf, words, *op as usize, patch);
            self.op = op + 1;
            self.patches = rest;
        }
        self.seg = run_range(segments, ops, buf, words, self.seg, self.op, to);
        self.op = to;
    }
}

/// Executes the clean ops of `[from, to)` (program op indices),
/// resuming the segment walk at `seg_idx`; returns the segment index to
/// resume from next.
fn run_range(
    segments: &[(OpKind, u32, u32)],
    ops: &Operands,
    buf: &mut [u64],
    words: usize,
    mut seg_idx: usize,
    from: u32,
    to: u32,
) -> usize {
    while seg_idx < segments.len() {
        let (k, s, e) = segments[seg_idx];
        if s >= to {
            break;
        }
        let lo = s.max(from);
        let hi = e.min(to);
        if lo < hi {
            run_segment(ops, buf, words, k, lo as usize, hi as usize);
        }
        if e <= to {
            seg_idx += 1;
        } else {
            break;
        }
    }
    seg_idx
}

/// Executes ops `[start, end)` of `ops`, all of one `kind`, over `buf`,
/// which holds `words` consecutive words per slot.
fn run_segment(
    ops: &Operands,
    buf: &mut [u64],
    words: usize,
    kind: OpKind,
    start: usize,
    end: usize,
) {
    // Monomorphize the machine widths so the inner loops run over
    // fixed-size arrays: loading each operand plane into a local
    // `[u64; W]` breaks the may-alias chain between operand reads and
    // destination writes (everything lives in one `buf`), which is what
    // lets the compiler keep sources in registers and vectorize the
    // word-wise expressions.
    match words {
        1 => run_segment_w::<1>(ops, buf, kind, start, end),
        2 => run_segment_w::<2>(ops, buf, kind, start, end),
        4 => run_segment_w::<4>(ops, buf, kind, start, end),
        8 => run_segment_w::<8>(ops, buf, kind, start, end),
        16 => run_segment_w::<16>(ops, buf, kind, start, end),
        _ => unreachable!("a machine is 1, 2, 4, 8 or 16 words wide"),
    }
}

fn run_segment_w<const W: usize>(
    t: &Operands,
    buf: &mut [u64],
    kind: OpKind,
    start: usize,
    end: usize,
) {
    let load =
        |buf: &[u64], base: usize| -> [u64; W] { buf[base..base + W].try_into().expect("plane") };
    // Op-outer, word-inner: the inner loop's `W` lanes are independent
    // and contiguous, so the ripple-carry store→load chain of one word
    // pipelines against its neighbours'.
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

/// Executes one patched cell: every word on the fast path, then each
/// faulted word again through its folded line masks — the walker's
/// faulted slow path ([`rtl::fulladder::eval_word`]) with the
/// fault-list scan done at patch time, so the faulty planes agree
/// bit-for-bit. A `Carry` op takes the carry output; every other kind
/// takes the sum (plus, for full cells, the chained carry). For
/// carry-less sum cells (trimmed MSB, carry-save sum bits) the
/// discarded carry matches the walker's sum-only evaluation: the two
/// evaluators agree on the sum output for every fault.
fn run_patched(
    kind: OpKind,
    t: &Operands,
    buf: &mut [u64],
    w: usize,
    op: usize,
    patches: &WordPatches,
) {
    run_segment(t, buf, w, kind, op, op + 1);
    let negate = kind.negates_b();
    let carry_op = kind == OpKind::Carry;
    let (a, b, c) = (t.a[op] as usize * w, t.b[op] as usize * w, t.c[op] as usize * w);
    let (d, d2) = (t.dst[op] as usize * w, t.dst2[op]);
    for &(word, ref masks) in patches {
        let k = word as usize;
        let raw_b = buf[b + k];
        let bv = if negate { !raw_b } else { raw_b };
        let (sum, cout) = masks.eval(buf[a + k], bv, buf[c + k]);
        buf[d + k] = if carry_op { cout } else { sum };
        if d2 != NO_SLOT {
            buf[d2 as usize * w + k] = cout;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::{ConeIndex, GoodTrace};
    use crate::cycle::LaneProgram;
    use crate::fault::{FaultId, FaultUniverse};
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::sim::BitSlicedSim;
    use rtl::NetlistBuilder;
    use std::collections::BTreeSet;

    /// A netlist exercising every compiled construct: shifts, chained
    /// registers, add, sub, not, set-lsb, constants, a carry-save stage,
    /// a two-deep register chain inside the adders' fanout cones, and
    /// registers fed by a constant and by a set-lsb.
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
        let p = b.register(s1); // pipeline register below s1
        let a3 = b.add_labeled(a2, p, "a3");
        b.output(a3, "y");
        let kr = b.register(k); // fed by a constant
        let lr = b.register(sl); // bit 0 fed by the constant one
        let m = b.sub_labeled(kr, lr, "m");
        let p2 = b.register(p); // register-fed, inside s1's cone
        let m2 = b.add_labeled(m, p2, "m2");
        b.output(m2, "z");
        b.finish().unwrap()
    }

    fn pseudo_inputs(width: u32, n: usize) -> Vec<i64> {
        let mut rng = testkit::Rng::new(0x1234_5678);
        (0..n).map(|_| rng.signed(width)).collect()
    }

    fn universe(n: &Netlist) -> FaultUniverse {
        let width = n.width();
        FaultUniverse::enumerate(n, &RangeAnalysis::analyze(n, aligned_input_range(width, width)))
    }

    /// `faults`' sites batched per node, the `i`-th on lane `i + 1`.
    fn per_node(universe: &FaultUniverse, faults: &[FaultId]) -> BTreeMap<NodeId, Vec<CellFault>> {
        let mut per_node: BTreeMap<NodeId, Vec<CellFault>> = BTreeMap::new();
        for (slot, &fid) in faults.iter().enumerate() {
            let site = universe.site(fid);
            let fault = CellFault { cell: site.cell, fault: site.representative, lanes: 2 << slot };
            per_node.entry(site.node).or_default().push(fault);
        }
        per_node
    }

    /// The walker with `faults` injected.
    fn walker_with<'n>(
        n: &'n Netlist,
        faults: &BTreeMap<NodeId, Vec<CellFault>>,
    ) -> BitSlicedSim<'n> {
        let mut walker = BitSlicedSim::new(n);
        for (&node, list) in faults {
            walker.set_faults(node, list.clone());
        }
        walker
    }

    /// The same faults on pattern word `word` of a machine.
    fn in_word(
        word: u32,
        faults: &BTreeMap<NodeId, Vec<CellFault>>,
    ) -> impl Iterator<Item = (u32, u32, CellFault)> + '_ {
        faults
            .iter()
            .flat_map(move |(node, list)| list.iter().map(move |&f| (word, node.index() as u32, f)))
    }

    /// A good trace of `inputs` that keeps the register state entering
    /// every cycle.
    fn every_cycle<'i>(
        index: &'i ConeIndex<'i>,
        program: &'i LaneProgram,
        inputs: &'i [i64],
    ) -> GoodTrace<'i> {
        GoodTrace::new(index, program, inputs, &(0..=inputs.len() as u32).collect::<Vec<_>>())
    }

    impl KernelSim<'_> {
        /// Every output plane of `word` as the last step left it.
        fn output_planes(&self, word: usize) -> Vec<u64> {
            let last = &self.program.outputs[self.phase ^ 1];
            last.iter().map(|&slot| self.buf[slot as usize * self.words + word]).collect()
        }
    }

    /// The walker's output planes, in [`Netlist::output_ids`] order.
    fn walker_output_planes(n: &Netlist, walker: &BitSlicedSim<'_>) -> Vec<u64> {
        let w = n.width();
        let mut planes = Vec::new();
        for out in n.output_ids() {
            let values: Vec<i64> = (0..64).map(|lane| walker.lane_value(out, lane)).collect();
            planes.extend((0..w).map(|b| {
                values
                    .iter()
                    .enumerate()
                    .fold(0u64, |p, (lane, &v)| p | ((v as u64 >> b) & 1) << lane)
            }));
        }
        planes
    }

    /// Word `word` of a machine against the walker after the same
    /// cycle: every output plane, the output diffs against several
    /// reference lanes, and every lane's register state entering the
    /// next cycle, with `good` — the fault-free state — in the
    /// registers outside the machine's cone.
    fn assert_word_matches(
        n: &Netlist,
        walker: &BitSlicedSim<'_>,
        machine: &KernelSim<'_>,
        word: usize,
        good: &[u64],
        tag: &str,
    ) {
        assert_eq!(machine.output_planes(word), walker_output_planes(n, walker), "{tag}");
        for lane in [0u32, 1, 17, 63] {
            let diff = machine.output_diff_lanes_in_word(word, lane);
            assert_eq!(diff, walker.output_diff_lanes(lane), "{tag} reference lane {lane}");
        }
        for (lane, snap) in machine.word_snapshots(word, !0, good).iter().enumerate() {
            assert_eq!(**snap, walker.register_state_lane(lane as u32)[..], "{tag} lane {lane}");
        }
    }

    /// Runs each fault group on a one-word machine restricted to the
    /// union cone of its nodes, fed by the good trace, against the
    /// walker with the same faults, every cycle. Returns the smallest
    /// cone's op count.
    fn check_groups_against_the_walker(
        n: &Netlist,
        groups: &[Vec<FaultId>],
        cycles: usize,
    ) -> usize {
        let universe = universe(n);
        let tape = Tape::compile(n);
        let index = ConeIndex::new(n, &tape, &universe);
        let program = LaneProgram::compile(&index, &Cone::full(&tape));
        let inputs = pseudo_inputs(n.width(), cycles);
        let mut smallest = tape.op_count();
        for group in groups.iter().filter(|g| !g.is_empty()) {
            let faults = per_node(&universe, group);
            let mut trace = every_cycle(&index, &program, &inputs);
            let mut cones = [index.group_cone(faults.keys().copied())];
            let stage = trace.record_stage(0, inputs.len() as u32, &mut cones);
            let mut machine = KernelSim::with_cone(&tape, 1, &cones[0], 0);
            machine.set_faults(in_word(0, &faults));
            smallest = smallest.min(machine.ops_per_step());
            let mut walker = walker_with(n, &faults);
            for (cycle, &raw) in inputs.iter().enumerate() {
                machine.step_traced(raw, &stage, cycle as u32);
                walker.step(raw);
                let good = trace.registers_at(cycle as u32 + 1);
                assert_word_matches(n, &walker, &machine, 0, good, &format!("cycle {cycle}"));
            }
        }
        smallest
    }

    #[test]
    fn clean_machine_matches_the_walker_everywhere() {
        // No faults, over the union cone of every fault node: every lane
        // is the good machine, out to the outputs and the registers the
        // cone latches.
        let n = kitchen_sink(10);
        let tape = Tape::compile(&n);
        let u = universe(&n);
        let index = ConeIndex::new(&n, &tape, &u);
        let program = LaneProgram::compile(&index, &Cone::full(&tape));
        let inputs = pseudo_inputs(10, 200);
        let mut trace = every_cycle(&index, &program, &inputs);
        let nodes: BTreeSet<NodeId> = u.sites().iter().map(|site| site.node).collect();
        let mut cones = [index.group_cone(nodes)];
        let stage = trace.record_stage(0, inputs.len() as u32, &mut cones);
        let mut machine = KernelSim::with_cone(&tape, 1, &cones[0], 0);
        let mut walker = BitSlicedSim::new(&n);
        for (cycle, &raw) in inputs.iter().enumerate() {
            machine.step_traced(raw, &stage, cycle as u32);
            walker.step(raw);
            let good = trace.registers_at(cycle as u32 + 1);
            assert_word_matches(&n, &walker, &machine, 0, good, &format!("cycle {cycle}"));
        }
    }

    #[test]
    fn every_universe_fault_matches_the_walker() {
        // The in-crate differential: inject every collapsed fault site,
        // sharded 63 at a time like the parallel simulator, into both
        // engines and hold all planes equal every cycle.
        let n = kitchen_sink(8);
        let sites: Vec<FaultId> = universe(&n).ids().collect();
        assert!(sites.len() > 63, "want more than one shard");
        let shards: Vec<Vec<FaultId>> = sites.chunks(63).map(<[_]>::to_vec).collect();
        check_groups_against_the_walker(&n, &shards, 96);
    }

    #[test]
    fn cone_restricted_groups_match_the_full_tape_every_cycle() {
        // Each fault node alone, on a machine restricted to its cone
        // and fed by the good trace, against the walker running the
        // whole netlist: identical output planes in every lane, and
        // identical register snapshots once the registers outside the
        // cone read the fault-free state.
        let n = kitchen_sink(8);
        let u = universe(&n);
        let groups: Vec<Vec<FaultId>> = n
            .arithmetic_ids()
            .into_iter()
            .map(|node| u.ids_on_node(node).into_iter().take(63).collect())
            .collect();
        let smallest = check_groups_against_the_walker(&n, &groups, 150);
        assert!(smallest < Tape::compile(&n).op_count(), "some cone leaves ops out");
    }

    #[test]
    fn signature_folding_matches_the_walker() {
        let n = kitchen_sink(9);
        let u = universe(&n);
        let tape = Tape::compile(&n);
        let index = ConeIndex::new(&n, &tape, &u);
        let program = LaneProgram::compile(&index, &Cone::full(&tape));
        let inputs = pseudo_inputs(9, 150);
        let shard: Vec<FaultId> = u.ids().take(63).collect();
        let faults = per_node(&u, &shard);
        let mut trace = every_cycle(&index, &program, &inputs);
        let mut cones = [index.group_cone(faults.keys().copied())];
        let stage = trace.record_stage(0, inputs.len() as u32, &mut cones);
        let mut machine = KernelSim::with_cone(&tape, 1, &cones[0], 0);
        machine.set_faults(in_word(0, &faults));
        let mut walker = walker_with(&n, &faults);
        let mut wb = MisrBank::with_polynomial(16, 0x1100B).unwrap();
        let mut kb = MisrBank::with_polynomial(16, 0x1100B).unwrap();
        for (cycle, &raw) in inputs.iter().enumerate() {
            walker.step(raw);
            machine.step_traced(raw, &stage, cycle as u32);
            walker.fold_outputs(&mut wb);
            machine.fold_outputs_in_word(0, &mut kb);
        }
        for lane in 0..64 {
            assert_eq!(wb.lane_signature(lane), kb.lane_signature(lane), "lane {lane}");
        }
        assert_ne!(wb.lane_signature(0), wb.lane_signature(1), "some fault reaches the MISR");
    }

    #[test]
    #[should_panic(expected = "faults can only be injected into adders/subtractors")]
    fn set_faults_rejects_non_arithmetic_nodes() {
        let n = kitchen_sink(8);
        let u = universe(&n);
        let tape = Tape::compile(&n);
        let index = ConeIndex::new(&n, &tape, &u);
        let cone = index.group_cone([n.arithmetic_ids()[0]]);
        let mut machine = KernelSim::with_cone(&tape, 1, &cone, 0);
        let fault = CellFault {
            cell: 0,
            fault: FaFault { line: rtl::fulladder::Line::Sum, stuck_one: true },
            lanes: 2,
        };
        machine.set_faults([(0, n.input_ids()[0].index() as u32, fault)]);
    }

    #[test]
    fn per_word_faults_are_isolated_to_their_word() {
        // Two words, two different fault shards: each word must match
        // a single-word machine carrying only its own shard — the
        // property the parallel simulator's shard batching rests on.
        let n = kitchen_sink(8);
        let u = universe(&n);
        let tape = Tape::compile(&n);
        let index = ConeIndex::new(&n, &tape, &u);
        let program = LaneProgram::compile(&index, &Cone::full(&tape));
        let inputs = pseudo_inputs(8, 120);
        let (node_a, node_b) = (n.arithmetic_ids()[0], n.arithmetic_ids()[2]);
        let (a, b) = (node_a.index() as u32, node_b.index() as u32);
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
        let mut trace = every_cycle(&index, &program, &inputs);
        let mut cones = [
            index.group_cone([node_a, node_b]),
            index.group_cone([node_a]),
            index.group_cone([node_b]),
        ];
        let stage = trace.record_stage(0, inputs.len() as u32, &mut cones);
        let mut wide = KernelSim::with_cone(&tape, 2, &cones[0], 0);
        wide.set_faults([(0, a, fa), (1, b, fb)]);
        let mut lone_a = KernelSim::with_cone(&tape, 1, &cones[1], 0);
        lone_a.set_faults([(0, a, fa)]);
        let mut lone_b = KernelSim::with_cone(&tape, 1, &cones[2], 0);
        lone_b.set_faults([(0, b, fb)]);
        let bank = || MisrBank::with_polynomial(16, 0x1100B).unwrap();
        let mut banks = [bank(), bank(), bank(), bank()];
        let mut diverged = [false; 2];
        for (cycle, &raw) in inputs.iter().enumerate() {
            let cycle = cycle as u32;
            wide.step_traced(raw, &stage, cycle);
            lone_a.step_traced(raw, &stage, cycle);
            lone_b.step_traced(raw, &stage, cycle);
            wide.fold_outputs_in_word(0, &mut banks[0]);
            wide.fold_outputs_in_word(1, &mut banks[1]);
            lone_a.fold_outputs_in_word(0, &mut banks[2]);
            lone_b.fold_outputs_in_word(0, &mut banks[3]);
            for (word, lone) in [&lone_a, &lone_b].into_iter().enumerate() {
                let diff = wide.output_diff_lanes_in_word(word, 0);
                assert_eq!(diff, lone.output_diff_lanes_in_word(0, 0), "cycle {cycle} word {word}");
                assert_eq!(wide.output_planes(word), lone.output_planes(0), "cycle {cycle}");
                diverged[word] |= diff != 0;
            }
            let good = trace.registers_at(cycle + 1);
            assert_eq!(wide.word_snapshots(0, !0, good), lone_a.word_snapshots(0, !0, good));
            assert_eq!(wide.word_snapshots(1, !0, good), lone_b.word_snapshots(0, !0, good));
        }
        assert_eq!(diverged, [true; 2], "both shards reach an output");
        for lane in 0..64 {
            assert_eq!(banks[0].lane_signature(lane), banks[2].lane_signature(lane));
            assert_eq!(banks[1].lane_signature(lane), banks[3].lane_signature(lane));
        }
    }

    #[test]
    fn stage_entry_state_loads_and_reads_back_at_either_parity() {
        // A restricted machine entering a stage at an even or an odd
        // cycle starts on either op stream. Load the walker's state
        // entering the stage (the good baseline, every faulty lane its
        // own), step through the stage and read the snapshots back:
        // they must be the walker's, every cycle, in both words.
        let n = kitchen_sink(8);
        let universe = universe(&n);
        let tape = Tape::compile(&n);
        let index = ConeIndex::new(&n, &tape, &universe);
        let program = LaneProgram::compile(&index, &Cone::full(&tape));
        let inputs = pseudo_inputs(8, 100);
        let shard: Vec<FaultId> = universe.ids().take(63).collect();
        let faults = per_node(&universe, &shard);
        let mut walker = walker_with(&n, &faults);
        // `states[c][lane]`: the walker's register state entering cycle
        // c; `diffs[c]`: its output diff in cycle c.
        let lanes = |w: &BitSlicedSim<'_>| (0..64).map(|l| w.register_state_lane(l)).collect();
        let mut states: Vec<Vec<Vec<u64>>> = vec![lanes(&walker)];
        let mut diffs = Vec::new();
        for &raw in &inputs {
            walker.step(raw);
            states.push(lanes(&walker));
            diffs.push(walker.output_diff_lanes(0));
        }
        for start in [40u32, 41] {
            let mut trace = every_cycle(&index, &program, &inputs);
            let mut cones = [index.group_cone(faults.keys().copied())];
            let stage = trace.record_stage(start, inputs.len() as u32, &mut cones);
            let mut coned = KernelSim::with_cone(&tape, 2, &cones[0], start);
            assert!((0..tape.reg_bases.len()).any(|r| coned.latches_register(r)));
            let good = trace.registers_at(start);
            let entering = &states[start as usize];
            for word in 0..2 {
                let faulty = (1..64u32).map(|lane| (lane, &entering[lane as usize][..]));
                coned.load_word_state(word, good, faulty);
            }
            coned.set_faults(in_word(0, &faults).chain(in_word(1, &faults)));
            for cycle in start..inputs.len() as u32 {
                coned.step_traced(inputs[cycle as usize], &stage, cycle);
                let good = trace.registers_at(cycle + 1);
                for word in 0..2 {
                    let diff = coned.output_diff_lanes_in_word(word, 0);
                    assert_eq!(diff, diffs[cycle as usize], "start {start} cycle {cycle}");
                    let snapshots = coned.word_snapshots(word, !0, good);
                    for (lane, snap) in snapshots.iter().enumerate() {
                        assert_eq!(
                            **snap,
                            states[cycle as usize + 1][lane][..],
                            "start {start} cycle {cycle} word {word} lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tape_shape_is_consistent() {
        let n = kitchen_sink(8);
        let tape = Tape::compile(&n);
        assert!(tape.op_count() > 0);
        assert!(tape.segments.len() <= tape.op_count());
        // SSA: no physical slot is written by two ops, and the
        // constant slots are never written.
        let mut written = std::collections::HashSet::new();
        for i in 0..tape.op_count() {
            for d in [tape.ops.dst[i], tape.ops.dst2[i]] {
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
            for s in [tape.ops.a[i], tape.ops.b[i], tape.ops.c[i]] {
                if s != NO_SLOT {
                    assert!(ready.contains(&s), "op {i} reads unproduced slot {s}");
                }
            }
            ready.insert(tape.ops.dst[i]);
            if tape.ops.dst2[i] != NO_SLOT {
                ready.insert(tape.ops.dst2[i]);
            }
        }
        // The dump is stable and self-consistent.
        let dump = tape.dump();
        assert_eq!(dump, tape.dump());
        assert!(dump.starts_with("tape width=8"));
        assert!(dump.matches("\n  ").count() >= tape.op_count());
    }
}
