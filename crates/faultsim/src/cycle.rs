//! Cycle-lane machines: 64 cycles per pass, one machine per word.
//!
//! A fault-lane machine (the `kernel` module) packs 63 faulty machines
//! into the lanes of a word and advances them one cycle per pass. A
//! cycle-lane machine turns the word around: each word holds one
//! machine, and lane `t` is cycle `t` of a 64-cycle block. This is the
//! crate's one time-parallel rule. The builder only accepts operands
//! that point to earlier nodes, so node index order is topological even
//! through registers, and one pass over a cone's nodes in index order
//! evaluates a whole block:
//!
//! * a register's plane is its source plane shifted up one lane, with
//!   the source's lane 63 of the previous block carried in;
//! * boundary slots copy the stage trace's block word whole, and the
//!   input block holds the block's 64 input words — no per-cycle
//!   broadcast;
//! * a fault is a full-word [`rtl::fulladder::LineMasks`] patch on its
//!   own word, run through the same masked gate model as a fault-lane
//!   patch.
//!
//! This is parallel-pattern single-fault propagation (PPSFP,
//! Waicukauski et al., 1985). It usually applies to combinational
//! logic only; here it covers the registers too, because nothing feeds
//! back.
//!
//! Two things run on it. The good trace (the `cone` module) is one
//! fault-free word over the whole tape, advanced from the reset state
//! one block at a time. Late in a compare-mode run few faults survive,
//! and their fault-lane words would leave cores idle and word loops
//! short, so those stages run each surviving fault on a word of its
//! own, over its node's cone.
//!
//! A stage may open mid-block, at lane `s`. Then each register plane's
//! lane `s` takes the stage-entry state instead of the shifted source.
//! Lanes below `s` hold don't-care values: a lane reads a lower lane
//! only through a register, and the registers' lane `s` is overridden,
//! so nothing below `s` reaches lane `s` or above. The carries at the
//! stage's last cycle are the state the next stage starts from.

use crate::cone::{Cone, ConeIndex};
use crate::kernel::{
    fold_patches, machine_width, uniform_runs, OpKind, Operands, PatchWalk, Tape, WordPatches,
    NO_SLOT,
};
use rtl::fulladder::FaFault;
use rtl::sim::CellFault;

/// One step of a [`LaneProgram`]'s node-order schedule, by the
/// exclusive end of what it runs.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// Program ops up to this one.
    Ops(u32),
    /// Register shifts up to this latch.
    Latches(u32),
}

/// A cone compiled for cycle-lane execution: its ops and register
/// shifts in node order over a dense local slot buffer. Unlike the
/// fault-lane program, every slot has one home: a block computes every
/// plane afresh, and only the carries cross from one block to the next.
#[derive(Debug)]
pub(crate) struct LaneProgram {
    /// Kind of each program op.
    kind: Vec<OpKind>,
    /// Uniform-kind runs `(kind, start, end)` over the program's ops.
    segments: Vec<(OpKind, u32, u32)>,
    /// The ops, over local slots, in node order.
    ops: Operands,
    /// The schedule: ops and register shifts alternate as the nodes do.
    runs: Vec<Run>,
    /// `(register slot, source slot)` of each shifted register plane.
    /// Register bits that latch one source (sign-extended bits, or two
    /// registers on one node) hold equal state in every real machine,
    /// so they share one shifted plane.
    latches: Vec<(u32, u32)>,
    /// Tape latch index (register ordinal × width + bit) whose state
    /// seeds each shifted plane's carries.
    latch_of: Vec<u32>,
    /// `(source slot, tape latch index)` of every register bit in the
    /// cone: a bit's state entering the next cycle is its source's
    /// value in this one.
    state: Vec<(u32, u32)>,
    /// `(tape op, program op)`, ascending by tape op.
    op_of: Vec<(u32, u32)>,
    /// Local slot of each tape slot, `NO_SLOT` for slots outside the
    /// program.
    local: Vec<u32>,
    /// Number of local slots (slot 0 is all-zeros, slot 1 all-ones).
    slots: usize,
    /// Local slot of each bit of the input block.
    input: Vec<u32>,
    /// `(local slot, trace rank)` of every boundary slot.
    boundary: Vec<(u32, u32)>,
    /// Output planes, in [`rtl::Netlist::output_ids`] order, `width` per
    /// output.
    outputs: Vec<u32>,
}

/// The local-slot numbering of [`LaneProgram::compile`].
struct Slots {
    local: Vec<u32>,
    next: u32,
}

impl Slots {
    /// Gives tape slot `slot` a local home on first sight.
    fn home(&mut self, slot: u32) -> u32 {
        if slot == NO_SLOT {
            return NO_SLOT;
        }
        if self.local[slot as usize] == NO_SLOT {
            self.local[slot as usize] = self.next;
            self.next += 1;
        }
        self.local[slot as usize]
    }

    /// Gives tape slot `slot` the existing local home `local`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` already has a home.
    fn alias(&mut self, slot: u32, local: u32) {
        assert_eq!(self.local[slot as usize], NO_SLOT, "tape slot {slot} has a home");
        self.local[slot as usize] = local;
    }

    /// The local home of a slot the program reads.
    ///
    /// # Panics
    ///
    /// Panics if nothing earlier in the program gave it one.
    fn read(&self, slot: u32) -> u32 {
        if slot == NO_SLOT {
            return NO_SLOT;
        }
        let local = self.local[slot as usize];
        assert_ne!(local, NO_SLOT, "tape slot {slot} is read before it is written");
        local
    }
}

impl LaneProgram {
    /// Compiles `cone` (its boundary ranks assigned) in node order.
    ///
    /// # Panics
    ///
    /// Panics if an op, latch or output reads a slot that is not a
    /// constant, the input block, a boundary slot or written earlier in
    /// node order.
    pub(crate) fn compile(index: &ConeIndex<'_>, cone: &Cone) -> LaneProgram {
        let tape = index.tape;
        let w = tape.width as u32;
        let mut slots = Slots { local: vec![NO_SLOT; tape.slots], next: 2 };
        slots.local[0] = 0;
        slots.local[1] = 1;
        let input = match tape.inputs.first() {
            Some(&(_, base)) => (base..base + w).map(|s| slots.home(s)).collect(),
            None => Vec::new(),
        };
        let boundary = cone.boundary.iter().map(|&(s, rank)| (slots.home(s), rank)).collect();
        let t = &tape.ops;
        let n = cone.segments.iter().map(|&(_, s, e)| (e - s) as usize).sum();
        let column = || Vec::with_capacity(n);
        let mut ops =
            Operands { a: column(), b: column(), c: column(), dst: column(), dst2: column() };
        let (mut kind, mut op_of) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut runs = Vec::new();
        let bits = cone.latches.len();
        let (mut latches, mut latch_of) = (Vec::with_capacity(bits), Vec::with_capacity(bits));
        let mut state = Vec::with_capacity(bits);
        // The shifted plane of each latched source slot, by tape slot.
        let mut shifted = vec![NO_SLOT; tape.slots];
        for &node in &cone.nodes {
            match index.register_of[node as usize] {
                NO_SLOT => {
                    let (start, end) = tape.node_ops[node as usize];
                    if start == end {
                        continue;
                    }
                    for op in start..end {
                        let i = op as usize;
                        op_of.push((op, kind.len() as u32));
                        kind.push(tape.kind[i]);
                        ops.a.push(slots.read(t.a[i]));
                        ops.b.push(slots.read(t.b[i]));
                        ops.c.push(slots.read(t.c[i]));
                        ops.dst.push(slots.home(t.dst[i]));
                        ops.dst2.push(slots.home(t.dst2[i]));
                    }
                    match runs.last_mut() {
                        Some(Run::Ops(end)) => *end = kind.len() as u32,
                        _ => runs.push(Run::Ops(kind.len() as u32)),
                    }
                }
                r => {
                    for k in r * w..(r + 1) * w {
                        let (reg, src) = tape.latches[k as usize];
                        let local = slots.read(src);
                        state.push((local, k));
                        match shifted[src as usize] {
                            NO_SLOT => {
                                let plane = slots.home(reg);
                                shifted[src as usize] = plane;
                                latches.push((plane, local));
                                latch_of.push(k);
                            }
                            plane => slots.alias(reg, plane),
                        }
                    }
                    match runs.last_mut() {
                        Some(Run::Latches(end)) => *end = latches.len() as u32,
                        _ => runs.push(Run::Latches(latches.len() as u32)),
                    }
                }
            }
        }
        op_of.sort_unstable();
        let segments = uniform_runs(&kind);
        let outputs =
            tape.outputs.iter().flat_map(|&base| base..base + w).map(|s| slots.read(s)).collect();
        LaneProgram {
            kind,
            segments,
            ops,
            runs,
            latches,
            latch_of,
            state,
            op_of,
            local: slots.local,
            slots: slots.next as usize,
            input,
            boundary,
            outputs,
        }
    }

    /// Number of ops per block.
    pub(crate) fn op_count(&self) -> usize {
        self.kind.len()
    }

    /// The program op that runs tape op `op`.
    fn local_op(&self, op: u32) -> u32 {
        let i = self.op_of.binary_search_by_key(&op, |&(tape_op, _)| tape_op);
        self.op_of[i.expect("every patched op lies inside the machine's cone")].1
    }
}

/// The fault one word of a [`LaneMachine`] carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneFault {
    /// Index of the faulted arithmetic node.
    pub(crate) node: u32,
    /// The faulted cell.
    pub(crate) cell: u32,
    /// The injected stuck-at line.
    pub(crate) fault: FaFault,
}

/// A cycle-lane machine: up to 16 faults, one per word, over one
/// compiled cone, or one fault-free word. Words past the last fault pad
/// the width to [`machine_width`]; they carry no fault.
#[derive(Debug)]
pub(crate) struct LaneMachine<'p> {
    tape: &'p Tape,
    program: &'p LaneProgram,
    /// Words per pass.
    words: usize,
    /// The fault of each word.
    faults: Vec<LaneFault>,
    /// Bit-plane buffer over the program's local slots, slot-major like
    /// the fault-lane kernel's: slot `s` of word `k` at `s * words + k`.
    buf: Vec<u64>,
    /// Carries by shifted plane, `carry[j * words + k]`: the value the
    /// registers of plane `j` hold in word `k` entering the next block
    /// (0 or 1).
    carry: Vec<u64>,
    /// Per-op patches, sorted by program op.
    patches: Vec<(u32, WordPatches)>,
}

impl<'p> LaneMachine<'p> {
    /// A machine carrying `faults`, word `k` entering its first block
    /// with register state `entry[k]` (one `width`-bit word per
    /// register, in [`rtl::Netlist::register_indices`] order). With no
    /// faults it is one fault-free word entering from the reset state.
    ///
    /// # Panics
    ///
    /// Panics if `entry` does not hold one state per fault.
    pub(crate) fn new(
        tape: &'p Tape,
        program: &'p LaneProgram,
        faults: Vec<LaneFault>,
        entry: &[&[u64]],
    ) -> Self {
        assert_eq!(entry.len(), faults.len(), "one entry state per fault");
        let words = machine_width(faults.len());
        let w = tape.width as u32;
        let mut carry = vec![0u64; program.latches.len() * words];
        for (k, regs) in entry.iter().enumerate() {
            for (j, &latch) in program.latch_of.iter().enumerate() {
                carry[j * words + k] = (regs[(latch / w) as usize] >> (latch % w)) & 1;
            }
        }
        let mut machine =
            LaneMachine { tape, program, words, faults, buf: Vec::new(), carry, patches: vec![] };
        machine.lay_out();
        machine
    }

    /// Sizes the buffer for the current width and rebuilds the patches.
    fn lay_out(&mut self) {
        let words = self.words;
        self.buf = vec![0u64; self.program.slots * words];
        self.buf[words..2 * words].fill(!0u64); // slot 1: constant all-ones
        let faults = self.faults.iter().enumerate().map(|(k, f)| {
            (k as u32, f.node, CellFault { cell: f.cell, fault: f.fault, lanes: !0 })
        });
        self.patches = fold_patches(self.tape, faults, |op| self.program.local_op(op));
    }

    /// Words per pass.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Patched ops per block.
    pub(crate) fn patched_ops(&self) -> usize {
        self.patches.len()
    }

    /// The bit-plane buffer's size in `u64`s.
    pub(crate) fn buffer_words(&self) -> usize {
        self.buf.len()
    }

    /// Keeps only the faults of words `keep` (ascending), which become
    /// words `0..keep.len()` with their carries, on a narrower machine.
    /// The buffer is laid out afresh, so the planes of the last block
    /// are gone.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty or names a word without a fault.
    pub(crate) fn retain(&mut self, keep: &[usize]) {
        assert!(!keep.is_empty(), "a machine keeps at least one fault");
        let words = machine_width(keep.len());
        let mut carry = vec![0u64; self.program.latches.len() * words];
        for (new, old) in carry.chunks_exact_mut(words).zip(self.carry.chunks_exact(self.words)) {
            for (slot, &k) in new.iter_mut().zip(keep) {
                *slot = old[k];
            }
        }
        self.faults = keep.iter().map(|&k| self.faults[k]).collect();
        self.words = words;
        self.carry = carry;
        self.lay_out();
    }

    /// Evaluates one 64-cycle block. `input[b]` is bit `b` of the
    /// block's input words and `row` the stage trace's words of the
    /// block, by rank. The registers' lane `entry_lane` reads the
    /// carries; a stage that opens mid-block passes its first lane for
    /// its first block, and later blocks pass 0.
    pub(crate) fn run_block(&mut self, input: &[u64], row: &[u64], entry_lane: u32) {
        let LaneMachine { program: p, words: w, buf, carry, patches, .. } = self;
        let (p, w) = (*p, *w);
        for (&slot, &plane) in p.input.iter().zip(input) {
            buf[slot as usize * w..][..w].fill(plane);
        }
        for &(slot, rank) in &p.boundary {
            buf[slot as usize * w..][..w].fill(row[rank as usize]);
        }
        let mut walk = PatchWalk::new(patches);
        let mut latch_lo = 0usize;
        for &run in &p.runs {
            match run {
                Run::Ops(end) => walk.run_to(&p.segments, &p.kind, &p.ops, buf, w, end),
                Run::Latches(end) => {
                    let end = end as usize;
                    let latches = &p.latches[latch_lo..end];
                    let carry = &mut carry[latch_lo * w..end * w];
                    match w {
                        1 => shift::<1>(latches, carry, buf, entry_lane),
                        2 => shift::<2>(latches, carry, buf, entry_lane),
                        4 => shift::<4>(latches, carry, buf, entry_lane),
                        8 => shift::<8>(latches, carry, buf, entry_lane),
                        16 => shift::<16>(latches, carry, buf, entry_lane),
                        _ => unreachable!("a cycle-lane machine is 1, 2, 4, 8 or 16 words wide"),
                    }
                    latch_lo = end;
                }
            }
        }
    }

    /// Word `word`'s output planes of the last block, in
    /// [`rtl::Netlist::output_ids`] order, `width` per output.
    pub(crate) fn output_planes(&self, word: usize) -> impl Iterator<Item = u64> + '_ {
        self.program.outputs.iter().map(move |&slot| self.buf[slot as usize * self.words + word])
    }

    /// The lanes of the last block where word `word`'s outputs differ
    /// from `good` (the block's fault-free output planes, in
    /// [`rtl::Netlist::output_ids`] order).
    pub(crate) fn output_diff(&self, word: usize, good: &[u64]) -> u64 {
        self.output_planes(word).zip(good).fold(0, |diff, (plane, &g)| diff | (plane ^ g))
    }

    /// Word `word`'s plane of tape slot `slot` in the last block.
    ///
    /// # Panics
    ///
    /// Panics if the program does not hold that slot.
    pub(crate) fn tape_plane(&self, word: usize, slot: u32) -> u64 {
        let local = self.program.local[slot as usize];
        assert_ne!(local, NO_SLOT, "tape slot {slot} lies outside the machine's cone");
        self.buf[local as usize * self.words + word]
    }

    /// Word `word`'s register state entering the cycle after lane
    /// `lane` of the last block: `baseline` (the fault-free state, which
    /// every register outside the cone holds) with the cone's registers
    /// read from their source planes.
    pub(crate) fn state(&self, word: usize, lane: u32, baseline: &[u64]) -> Box<[u64]> {
        let w = self.tape.width as u32;
        let mut regs: Box<[u64]> = baseline.into();
        for &(src, latch) in &self.program.state {
            let bit = (self.buf[src as usize * self.words + word] >> lane) & 1;
            let (r, b) = ((latch / w) as usize, latch % w);
            regs[r] = (regs[r] & !(1u64 << b)) | (bit << b);
        }
        regs
    }
}

/// Shifts each `(register, source)` plane pair of a `W`-word buffer up
/// one lane: the register's lane `entry_lane` takes its carry, and the
/// carry becomes the source's lane 63. The fixed width lets the word
/// loop vectorize, as in the kernel's `run_segment_w`.
fn shift<const W: usize>(
    latches: &[(u32, u32)],
    carry: &mut [u64],
    buf: &mut [u64],
    entry_lane: u32,
) {
    let keep = !(1u64 << entry_lane);
    for (&(dst, src), carry) in latches.iter().zip(carry.chunks_exact_mut(W)) {
        let plane: [u64; W] = buf[src as usize * W..][..W].try_into().expect("plane");
        let mut out = [0u64; W];
        for k in 0..W {
            out[k] = ((plane[k] << 1) & keep) | (carry[k] << entry_lane);
            carry[k] = plane[k] >> 63;
        }
        buf[dst as usize * W..][..W].copy_from_slice(&out);
    }
}
