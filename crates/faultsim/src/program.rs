//! A machine's compiled program: the ops, latches and boundary fills of
//! one [`Cone`], renumbered over a dense local slot buffer, with every
//! register double-buffered across cycle parities.
//!
//! The [`Tape`] numbers its slots for the whole netlist, and each
//! register owns a slot that a latch copy refreshes every cycle. A
//! [`Program`] keeps only the slots its cone touches — constants, the
//! input block, boundary slots, the slots its ops write and its
//! registers' homes — numbered in op order, so a fault group's buffer is
//! the size of its cone rather than the tape's.
//!
//! Registers cost no copy. A latch source the program rewrites every
//! cycle (an op destination, an input bit or a boundary slot) gets two
//! homes, and the program has two op streams: the stream of parity `q`
//! writes the source into home `q` and reads the register from home
//! `1 - q`, which the other stream wrote one cycle earlier. Alternate
//! steps run alternate streams, so the register's value is where the
//! previous cycle left it. Only a latch whose source the program does
//! not rewrite every cycle — a constant bit, or another register — gets
//! two homes of its own and one explicit copy per step
//! ([`Program::copies`]). See the slot-numbering contract in the
//! `kernel` module docs.

use crate::cone::Cone;
use crate::kernel::{uniform_runs, OpKind, Operands, Tape, NO_SLOT};

/// Per tape slot: written by the program every cycle.
const WRITTEN: u8 = 1;
/// Per tape slot: the register slot of a latched register.
const REGISTER: u8 = 2;
/// Per tape slot: a cycle-written latch source, which gets two homes.
const SOURCE: u8 = 4;

/// One cone's compiled form (see the module docs). Everything indexed
/// `[q]` is the form used by a step of parity `q`.
#[derive(Debug)]
pub(crate) struct Program {
    /// Tape op of each program op, ascending.
    tape_op: Vec<u32>,
    /// Kind of each program op.
    pub(crate) kind: Vec<OpKind>,
    /// Uniform-kind runs `(kind, start, end)` over the program's ops.
    pub(crate) segments: Vec<(OpKind, u32, u32)>,
    /// The two op streams, over local slots.
    pub(crate) streams: [Operands; 2],
    /// Number of local slots (slot 0 is all-zeros, slot 1 all-ones).
    slots: usize,
    /// Local slot of each bit of the input block.
    pub(crate) input: [Vec<u32>; 2],
    /// `(local slot, trace rank)` of every boundary slot.
    pub(crate) boundary: [Vec<(u32, u32)>; 2],
    /// Output planes a step leaves, in [`rtl::Netlist::output_ids`]
    /// order, `width` per output.
    pub(crate) outputs: [Vec<u32>; 2],
    /// Explicit latch copies `(dst, src)` that end a step.
    pub(crate) copies: [Vec<(u32, u32)>; 2],
    /// Local slot of each tape latch's register state entering a step
    /// (`NO_SLOT` for registers outside the cone, which latches every
    /// bit of a register or none).
    pub(crate) state: [Vec<u32>; 2],
}

impl Program {
    /// Compiles `cone` (with its boundary ranks assigned) over `tape`.
    ///
    /// # Panics
    ///
    /// Panics if an op or latch of the cone reads a slot that is not a
    /// constant, written by the cone, a boundary slot or a latched
    /// register.
    pub(crate) fn compile(tape: &Tape, cone: &Cone) -> Program {
        let w = tape.width as u32;
        let tape_op: Vec<u32> = cone.segments.iter().flat_map(|&(_, s, e)| s..e).collect();
        let mut class = vec![0u8; tape.slots];
        let mut mark = |slot: u32, bit: u8| {
            if slot != NO_SLOT {
                class[slot as usize] |= bit;
            }
        };
        for &op in &tape_op {
            mark(tape.ops.dst[op as usize], WRITTEN);
            mark(tape.ops.dst2[op as usize], WRITTEN);
        }
        for &(_, base) in &tape.inputs {
            (base..base + w).for_each(|s| mark(s, WRITTEN));
        }
        for &(slot, _) in &cone.boundary {
            mark(slot, WRITTEN);
        }
        // Latched `(register slot, source slot)` pairs, by register slot.
        let mut latched: Vec<(u32, u32)> =
            cone.latches.iter().map(|&k| tape.latches[k as usize]).collect();
        latched.sort_unstable();
        for &(reg, _) in &latched {
            mark(reg, REGISTER);
        }
        for &(_, src) in &latched {
            if class[src as usize] & WRITTEN != 0 {
                class[src as usize] |= SOURCE;
            }
        }

        let mut alloc = Alloc { class, latched, slot_map: vec![[NO_SLOT; 2]; tape.slots], next: 2 };
        alloc.slot_map[0] = [0, 0];
        alloc.slot_map[1] = [1, 1];
        // Local numbering follows first use: the input block, the
        // boundary slots in trace order, then the ops' operands and
        // destinations in op order, then whatever only a latch touches.
        for &(_, base) in &tape.inputs {
            (base..base + w).for_each(|s| alloc.ensure(s));
        }
        let mut boundary = cone.boundary.clone();
        boundary.sort_unstable_by_key(|&(_, rank)| rank);
        for &(slot, _) in &boundary {
            alloc.ensure(slot);
        }
        let ops = &tape.ops;
        for &op in &tape_op {
            let op = op as usize;
            for slot in [ops.a[op], ops.b[op], ops.c[op], ops.dst[op], ops.dst2[op]] {
                alloc.ensure(slot);
            }
        }
        for i in 0..alloc.latched.len() {
            alloc.ensure(alloc.latched[i].0);
        }

        let Alloc { class, latched, slot_map, next } = alloc;
        let at = |slot: u32, q: usize| {
            if slot == NO_SLOT {
                NO_SLOT
            } else {
                slot_map[slot as usize][q]
            }
        };
        let streams = [0, 1].map(|q| {
            let map = |field: &[u32]| tape_op.iter().map(|&op| at(field[op as usize], q)).collect();
            Operands {
                a: map(&ops.a),
                b: map(&ops.b),
                c: map(&ops.c),
                dst: map(&ops.dst),
                dst2: map(&ops.dst2),
            }
        });
        let kind: Vec<OpKind> = tape_op.iter().map(|&op| tape.kind[op as usize]).collect();
        let segments = uniform_runs(&kind);
        let input = [0, 1].map(|q| match tape.inputs.first() {
            Some(&(_, base)) => (base..base + w).map(|s| at(s, q)).collect(),
            None => Vec::new(),
        });
        let outputs = [0, 1].map(|q| {
            tape.outputs.iter().flat_map(|&base| (base..base + w).map(|s| at(s, q))).collect()
        });
        // A register read in a step of parity q sits at `slot_map[reg][q]`;
        // an explicit copy at the end of that step refreshes the other
        // home from the source's value in that step.
        let copies = [0, 1].map(|q| {
            latched
                .iter()
                .filter(|&&(_, src)| class[src as usize] & SOURCE == 0)
                .map(|&(reg, src)| (at(reg, 1 - q), at(src, q)))
                .collect()
        });
        let state = [0, 1].map(|q| {
            let mut state = vec![NO_SLOT; tape.latches.len()];
            for &k in &cone.latches {
                state[k as usize] = at(tape.latches[k as usize].0, q);
            }
            state
        });
        let boundary = [0, 1].map(|q| boundary.iter().map(|&(s, rank)| (at(s, q), rank)).collect());
        Program {
            tape_op,
            kind,
            segments,
            streams,
            slots: next as usize,
            input,
            boundary,
            outputs,
            copies,
            state,
        }
    }

    /// Number of local slots.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots
    }

    /// Number of ops per step.
    pub(crate) fn op_count(&self) -> usize {
        self.kind.len()
    }

    /// The program op that runs tape op `op`.
    ///
    /// # Panics
    ///
    /// Panics if the program does not run that op.
    pub(crate) fn local_op(&self, op: u32) -> u32 {
        self.tape_op.binary_search(&op).expect("every patched op lies inside the machine's cone")
            as u32
    }
}

/// The local-slot allocator of [`Program::compile`].
struct Alloc {
    class: Vec<u8>,
    latched: Vec<(u32, u32)>,
    slot_map: Vec<[u32; 2]>,
    next: u32,
}

impl Alloc {
    /// Gives `slot` its local home(s) unless it has them: one home for a
    /// cycle-written slot, two for a latch source; a latched register
    /// reads its source's homes crosswise, or gets two of its own when
    /// its source is not cycle-written.
    fn ensure(&mut self, slot: u32) {
        if slot == NO_SLOT || self.slot_map[slot as usize][0] != NO_SLOT {
            return;
        }
        let class = self.class[slot as usize];
        let homes = if class & REGISTER != 0 {
            let i = self.latched.partition_point(|&(reg, _)| reg < slot);
            let src = self.latched[i].1;
            if self.class[src as usize] & SOURCE != 0 {
                self.ensure(src);
                let [h0, h1] = self.slot_map[src as usize];
                [h1, h0]
            } else {
                self.next += 2;
                [self.next - 1, self.next - 2]
            }
        } else {
            assert!(class & WRITTEN != 0, "tape slot {slot} is read but never written");
            if class & SOURCE != 0 {
                self.next += 2;
                [self.next - 2, self.next - 1]
            } else {
                self.next += 1;
                [self.next - 1; 2]
            }
        };
        self.slot_map[slot as usize] = homes;
    }
}
