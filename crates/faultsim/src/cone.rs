//! Fanout cones and the time-parallel good-machine trace.
//!
//! A fault can only change the nodes in its transitive fanout cone: the
//! adder it sits on, and everything that reads that adder through
//! wiring, arithmetic and registers (paper Sections 4 and 7 — a fault
//! sees the subfilter feeding its adder and the accumulate chain below
//! it). Every other node carries the fault-free value in every lane.
//! The scheduler exploits this twice:
//!
//! * [`ConeIndex::group_cone`] restricts a dispatch group to the ops in
//!   the union fanout cone of its fault nodes ([`Cone`]). Every slot the
//!   cone reads but does not write — a *boundary* slot — is filled each
//!   cycle from the good trace, broadcast across all lanes; registers
//!   outside the cone are not latched at all.
//! * [`GoodTrace`] simulates the fault-free machine once per run,
//!   **time-parallel**: a one-word cycle-lane machine over the whole
//!   tape (the `cycle` module states the rule), so one pass covers 64
//!   cycles. The trace keeps the register state at each stage
//!   boundary, the output planes until the scheduler takes them, and,
//!   per stage, one bit per cycle of each slot on the boundary of one
//!   of that stage's group cones ([`StageTrace`]). Nothing in it grows
//!   with the test length beyond one stage's window and one state per
//!   stage boundary.
//!
//! Constants and the input block are never boundary slots: the machine
//! keeps its constant slots and broadcasts the input word every cycle.

use crate::cycle::{LaneMachine, LaneProgram};
use crate::fault::FaultUniverse;
use crate::kernel::{OpKind, Tape, NO_SLOT};
use rtl::{Netlist, NodeId, NodeKind};

/// A bitset over node or slot indices.
fn bitset(len: usize) -> Vec<u64> {
    vec![0u64; len.div_ceil(64)]
}

fn test_bit(set: &[u64], i: usize) -> bool {
    (set[i / 64] >> (i % 64)) & 1 == 1
}

fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1u64 << (i % 64);
}

/// The members of a bitset, ascending.
fn members(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(i, &bits)| {
        let mut m = bits;
        std::iter::from_fn(move || {
            (m != 0).then(|| {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                i * 64 + bit
            })
        })
    })
}

/// The part of a tape one dispatch group runs: the ops, latches and
/// boundary slots of a union fanout cone. [`Cone::full`] is the whole
/// tape with no boundary, which the good trace runs.
#[derive(Debug)]
pub(crate) struct Cone {
    /// Uniform-kind op runs `(kind, start, end)` in tape order.
    pub(crate) segments: Vec<(OpKind, u32, u32)>,
    /// Indices into the tape's latch pairs of the latched registers.
    pub(crate) latches: Vec<u32>,
    /// `(slot, rank in the stage trace)` of every boundary slot,
    /// ascending by slot; [`GoodTrace::record_stage`] assigns the ranks.
    pub(crate) boundary: Vec<(u32, u32)>,
    /// The cone's nodes, ascending: a topological order even through
    /// registers, which a cycle-lane machine runs in.
    pub(crate) nodes: Vec<u32>,
}

impl Cone {
    /// The whole tape: every op and latch, no boundary slots.
    pub(crate) fn full(tape: &Tape) -> Cone {
        Cone {
            segments: tape.segments.clone(),
            latches: (0..tape.latches.len() as u32).collect(),
            boundary: Vec::new(),
            nodes: (0..tape.node_ops.len() as u32).collect(),
        }
    }
}

/// Per-run cone metadata: the fanout cone of every fault node.
#[derive(Debug)]
pub(crate) struct ConeIndex<'t> {
    pub(crate) tape: &'t Tape,
    /// Register ordinal of each node ([`Netlist::register_indices`]
    /// position), `NO_SLOT` for non-registers.
    pub(crate) register_of: Vec<u32>,
    /// Forward closure of each fault node (with a carry-save sum's
    /// paired carry node), as a node bitset; empty for other nodes.
    cones: Vec<Vec<u64>>,
    /// Slots that never need a trace value: constants and inputs.
    fixed: Vec<u64>,
}

impl<'t> ConeIndex<'t> {
    /// Computes the fanout cone of every node that carries a fault in
    /// `universe`.
    pub(crate) fn new(netlist: &Netlist, tape: &'t Tape, universe: &FaultUniverse) -> Self {
        let n = netlist.nodes().len();
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut carry_of: Vec<Option<u32>> = vec![None; n];
        for (i, node) in netlist.nodes().iter().enumerate() {
            for op in node.kind.operands() {
                fanout[op.index()].push(i as u32);
            }
            if let NodeKind::CsaCarry { sum, .. } = node.kind {
                carry_of[sum.index()] = Some(i as u32);
            }
        }
        let mut register_of = vec![NO_SLOT; n];
        for (r, &i) in netlist.register_indices().iter().enumerate() {
            register_of[i as usize] = r as u32;
        }
        let mut fixed = bitset(tape.slots);
        set_bit(&mut fixed, 0);
        set_bit(&mut fixed, 1);
        for &(_, base) in &tape.inputs {
            for s in base..base + tape.width as u32 {
                set_bit(&mut fixed, s as usize);
            }
        }
        let mut cones = vec![Vec::new(); n];
        for site in universe.sites() {
            let f = site.node.index();
            if !cones[f].is_empty() {
                continue;
            }
            let mut cone = bitset(n);
            let mut stack: Vec<u32> = std::iter::once(f as u32).chain(carry_of[f]).collect();
            for &s in &stack {
                set_bit(&mut cone, s as usize);
            }
            while let Some(i) = stack.pop() {
                for &j in &fanout[i as usize] {
                    if !test_bit(&cone, j as usize) {
                        set_bit(&mut cone, j as usize);
                        stack.push(j);
                    }
                }
            }
            cones[f] = cone;
        }
        ConeIndex { tape, register_of, cones, fixed }
    }

    /// The union cone of a dispatch group's fault nodes, its boundary
    /// not yet ranked.
    ///
    /// # Panics
    ///
    /// Panics if a node carries no fault in the indexed universe.
    pub(crate) fn group_cone(&self, nodes: impl IntoIterator<Item = NodeId>) -> Cone {
        let t = self.tape;
        let w = t.width as u32;
        let mut union = bitset(self.cones.len());
        for node in nodes {
            let cone = &self.cones[node.index()];
            assert!(!cone.is_empty(), "{node} carries no indexed fault");
            for (u, c) in union.iter_mut().zip(cone) {
                *u |= c;
            }
        }

        let nodes: Vec<u32> = members(&union).map(|i| i as u32).collect();
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        let mut latches: Vec<u32> = Vec::new();
        for &i in &nodes {
            let i = i as usize;
            match self.register_of[i] {
                NO_SLOT => {
                    let (s, e) = t.node_ops[i];
                    if s < e {
                        ranges.push((s, e));
                    }
                }
                r => {
                    latches.extend(r * w..(r + 1) * w);
                }
            }
        }
        ranges.sort_unstable();

        let mut segments: Vec<(OpKind, u32, u32)> = Vec::new();
        let mut written = bitset(t.slots);
        for &(s, e) in &ranges {
            for op in s..e {
                let k = t.kind[op as usize];
                match segments.last_mut() {
                    Some((sk, _, end)) if *sk == k && *end == op => *end = op + 1,
                    _ => segments.push((k, op, op + 1)),
                }
                set_bit(&mut written, t.ops.dst[op as usize] as usize);
                if t.ops.dst2[op as usize] != NO_SLOT {
                    set_bit(&mut written, t.ops.dst2[op as usize] as usize);
                }
            }
        }
        for &k in &latches {
            set_bit(&mut written, t.latches[k as usize].0 as usize);
        }

        // Boundary: read by the cone (or observed at an output), written
        // by nothing in it.
        let mut read = bitset(t.slots);
        for &(s, e) in &ranges {
            for op in s as usize..e as usize {
                for slot in [t.ops.a[op], t.ops.b[op], t.ops.c[op]] {
                    if slot != NO_SLOT {
                        set_bit(&mut read, slot as usize);
                    }
                }
            }
        }
        for &k in &latches {
            set_bit(&mut read, t.latches[k as usize].1 as usize);
        }
        for &base in &t.outputs {
            for s in base..base + w {
                set_bit(&mut read, s as usize);
            }
        }
        for ((r, &fixed), &written) in read.iter_mut().zip(&self.fixed).zip(&written) {
            *r &= !(fixed | written);
        }
        let boundary = members(&read).map(|slot| (slot as u32, NO_SLOT)).collect();
        Cone { segments, latches, boundary, nodes }
    }
}

/// One stage's window of the good trace: for every cycle of the stage,
/// one bit of each slot on the boundary of one of the stage's group
/// cones, ranked in ascending slot order.
#[derive(Debug)]
pub(crate) struct StageTrace {
    /// The 64-cycle block of the stage's first cycle.
    first_block: usize,
    /// Recorded slots per block.
    stride: usize,
    /// Block-major: `words[(block - first_block) * stride + rank]`,
    /// lane `t` = cycle `64 * block + t`.
    words: Vec<u64>,
}

impl StageTrace {
    /// Number of recorded words (the window's memory, in `u64`s).
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The recorded words of `cycle`'s block, indexed by rank, and the
    /// cycle's lane within them.
    #[inline]
    pub(crate) fn block_row(&self, cycle: u32) -> (&[u64], u32) {
        let row = cycle as usize / 64 - self.first_block;
        (&self.words[row * self.stride..(row + 1) * self.stride], cycle % 64)
    }
}

/// The fault-free machine of one run: a one-word cycle-lane machine
/// over the whole tape, advanced one 64-cycle block at a time as the
/// stages need it (see the module docs). It keeps the register state
/// entering each requested cycle and the output planes not yet taken;
/// the boundary words of a stage go to that stage's [`StageTrace`].
#[derive(Debug)]
pub(crate) struct GoodTrace<'i> {
    index: &'i ConeIndex<'i>,
    inputs: &'i [i64],
    /// The fault-free machine, holding the planes of the last evaluated
    /// block.
    machine: LaneMachine<'i>,
    /// Input planes of the block being evaluated.
    input: Vec<u64>,
    /// Blocks evaluated so far.
    evaluated: usize,
    /// Cycles whose entering register state is kept, ascending.
    snapshot_at: Vec<u32>,
    /// `(cycle, register state entering that cycle)`, ascending.
    snapshots: Vec<(u32, Box<[u64]>)>,
    /// Output planes of blocks `outputs_from..evaluated`, block-major:
    /// `outputs[(block - outputs_from) * planes + o * width + bit]`, in
    /// [`Netlist::output_ids`] order.
    outputs: Vec<u64>,
    /// The first block in `outputs`.
    outputs_from: usize,
    /// Cycles whose output words were taken.
    taken: u32,
}

impl<'i> GoodTrace<'i> {
    /// A trace over `inputs` that runs `program`, the whole tape
    /// compiled for cycle-lane execution (`Cone::full`), and keeps the
    /// register state entering each cycle of `snapshot_at` (cycle 0 is
    /// the reset state; a cycle may equal `inputs.len()`). Nothing is
    /// simulated yet.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not have exactly one input, or a
    /// snapshot cycle lies past the end of the test.
    pub(crate) fn new(
        index: &'i ConeIndex<'i>,
        program: &'i LaneProgram,
        inputs: &'i [i64],
        snapshot_at: &[u32],
    ) -> Self {
        let tape = index.tape;
        assert_eq!(tape.inputs.len(), 1, "netlist does not have exactly one input");
        let mut snapshot_at = snapshot_at.to_vec();
        snapshot_at.sort_unstable();
        snapshot_at.dedup();
        assert!(
            snapshot_at.last().is_none_or(|&c| c as usize <= inputs.len()),
            "snapshot cycle past the test"
        );
        let snapshots = match snapshot_at.first() {
            Some(0) => vec![(0, vec![0; tape.reg_bases.len()].into())],
            _ => Vec::new(),
        };
        GoodTrace {
            index,
            inputs,
            machine: LaneMachine::new(tape, program, Vec::new(), &[]),
            input: vec![0; tape.width],
            evaluated: 0,
            snapshot_at,
            snapshots,
            outputs: Vec::new(),
            outputs_from: 0,
            taken: 0,
        }
    }

    /// Evaluates the next 64-cycle block.
    fn eval_block(&mut self) {
        let block = self.evaluated;
        input_planes(self.inputs, block, &mut self.input);
        self.machine.run_block(&self.input, &[], 0);
        self.outputs.extend(self.machine.output_planes(0));
        // The state entering cycle c is every latch source's value in
        // cycle c - 1; the program latches every register, so the
        // baseline state is never read.
        let regs = self.index.tape.reg_bases.len();
        for &cycle in &self.snapshot_at {
            if cycle > 0 && (cycle as usize - 1) / 64 == block {
                let state = self.machine.state(0, (cycle - 1) % 64, &vec![0; regs]);
                self.snapshots.push((cycle, state));
            }
        }
        self.evaluated += 1;
    }

    /// Records the stage `start..end`: ranks the union of `cones`'
    /// boundary slots (writing each cone's ranks) and keeps their words
    /// for the stage's blocks. Stages must be recorded in order.
    ///
    /// # Panics
    ///
    /// Panics if `start..end` is empty, past the test, or starts before
    /// the block of the previously recorded stage's last cycle.
    pub(crate) fn record_stage(&mut self, start: u32, end: u32, cones: &mut [Cone]) -> StageTrace {
        assert!(start < end && end as usize <= self.inputs.len(), "bad stage {start}..{end}");
        let mut union = bitset(self.index.tape.slots);
        for cone in cones.iter() {
            for &(slot, _) in &cone.boundary {
                set_bit(&mut union, slot as usize);
            }
        }
        let slots: Vec<usize> = members(&union).collect();
        let mut rank = vec![NO_SLOT; self.index.tape.slots];
        for (r, &slot) in slots.iter().enumerate() {
            rank[slot] = r as u32;
        }
        for cone in cones.iter_mut() {
            for (slot, r) in cone.boundary.iter_mut() {
                *r = rank[*slot as usize];
            }
        }
        let first_block = start as usize / 64;
        let last_block = (end as usize - 1) / 64;
        assert!(first_block + 1 >= self.evaluated, "stages are recorded in order");
        let mut words = Vec::with_capacity((last_block + 1 - first_block) * slots.len());
        for block in first_block..=last_block {
            // A stage starting mid-block shares that block with the
            // previous stage; the machine still holds it.
            while self.evaluated <= block {
                self.eval_block();
            }
            words.extend(slots.iter().map(|&s| self.machine.tape_plane(0, s as u32)));
        }
        StageTrace { first_block, stride: slots.len(), words }
    }

    /// Takes the fault-free output words of every cycle before `end`
    /// not yet taken, in cycle order: `absorb(o, word)` for each output
    /// `o` in [`Netlist::output_ids`] order, each word sign-extended at
    /// the datapath width. Evaluates the blocks it needs, and drops the
    /// planes of every block it has taken whole.
    ///
    /// # Panics
    ///
    /// Panics if `end` lies past the test.
    pub(crate) fn take_outputs(&mut self, end: u32, mut absorb: impl FnMut(usize, i64)) {
        assert!(end as usize <= self.inputs.len(), "cycle {end} past the test");
        let tape = self.index.tape;
        let (w, count) = (tape.width, tape.outputs.len());
        let planes = count * w;
        let shift = 64 - w;
        while self.taken < end {
            let block = self.taken as usize / 64;
            while self.evaluated <= block {
                self.eval_block();
            }
            let row = (block - self.outputs_from) * planes;
            let block_end = end.min(64 * (block as u32 + 1));
            for cycle in self.taken..block_end {
                let lane = cycle % 64;
                for o in 0..count {
                    let bits = self.outputs[row + o * w..row + (o + 1) * w]
                        .iter()
                        .enumerate()
                        .fold(0u64, |bits, (b, &plane)| bits | ((plane >> lane) & 1) << b);
                    absorb(o, ((bits << shift) as i64) >> shift);
                }
            }
            self.taken = block_end;
            if block_end.is_multiple_of(64) {
                self.outputs.drain(..planes);
                self.outputs_from += 1;
            }
        }
    }

    /// The fault-free output planes of `cycle`'s block and of every
    /// later block evaluated so far, block-major, each block's planes in
    /// [`Netlist::output_ids`] order, `width` per output. Taking the
    /// outputs before `cycle` ([`GoodTrace::take_outputs`]) leaves
    /// `cycle`'s block the first one held.
    ///
    /// # Panics
    ///
    /// Panics if the planes of an earlier block are still held, or
    /// those of `cycle`'s block are gone.
    pub(crate) fn outputs_from(&self, cycle: u32) -> &[u64] {
        assert_eq!(cycle as usize / 64, self.outputs_from, "outputs taken up to cycle {cycle}");
        &self.outputs
    }

    /// The fault-free register state entering `cycle` (one of the
    /// snapshot cycles, once its block is evaluated).
    ///
    /// # Panics
    ///
    /// Panics if that state was not recorded.
    pub(crate) fn registers_at(&self, cycle: u32) -> &[u64] {
        let i = self
            .snapshots
            .binary_search_by_key(&cycle, |&(c, _)| c)
            .unwrap_or_else(|_| panic!("no register snapshot at cycle {cycle}"));
        &self.snapshots[i].1
    }
}

/// Fills `planes[b]` with bit `b` of the input words of 64-cycle block
/// `block`: lane `t` is cycle `64 * block + t`; lanes past the end of
/// the test read zero.
pub(crate) fn input_planes(inputs: &[i64], block: usize, planes: &mut [u64]) {
    let chunk = &inputs[block * 64..inputs.len().min(block * 64 + 64)];
    for (b, plane) in planes.iter_mut().enumerate() {
        *plane = chunk.iter().enumerate().fold(0, |p, (t, &x)| p | ((x as u64 >> b) & 1) << t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::sim::BitSlicedSim;
    use rtl::NetlistBuilder;

    #[test]
    fn taken_output_words_match_the_walker_and_their_planes_are_dropped() {
        let mut b = NetlistBuilder::new(8).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let y = b.add(x, d);
        b.output(y, "y");
        let n = b.finish().unwrap();
        let ranges = RangeAnalysis::analyze(&n, aligned_input_range(8, 8));
        let universe = FaultUniverse::enumerate(&n, &ranges);
        let tape = Tape::compile(&n);
        let index = ConeIndex::new(&n, &tape, &universe);
        let program = LaneProgram::compile(&index, &Cone::full(&tape));
        let inputs: Vec<i64> = (0..1000).map(|i| (i * 37 % 256) - 128).collect();
        let mut trace = GoodTrace::new(&index, &program, &inputs, &[]);
        let planes = tape.outputs.len() * tape.width;
        let mut taken = Vec::new();
        for end in [10, 64, 300, 1000] {
            trace.take_outputs(end, |o, v| {
                assert_eq!(o, 0);
                taken.push(v);
            });
            let kept = trace.outputs.len();
            assert!(kept <= planes, "{kept} plane words kept after cycle {end}");
        }
        assert_eq!(taken, crate::inject::probe_node(&n, y, &inputs));
    }

    #[test]
    fn good_trace_matches_the_walker_on_random_netlists() {
        // The trace against the walker's lane 0 on random netlists:
        // every output word, and the register state entering every
        // cycle — registers fed by the input, a constant or a set-lsb
        // too, which no fault cone reaches.
        testkit::for_each_seed(0x600D_0000, 40, |seed| {
            let mut rng = testkit::Rng::new(seed);
            let width = 4 + rng.below(7) as u32;
            let nodes = 3 + rng.below(16);
            let n = testkit::random_netlist(&mut rng, width, nodes);
            let ranges = RangeAnalysis::analyze(&n, aligned_input_range(width, width));
            let n = if rng.chance(2) { n.with_sign_trimming(&ranges) } else { n };
            let inputs: Vec<i64> = (0..1 + rng.below(300)).map(|_| rng.signed(width)).collect();
            let universe = FaultUniverse::enumerate(&n, &ranges);
            let tape = Tape::compile(&n);
            let index = ConeIndex::new(&n, &tape, &universe);
            let program = LaneProgram::compile(&index, &Cone::full(&tape));
            let every_cycle: Vec<u32> = (0..=inputs.len() as u32).collect();
            let mut trace = GoodTrace::new(&index, &program, &inputs, &every_cycle);
            let mut outputs: Vec<i64> = Vec::new();
            trace.take_outputs(inputs.len() as u32, |_, v| outputs.push(v));
            let mut walker = BitSlicedSim::new(&n);
            let mut expected: Vec<i64> = Vec::new();
            assert_eq!(trace.registers_at(0), walker.register_state_lane(0), "reset state");
            for (cycle, &x) in inputs.iter().enumerate() {
                walker.step(x);
                expected.extend(n.output_ids().iter().map(|&out| walker.lane_value(out, 0)));
                let state = trace.registers_at(cycle as u32 + 1);
                assert_eq!(
                    state,
                    walker.register_state_lane(0),
                    "state entering cycle {}",
                    cycle + 1
                );
            }
            assert_eq!(outputs, expected, "output words");
        });
    }
}
