//! Seeded randomized differential over random netlists.
//!
//! Each case draws a netlist over every builder op (add, sub, shift,
//! not, set-lsb, carry-save, constants and register chains; sometimes
//! sign-trimmed, sometimes with a second output), a fault universe, a
//! pattern sequence, a MISR and two stage schedules. The production
//! simulator — the staged scheduler over cone-restricted kernel groups
//! fed by the good trace — must reproduce, at 1 and 3 threads and in
//! both response-check modes:
//!
//! * the unstaged walker reference (`SimEngine::Walker`): detection
//!   map, signatures and good response, and
//! * a serial one-fault-at-a-time walker with scalar MISRs.
//!
//! The full-tape kernel machine must also match the walker's output
//! diffs and register states every cycle. The netlists include delay
//! lines below faulted adders and registers fed by the input, a
//! constant or a set-lsb, and one schedule cut is always odd, so stages
//! open on both parities of the kernel's double-buffered registers.
//!
//! The generator is a hand-rolled xorshift, so the suite builds
//! offline. It runs [`CASES`] seeded cases; a failure names its seed,
//! and `BIST_RANDOM_SEED=<seed>` replays just that case.

use bist_faultsim::{
    FaultSimResult, FaultUniverse, KernelSim, ParallelFaultSimulator, SignatureConfig, SimEngine,
    SimOptions, StageSchedule, Tape,
};
use rtl::misr::Misr;
use rtl::range::{aligned_input_range, RangeAnalysis};
use rtl::reachability::Reachability;
use rtl::sim::{BitSlicedSim, CellFault};
use rtl::{Netlist, NetlistBuilder, NodeId};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeded cases per run (about 5 s in the debug profile).
const CASES: u64 = 40;

/// Marsaglia xorshift64: small, seedable, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // Splitmix the seed so neighbouring seeds diverge at once.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// A random single-input netlist and its datapath width.
fn random_netlist(rng: &mut XorShift) -> (Netlist, u32) {
    let width = 4 + rng.below(7) as u32; // 4..=10
    let mut b = NetlistBuilder::new(width).expect("valid width");
    let mut ids: Vec<NodeId> = vec![b.input("x")];
    let count = 3 + rng.below(16);
    for _ in 0..count {
        let [x, y, z] = [0; 3].map(|_| ids[rng.below(ids.len())]);
        let id = match rng.below(13) {
            0 => b.register(x),
            1 => {
                // A delay line of depth 1-4 below a faulted adder: the
                // first register reads a cycle-written source, the rest
                // read registers.
                let sum = b.add(x, y);
                ids.push(sum);
                (0..1 + rng.below(4)).fold(sum, |d, _| b.register(d))
            }
            2 => b.shift_right(x, 1 + rng.below(width as usize - 1) as u32),
            3 | 4 => b.add(x, y),
            5 => b.sub(x, y),
            6 => b.not_word(x),
            7 => b.set_lsb(x),
            8 => {
                let (sum, carry) = b.csa(x, y, z, "");
                ids.push(sum);
                carry
            }
            // Registers fed straight by the input, by a constant and by
            // a set-lsb (whose bit 0 is the constant one).
            9 => b.register(ids[0]),
            10 => {
                let k = b.constant(rng.next() as i64);
                b.register(k)
            }
            11 => {
                let set = b.set_lsb(x);
                b.register(set)
            }
            _ => b.constant(rng.next() as i64),
        };
        ids.push(id);
    }
    // An adder at the output keeps the universe non-empty.
    let last = *ids.last().expect("nonempty");
    let other = ids[rng.below(ids.len())];
    let y = b.add(last, other);
    b.output(y, "y");
    if rng.chance(3) {
        let tap = ids[rng.below(ids.len())];
        b.output(tap, "z");
    }
    (b.finish().expect("operands point backwards"), width)
}

fn random_inputs(rng: &mut XorShift, width: u32, len: usize) -> Vec<i64> {
    let shift = 64 - width;
    (0..len).map(|_| ((rng.next() << shift) as i64) >> shift).collect()
}

fn random_schedule(rng: &mut XorShift, len: usize) -> StageSchedule {
    let mut cuts: Vec<u32> = (0..rng.below(5)).map(|_| 1 + rng.below(len + 40) as u32).collect();
    // An odd cut opens a stage on an odd cycle, so stages begin on both
    // parities of the kernel's double-buffered registers.
    cuts.push(1 + 2 * rng.below(len / 2 + 1) as u32);
    cuts.sort_unstable();
    cuts.dedup();
    StageSchedule::with_boundaries(cuts)
}

/// One-fault-at-a-time walker runs: each fault's first detection cycle,
/// its end-of-test scalar MISR signature, and the good signature.
fn serial_reference(
    netlist: &Netlist,
    universe: &FaultUniverse,
    inputs: &[i64],
    cfg: SignatureConfig,
) -> (Vec<Option<u32>>, Vec<u64>, u64) {
    let outputs = netlist.output_ids();
    let mut good = Misr::with_polynomial(cfg.width, cfg.poly).expect("valid width");
    let mut sim = BitSlicedSim::new(netlist);
    for &x in inputs {
        sim.step(x);
        for &out in &outputs {
            good.absorb(sim.lane_value(out, 0));
        }
    }
    let mut detection = Vec::new();
    let mut signatures = Vec::new();
    for fid in universe.ids() {
        let site = universe.site(fid);
        let mut sim = BitSlicedSim::new(netlist);
        let fault = CellFault { cell: site.cell, fault: site.representative, lanes: 2 };
        sim.set_faults(site.node, vec![fault]);
        let mut misr = Misr::with_polynomial(cfg.width, cfg.poly).expect("valid width");
        let mut detected = None;
        for (cycle, &x) in inputs.iter().enumerate() {
            sim.step(x);
            for &out in &outputs {
                misr.absorb(sim.lane_value(out, 1));
            }
            if detected.is_none() && sim.output_diff_lanes(0) & 2 != 0 {
                detected = Some(cycle as u32);
            }
        }
        detection.push(detected);
        signatures.push(misr.signature());
    }
    (detection, signatures, good.signature())
}

/// The full-tape kernel machine, which latches every register (those
/// fed by the input or a constant too, which no fault cone reaches),
/// against the walker with the universe's first 63 faults on lanes
/// 1..=63: output diffs and every lane's register state, every cycle.
fn check_full_machine(netlist: &Netlist, universe: &FaultUniverse, inputs: &[i64]) {
    let tape = Tape::compile(netlist);
    let mut kernel = KernelSim::new(&tape);
    let mut walker = BitSlicedSim::new(netlist);
    let mut per_node: BTreeMap<NodeId, Vec<CellFault>> = BTreeMap::new();
    for (slot, fid) in universe.ids().take(63).enumerate() {
        let site = universe.site(fid);
        let fault = CellFault { cell: site.cell, fault: site.representative, lanes: 2 << slot };
        per_node.entry(site.node).or_default().push(fault);
    }
    for (node, faults) in per_node {
        walker.set_faults(node, faults.clone());
        kernel.set_faults(node, faults);
    }
    for (cycle, &x) in inputs.iter().enumerate() {
        walker.step(x);
        kernel.step(x);
        assert_eq!(kernel.output_diff_lanes(0), walker.output_diff_lanes(0), "cycle {cycle}");
        for lane in 0..64 {
            let (k, w) = (kernel.register_state_lane(lane), walker.register_state_lane(lane));
            assert_eq!(k, w, "cycle {cycle} lane {lane}: full-machine register state");
        }
    }
}

fn check_case(seed: u64) {
    let mut rng = XorShift::new(seed);
    let (netlist, width) = random_netlist(&mut rng);
    let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(width, width));
    let netlist = if rng.chance(2) { netlist.with_sign_trimming(&ranges) } else { netlist };
    let universe = if rng.chance(2) {
        FaultUniverse::enumerate(&netlist, &ranges)
    } else {
        FaultUniverse::enumerate_pruned(&netlist, &ranges, &Reachability::analyze(&netlist, width))
    };
    let len = 1 + rng.below(300);
    let inputs = random_inputs(&mut rng, width, len);
    let misr_width = 1 + rng.below(20) as u32;
    let cfg = SignatureConfig { width: misr_width, poly: rng.next() & ((1 << misr_width) - 1) };
    let schedules = [random_schedule(&mut rng, len), random_schedule(&mut rng, len)];

    check_full_machine(&netlist, &universe, &inputs);
    let (serial, serial_sigs, serial_good) = serial_reference(&netlist, &universe, &inputs, cfg);
    for signature in [false, true] {
        let options = || {
            let options = SimOptions::new();
            if signature {
                options.with_signature(cfg)
            } else {
                options
            }
        };
        let run = |options: SimOptions| -> FaultSimResult {
            ParallelFaultSimulator::new(&netlist, &universe).with_options(options).run(&inputs)
        };
        let reference = run(options().with_engine(SimEngine::Walker));
        assert_eq!(reference.detection_cycles(), &serial[..], "walker vs serial");
        for (threads, schedule) in [1usize, 3].into_iter().zip(&schedules) {
            let tag = format!("signature={signature} threads={threads} {schedule:?}");
            let kernel = run(options().with_threads(threads).with_schedule(schedule.clone()));
            assert_eq!(kernel.detection_cycles(), &serial[..], "{tag}: detection map");
            assert_eq!(kernel.signatures(), reference.signatures(), "{tag}: signatures");
            assert_eq!(kernel.good_response(), reference.good_response(), "{tag}: response");
            if let Some(sigs) = kernel.signatures() {
                assert_eq!(sigs.per_fault, serial_sigs, "{tag}: serial signatures");
                assert_eq!(sigs.good, serial_good, "{tag}: serial good signature");
            }
        }
    }
}

/// The seed `BIST_RANDOM_SEED` names (decimal or `0x` hex), if set.
fn replay_seed() -> Option<u64> {
    let raw = std::env::var("BIST_RANDOM_SEED").ok()?;
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("BIST_RANDOM_SEED={raw} is not a number")))
}

#[test]
fn kernel_matches_walker_and_serial_on_random_netlists() {
    let seeds: Vec<u64> = match replay_seed() {
        Some(seed) => vec![seed],
        None => (0..CASES).map(|i| 0xD1F7_0000 + i).collect(),
    };
    for seed in seeds {
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| check_case(seed))) {
            eprintln!("random differential failed for seed {seed:#x}");
            eprintln!("replay with BIST_RANDOM_SEED={seed:#x}");
            std::panic::resume_unwind(cause);
        }
    }
}
