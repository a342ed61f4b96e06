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
//! * the serial one-fault-at-a-time reference (`common`).
//!
//! The netlists (`testkit::random_netlist`) include delay lines below
//! faulted adders and registers fed by the input, a constant or a
//! set-lsb, and one schedule cut is always odd, so stages open on both
//! parities of the kernel's double-buffered registers. (The good trace
//! alone, which latches the registers no fault cone reaches, is held to
//! the walker on the same netlists by a unit test in `cone.rs`.) Every case also checks pruning
//! soundness: the pruned universe is never larger than the plain one,
//! and no cell with a detected fault is pruned.
//!
//! Compare-mode tails run cycle-lane (one fault per word, 64 cycles per
//! pass), so the same equalities hold that executor to the references.
//! Each compare-mode kernel run must report exactly the faults the
//! qualifying rule sends cycle-lane, and most cases must send some, at
//! both thread counts. The second schedule cuts the test every few
//! cycles, on odd cycles too, so cycle-lane stages open mid-block on
//! carried state again and again; in most cases some stage that opens
//! mid-block has survivors. A stage entry the machine gets wrong
//! only shows within the netlist's memory depth of the cut, which a
//! single cut rarely exposes.
//!
//! The suite runs [`CASES`] seeded cases; a failure names its seed, and
//! `BIST_RANDOM_SEED=<seed>` replays just that case.

mod common;

use bist_faultsim::{
    FaultSimResult, FaultUniverse, ParallelFaultSimulator, SignatureConfig, SimEngine, SimOptions,
    StageSchedule,
};
use common::serial_reference;
use obs::Registry;
use rtl::range::{aligned_input_range, RangeAnalysis};
use rtl::reachability::Reachability;
use rtl::{Netlist, NodeId};
use std::collections::BTreeSet;
use std::sync::Arc;
use testkit::{for_each_seed, random_netlist, replay_seed, Rng};

/// Seeded cases per run (about 5 s in the debug profile).
const CASES: u64 = 40;

/// A cut every 1 to 24 cycles, from a random odd first cut on.
fn dense_schedule(rng: &mut Rng, len: usize) -> StageSchedule {
    let mut cuts = vec![1 + 2 * rng.below(8) as u32];
    while (*cuts.last().expect("one cut") as usize) < len {
        let next = cuts.last().expect("one cut") + 1 + rng.below(24) as u32;
        cuts.push(next);
    }
    StageSchedule::with_boundaries(cuts)
}

fn random_schedule(rng: &mut Rng, len: usize) -> StageSchedule {
    let mut cuts: Vec<u32> = (0..rng.below(5)).map(|_| 1 + rng.below(len + 40) as u32).collect();
    // An odd cut opens a stage on an odd cycle, so stages begin on both
    // parities of the kernel's double-buffered registers.
    cuts.push(1 + 2 * rng.below(len / 2 + 1) as u32);
    cuts.sort_unstable();
    cuts.dedup();
    StageSchedule::with_boundaries(cuts)
}

/// Pruning soundness: the pruned universe is never larger than the
/// plain one, and no cell where the plain universe has a fault detected
/// by `inputs` is pruned away.
fn check_pruning(netlist: &Netlist, plain: &FaultUniverse, pruned: &FaultUniverse, inputs: &[i64]) {
    assert!(pruned.len() <= plain.len(), "pruned universe larger than plain");
    assert!(pruned.uncollapsed_len() <= plain.uncollapsed_len(), "pruned expansion larger");
    let cells: BTreeSet<(NodeId, u32)> = pruned.sites().iter().map(|s| (s.node, s.cell)).collect();
    let run = ParallelFaultSimulator::new(netlist, plain).run(inputs);
    for (fid, cycle) in plain.ids().zip(run.detection_cycles()) {
        let site = plain.site(fid);
        assert!(
            cycle.is_none() || cells.contains(&(site.node, site.cell)),
            "{} cell {} had a detected fault but was pruned",
            site.node,
            site.cell
        );
    }
}

/// What a case's compare-mode kernel runs sent cycle-lane.
#[derive(Default)]
struct CycleLaneWork {
    /// Runs at 1 and at 3 threads that ran some fault cycle-lane.
    runs: [u64; 2],
    /// Cases where a stage that opens mid-block had survivors.
    mid_block: u64,
}

/// Checks a kernel run's counters against the qualifying rule: in
/// compare mode, every stage after the first whose survivors fill fewer
/// than `threads * 16` 63-fault words runs cycle-lane, and nothing else
/// does. Returns the faults it ran cycle-lane and whether a stage that
/// opened mid-block had survivors and ran cycle-lane.
fn cycle_lane_faults(
    registry: &Registry,
    schedule: &StageSchedule,
    len: usize,
    threads: usize,
    signature: bool,
) -> (u64, bool) {
    let counters = registry.snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let mut starts: Vec<u32> = schedule.clone().into_boundaries();
    starts.retain(|&c| c > 0 && (c as usize) < len);
    starts.insert(0, 0);
    let (mut expected, mut mid_block) = (0, false);
    for (i, &start) in starts.iter().enumerate().take(count("faultsim.stages") as usize).skip(1) {
        let survivors = count(&format!("faultsim.stage{i}.survivors"));
        if !signature && survivors.div_ceil(63) < threads as u64 * 16 {
            expected += survivors;
            mid_block |= survivors > 0 && start % 64 != 0;
        }
    }
    assert_eq!(count("faultsim.cycle_lane_faults"), expected, "faults run cycle-lane");
    (expected, mid_block)
}

fn check_case(seed: u64, work: &mut CycleLaneWork) {
    let mut rng = Rng::new(seed);
    let width = 4 + rng.below(7) as u32; // 4..=10
    let nodes = 3 + rng.below(16);
    let netlist = random_netlist(&mut rng, width, nodes);
    let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(width, width));
    let netlist = if rng.chance(2) { netlist.with_sign_trimming(&ranges) } else { netlist };
    let plain = FaultUniverse::enumerate(&netlist, &ranges);
    let pruned =
        FaultUniverse::enumerate_pruned(&netlist, &ranges, &Reachability::analyze(&netlist, width));
    let universe = if rng.chance(2) { &plain } else { &pruned };
    let len = 1 + rng.below(300);
    let inputs: Vec<i64> = (0..len).map(|_| rng.signed(width)).collect();
    let misr_width = 1 + rng.below(20) as u32;
    let cfg = SignatureConfig { width: misr_width, poly: rng.next_u64() & ((1 << misr_width) - 1) };
    let schedules = [random_schedule(&mut rng, len), dense_schedule(&mut rng, len)];

    check_pruning(&netlist, &plain, &pruned, &inputs);
    let serial = serial_reference(&netlist, universe, &inputs, cfg);
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
            ParallelFaultSimulator::new(&netlist, universe).with_options(options).run(&inputs)
        };
        let reference = run(options().with_engine(SimEngine::Walker));
        assert_eq!(reference.detection_cycles(), &serial.detection[..], "walker vs serial");
        let mut mid_block = false;
        for (t, (threads, schedule)) in [1usize, 3].into_iter().zip(&schedules).enumerate() {
            let tag = format!("signature={signature} threads={threads} {schedule:?}");
            let registry = Arc::new(Registry::new());
            let kernel = run(options()
                .with_threads(threads)
                .with_schedule(schedule.clone())
                .with_metrics(Arc::clone(&registry)));
            let (lane_faults, mid) =
                cycle_lane_faults(&registry, schedule, len, threads, signature);
            work.runs[t] += u64::from(lane_faults > 0);
            mid_block |= mid;
            assert_eq!(kernel.detection_cycles(), &serial.detection[..], "{tag}: detection map");
            assert_eq!(kernel.signatures(), reference.signatures(), "{tag}: signatures");
            assert_eq!(kernel.good_response(), reference.good_response(), "{tag}: response");
            if let Some(sigs) = kernel.signatures() {
                assert_eq!(sigs.per_fault, serial.signatures, "{tag}: serial signatures");
                assert_eq!(sigs.good, serial.good, "{tag}: serial good signature");
            }
        }
        work.mid_block += u64::from(mid_block);
    }
}

#[test]
fn kernel_matches_walker_and_serial_on_random_netlists() {
    let mut work = CycleLaneWork::default();
    for_each_seed(0xD1F7_0000, CASES, |seed| check_case(seed, &mut work));
    // A replay runs one case, which need not exercise cycle-lane.
    if replay_seed().is_none() {
        let [one, three] = work.runs;
        assert!(2 * one > CASES && 2 * three > CASES, "cycle-lane runs: {one} and {three}");
        assert!(2 * work.mid_block > CASES, "mid-block cycle-lane entries: {}", work.mid_block);
    }
}
