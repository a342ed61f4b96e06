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
//! mid-block simulates faults. A stage entry the machine gets wrong
//! only shows within the netlist's memory depth of the cut, which a
//! single cut rarely exposes.
//!
//! A stage simulates only the faults activated before its end. The
//! qualifying rule counts those, and a second set of cases opens the
//! stimulus with a long run of zero words, so that dormant faults cross
//! several stage boundaries and enter stages that open mid-block from
//! the good machine's state.
//!
//! The suite runs [`CASES`] seeded cases and [`ZERO_PREFIX_CASES`]
//! zero-prefixed ones; a failure names its seed, and
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

/// Seeded zero-prefix cases per run.
const ZERO_PREFIX_CASES: u64 = 20;

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
    /// Cases where a stage that opens mid-block simulated faults.
    mid_block: u64,
    /// Kernel runs where a dormant fault entered a stage that opens
    /// mid-block.
    dormant_entries: u64,
}

/// One stage's fault counts, read from a kernel run's counters.
struct StageCounts {
    start: u32,
    /// Faults not yet detected at the stage's start.
    survivors: u64,
    /// Survivors activated before the stage's end, which it runs.
    simulated: u64,
}

/// The stages a kernel run entered, with their counters.
fn stage_counts(registry: &Registry, schedule: &StageSchedule, len: usize) -> Vec<StageCounts> {
    let counters = registry.snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let mut starts: Vec<u32> = schedule.clone().into_boundaries();
    starts.retain(|&c| c > 0 && (c as usize) < len);
    starts.insert(0, 0);
    let stages = count("faultsim.stages") as usize;
    starts
        .into_iter()
        .take(stages)
        .enumerate()
        .map(|(i, start)| StageCounts {
            start,
            survivors: count(&format!("faultsim.stage{i}.survivors")),
            simulated: count(&format!("faultsim.stage{i}.simulated")),
        })
        .collect()
}

/// Checks a kernel run's counters against the qualifying rule: in
/// compare mode, every stage after the first whose simulated faults
/// fill fewer than `threads * 16` 63-fault words runs cycle-lane, and
/// nothing else does. Returns the faults it ran cycle-lane and whether a
/// stage that opened mid-block simulated faults and ran cycle-lane.
fn cycle_lane_faults(
    registry: &Registry,
    stages: &[StageCounts],
    threads: usize,
    signature: bool,
) -> (u64, bool) {
    let (mut expected, mut mid_block) = (0, false);
    for stage in stages.iter().skip(1) {
        let simulated = stage.simulated;
        if !signature && simulated.div_ceil(63) < threads as u64 * 16 {
            expected += simulated;
            mid_block |= simulated > 0 && stage.start % 64 != 0;
        }
    }
    let counters = registry.snapshot().counters;
    let counted = counters.get("faultsim.cycle_lane_faults").copied().unwrap_or(0);
    assert_eq!(counted, expected, "faults run cycle-lane");
    (expected, mid_block)
}

/// Whether a fault left dormant by one stage entered the next one, and
/// that stage opened mid-block. A dormant survivor is never detected, so
/// it survives into the next stage, and the faults entering stage `i`
/// are the previous stage's dormant ones less its own.
fn enters_mid_block(stages: &[StageCounts]) -> bool {
    let dormant = |s: &StageCounts| s.survivors - s.simulated;
    stages.windows(2).any(|w| dormant(&w[0]) > dormant(&w[1]) && w[1].start % 64 != 0)
}

/// Runs one seeded case. With `zero_prefix`, the stimulus opens with a
/// long run of zero words, which activates few faults, so dormant faults
/// cross several stage boundaries before the random tail activates them.
fn check_case(seed: u64, work: &mut CycleLaneWork, zero_prefix: bool) {
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
    let (zeros, len) = if zero_prefix {
        let zeros = 65 + rng.below(200);
        (zeros, zeros + 1 + rng.below(150))
    } else {
        (0, 1 + rng.below(300))
    };
    let inputs: Vec<i64> =
        (0..len).map(|i| if i < zeros { 0 } else { rng.signed(width) }).collect();
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
            let stages = stage_counts(&registry, schedule, len);
            let (lane_faults, mid) = cycle_lane_faults(&registry, &stages, threads, signature);
            work.runs[t] += u64::from(lane_faults > 0);
            mid_block |= mid;
            work.dormant_entries += u64::from(enters_mid_block(&stages));
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
    for_each_seed(0xD1F7_0000, CASES, |seed| check_case(seed, &mut work, false));
    // A replay runs one case, which need not exercise cycle-lane.
    if replay_seed().is_none() {
        let [one, three] = work.runs;
        assert!(2 * one > CASES && 2 * three > CASES, "cycle-lane runs: {one} and {three}");
        assert!(2 * work.mid_block > CASES, "mid-block cycle-lane entries: {}", work.mid_block);
    }
}

#[test]
fn dormant_faults_match_walker_and_serial_across_stage_boundaries() {
    // Zero-prefixed stimuli: most faults stay dormant through several
    // stages and enter late, some of them at a stage that opens
    // mid-block, where the entry state is the good machine's.
    let mut work = CycleLaneWork::default();
    for_each_seed(0x2E20_0000, ZERO_PREFIX_CASES, |seed| check_case(seed, &mut work, true));
    if replay_seed().is_none() {
        // Four kernel runs per case: two modes at two thread counts.
        let entries = work.dormant_entries;
        assert!(entries > ZERO_PREFIX_CASES, "mid-block entries of dormant faults: {entries}");
    }
}
