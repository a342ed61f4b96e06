//! The load-bearing correctness property of the fault simulator: the
//! staged 64-lane parallel engine must return *exactly* the detection
//! cycles and signatures of one-fault-at-a-time serial simulation
//! (`common::serial_reference`) at every stage schedule and
//! worker-thread count. These are the fixed-netlist cases; the seeded
//! random netlists are in `random_differential.rs`.

mod common;

use bist_faultsim::{
    FaultUniverse, ParallelFaultSimulator, SignatureConfig, SimOptions, StageSchedule,
};
use common::serial_reference;
use rtl::range::{aligned_input_range, RangeAnalysis};
use rtl::{Netlist, NetlistBuilder};
use testkit::Rng;

/// The workspace's tabulated 16-bit primitive polynomial
/// (`x^16 + x^12 + x^3 + x + 1`).
const SIG16: SignatureConfig = SignatureConfig { width: 16, poly: 0x1100B };

/// A fixed netlist big enough to span several 63-fault shards: a short
/// tapped delay line with adds, subs and shifts.
fn sharded_fixture() -> Netlist {
    let mut b = NetlistBuilder::new(10).expect("width valid");
    let x = b.input("x");
    let d1 = b.register(x);
    let d2 = b.register(d1);
    let t0 = b.shift_right(x, 2);
    let a1 = b.add(d1, t0);
    let d3 = b.register(a1);
    let s1 = b.sub(a1, d2);
    let a2 = b.add(d3, s1);
    let t1 = b.shift_right(a2, 1);
    let a3 = b.add(a2, t1);
    let y = b.sub(a3, x);
    b.output(y, "y");
    b.finish().expect("DAG by construction")
}

fn fixture_universe(n: &Netlist) -> FaultUniverse {
    let ranges = RangeAnalysis::analyze(n, aligned_input_range(10, 10));
    let reach = rtl::reachability::Reachability::analyze(n, 10);
    FaultUniverse::enumerate_pruned(n, &ranges, &reach)
}

fn fixture_inputs(len: usize) -> Vec<i64> {
    // Deterministic full-range-ish stimulus (odd multiplier mod 2^9).
    (0..len).map(|i| ((i as i64 * 37 + 11) % 256) - 128).collect()
}

#[test]
fn threaded_runs_are_bit_identical_to_single_threaded() {
    let netlist = sharded_fixture();
    let universe = fixture_universe(&netlist);
    assert!(universe.len() > 63, "fixture must span multiple shards, got {}", universe.len());
    let inputs = fixture_inputs(300);
    let schedule = StageSchedule::with_boundaries(vec![32, 96, 200]);

    let baseline = ParallelFaultSimulator::new(&netlist, &universe)
        .with_options(SimOptions::new().with_schedule(schedule.clone()).with_threads(1))
        .run(&inputs);
    assert_eq!(
        baseline.detection_cycles(),
        &serial_reference(&netlist, &universe, &inputs, SIG16).detection[..]
    );

    for threads in [2usize, 4, 8] {
        let run = ParallelFaultSimulator::new(&netlist, &universe)
            .with_options(SimOptions::new().with_schedule(schedule.clone()).with_threads(threads))
            .run(&inputs);
        assert_eq!(
            run.detection_cycles(),
            baseline.detection_cycles(),
            "detection cycles differ at {threads} threads"
        );
        assert_eq!(run.missed(), baseline.missed(), "missed set differs at {threads} threads");
        assert_eq!(run.total_cycles(), baseline.total_cycles());
    }
}

#[test]
fn stage_boundary_past_total_cycles_is_harmless() {
    let netlist = sharded_fixture();
    let universe = fixture_universe(&netlist);
    let inputs = fixture_inputs(50);
    // Boundaries beyond the run length (and a degenerate duplicate-free
    // in-range one) must not change results at any thread count.
    let schedule = StageSchedule::with_boundaries(vec![10, 1000, 4096]);
    let serial = serial_reference(&netlist, &universe, &inputs, SIG16).detection;
    for threads in [1usize, 3] {
        let run = ParallelFaultSimulator::new(&netlist, &universe)
            .with_options(SimOptions::new().with_schedule(schedule.clone()).with_threads(threads))
            .run(&inputs);
        assert_eq!(run.detection_cycles(), &serial[..], "threads = {threads}");
        assert_eq!(run.total_cycles(), inputs.len() as u32);
    }
}

#[test]
fn empty_universe_runs_with_worker_threads() {
    // A netlist whose only node chain carries no arithmetic yields an
    // empty fault universe; the sharded loop must handle zero shards.
    let mut b = NetlistBuilder::new(8).expect("width valid");
    let x = b.input("x");
    let d = b.register(x);
    let t = b.shift_right(d, 1);
    b.output(t, "y");
    let netlist = b.finish().expect("DAG by construction");
    let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(8, 8));
    let universe = FaultUniverse::enumerate(&netlist, &ranges);
    assert!(universe.is_empty());
    let inputs = fixture_inputs(20);
    let run = ParallelFaultSimulator::new(&netlist, &universe)
        .with_options(SimOptions::new().with_threads(4))
        .run(&inputs);
    assert_eq!(run.detection_cycles().len(), 0);
    assert!(run.missed().is_empty());
    assert_eq!(run.total_cycles(), inputs.len() as u32);
}

/// A three-tap FIR-ish structure with shifts and a subtractor.
fn filterish(width: u32) -> Netlist {
    let mut b = NetlistBuilder::new(width).expect("width valid");
    let x = b.input("x");
    let t0 = b.shift_right(x, 1);
    let d1 = b.register(x);
    let t1 = b.shift_right(d1, 2);
    let a1 = b.add_labeled(t0, t1, "a1");
    let d2 = b.register(d1);
    let t2 = b.shift_right(d2, 3);
    let a2 = b.sub_labeled(a1, t2, "a2");
    b.output(a2, "y");
    b.finish().expect("DAG by construction")
}

fn universe(n: &Netlist) -> FaultUniverse {
    let r = RangeAnalysis::analyze(n, aligned_input_range(n.width(), n.width()));
    FaultUniverse::enumerate(n, &r)
}

fn pseudo_inputs(n: usize, width: u32) -> Vec<i64> {
    let mut rng = Rng::new(0x0123_4567_89AB_CDEF);
    (0..n).map(|_| rng.signed(width)).collect()
}

#[test]
fn parallel_matches_serial_reference() {
    let n = filterish(10);
    let u = universe(&n);
    let inputs = pseudo_inputs(100, 10);
    let parallel = ParallelFaultSimulator::new(&n, &u)
        .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
        .run(&inputs);
    let serial = serial_reference(&n, &u, &inputs, SIG16).detection;
    assert_eq!(parallel.detection_cycles(), &serial[..]);
}

#[test]
fn sharded_runs_match_serial_at_every_thread_count() {
    let n = filterish(10);
    let u = universe(&n);
    let inputs = pseudo_inputs(150, 10);
    let serial = serial_reference(&n, &u, &inputs, SIG16).detection;
    for threads in [1usize, 2, 3, 4, 8] {
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![16, 48, 96]))
            .with_threads(threads)
            .run(&inputs);
        assert_eq!(
            result.detection_cycles(),
            &serial[..],
            "threads = {threads} diverged from serial"
        );
    }
}

#[test]
fn signature_mode_matches_serial_scalar_misrs() {
    let n = filterish(10);
    let u = universe(&n);
    let inputs = pseudo_inputs(100, 10);
    let serial = serial_reference(&n, &u, &inputs, SIG16);
    let (good, per_fault) = (serial.good, serial.signatures);
    let result = ParallelFaultSimulator::new(&n, &u)
        .with_options(
            SimOptions::new()
                .with_schedule(StageSchedule::with_boundaries(vec![16, 48]))
                .with_signature(SIG16),
        )
        .run(&inputs);
    let sigs = result.signatures().expect("signature mode reports signatures");
    assert_eq!(sigs.good, good);
    assert_eq!(sigs.per_fault, per_fault);
    assert_eq!(result.good_signature(), Some(good));
}
