//! The full differential on random netlists: the proof and collapse
//! layers that sit on the fault simulator must agree with it.
//!
//! Each seeded case draws a netlist over every builder op
//! (`testkit::random_netlist`), its fault universe, an aligned pattern
//! sequence, a stage schedule with an odd cut and a thread count, and
//! runs the production simulator (compare-mode tails on the cycle-lane
//! executor) in both response-check modes. Then:
//!
//! * **collapse expansion** — the `structure::analyze`-collapsed run,
//!   expanded with `expand_classes`, equals the plain run: detection
//!   map, per-fault signatures and good signature;
//! * **SAT soundness** — no fault `sat::prove_faults` proves
//!   `Redundant` is ever detected by the plain run;
//! * **SAT witnesses** — every `Detectable` witness, fed to the
//!   simulator as the whole input sequence, detects its fault by the
//!   witness's last cycle.
//!
//! The suite runs [`CASES`] seeded cases; a failure names its seed, and
//! `BIST_RANDOM_SEED=<seed>` replays just that case.

use faultsim::{
    FaultId, FaultSimResult, FaultUniverse, ParallelFaultSimulator, SignatureConfig, SimOptions,
    StageSchedule,
};
use rtl::range::{aligned_input_range, RangeAnalysis};
use rtl::Netlist;
use sat::{FaultSpec, FaultVerdict, PruneConfig};
use testkit::{for_each_seed, random_netlist, replay_seed, Rng};

/// Seeded cases per run.
const CASES: u64 = 32;

/// Conflict budget per SAT query: ample for these netlists, so most
/// faults end `Redundant` or `Detectable`.
const MAX_CONFLICTS: u64 = 2_000;

/// What the cases exercised, so the suite cannot pass vacuously.
#[derive(Default)]
struct Exercised {
    collapsing: u64,
    redundant: u64,
    witnesses: u64,
}

fn simulate(
    netlist: &Netlist,
    universe: &FaultUniverse,
    inputs: &[i64],
    options: SimOptions,
) -> FaultSimResult {
    ParallelFaultSimulator::new(netlist, universe).with_options(options).run(inputs)
}

fn check_case(seed: u64, exercised: &mut Exercised) {
    let mut rng = Rng::new(seed);
    let width = 5 + rng.below(4) as u32; // 5..=8
    let input_bits = width - rng.below(3) as u32;
    let nodes = 3 + rng.below(12);
    let netlist = random_netlist(&mut rng, width, nodes);
    let ranges = RangeAnalysis::analyze(&netlist, aligned_input_range(input_bits, width));
    let universe = FaultUniverse::enumerate(&netlist, &ranges);
    let align = width - input_bits;
    let len = 1 + rng.below(250);
    let inputs: Vec<i64> = (0..len).map(|_| rng.signed(input_bits) << align).collect();
    let mut cuts: Vec<u32> = (0..rng.below(4)).map(|_| 1 + rng.below(len) as u32).collect();
    cuts.push(1 + 2 * rng.below(len / 2 + 1) as u32);
    cuts.sort_unstable();
    cuts.dedup();
    let schedule = StageSchedule::with_boundaries(cuts);
    let threads = 1 + rng.below(3);
    let misr_width = 1 + rng.below(20) as u32;
    let cfg = SignatureConfig { width: misr_width, poly: rng.next_u64() & ((1 << misr_width) - 1) };
    let options = |signature: bool| {
        let options = SimOptions::new().with_schedule(schedule.clone()).with_threads(threads);
        if signature {
            options.with_signature(cfg)
        } else {
            options
        }
    };

    // Collapse expansion, in both modes.
    let analysis = structure::analyze(&netlist, &universe);
    let representatives = universe.subset(&analysis.collapsed.representatives);
    let class_map = &analysis.collapsed.class_map;
    exercised.collapsing += u64::from(representatives.len() < universe.len());
    let mut plain_compare = None;
    for signature in [false, true] {
        let plain = simulate(&netlist, &universe, &inputs, options(signature));
        let collapsed = simulate(&netlist, &representatives, &inputs, options(signature))
            .expand_classes(class_map);
        let tag = format!("signature={signature} threads={threads} {schedule:?}");
        assert_eq!(collapsed.detection_cycles(), plain.detection_cycles(), "{tag}: detection map");
        assert_eq!(collapsed.signatures(), plain.signatures(), "{tag}: signatures");
        assert_eq!(collapsed.good_response(), plain.good_response(), "{tag}: good response");
        if !signature {
            plain_compare = Some(plain);
        }
    }
    let plain = plain_compare.expect("the compare-mode run");

    // SAT verdicts against the simulator.
    let specs: Vec<FaultSpec> = universe
        .sites()
        .iter()
        .map(|site| FaultSpec { node: site.node, cell: site.cell, fault: site.representative })
        .collect();
    let outcome = sat::prove_faults(
        &netlist,
        input_bits,
        &specs,
        &PruneConfig { max_conflicts: MAX_CONFLICTS },
    );
    for (i, (_, verdict)) in outcome.verdicts.iter().enumerate() {
        let site = universe.site(FaultId(i as u32));
        match verdict {
            FaultVerdict::Redundant => {
                exercised.redundant += 1;
                let cycle = plain.detection_cycles()[i];
                assert_eq!(cycle, None, "{site}: proven redundant, detected at cycle {cycle:?}");
            }
            FaultVerdict::Detectable { witness } => {
                exercised.witnesses += 1;
                let alone = universe.subset(&[FaultId(i as u32)]);
                let replay = simulate(&netlist, &alone, witness, options(false));
                let last = witness.len() as u32 - 1;
                let cycle = replay.detection_cycles()[0];
                assert!(
                    cycle.is_some_and(|c| c <= last),
                    "{site}: witness of {} words detects at {cycle:?}",
                    witness.len()
                );
            }
            FaultVerdict::Unknown => {}
        }
    }
}

#[test]
fn collapse_and_sat_verdicts_agree_with_the_simulator_on_random_netlists() {
    let mut exercised = Exercised::default();
    for_each_seed(0xF0D1_0000, CASES, |seed| check_case(seed, &mut exercised));
    if replay_seed().is_none() {
        let Exercised { collapsing, redundant, witnesses } = exercised;
        assert!(collapsing > 0, "no case collapsed a fault");
        assert!(redundant > 0 && witnesses > 0, "{redundant} redundant, {witnesses} witnesses");
    }
}
