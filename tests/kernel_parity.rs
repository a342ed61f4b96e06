//! Kernel-vs-reference differential over every built-in design.
//!
//! The production fault simulator is the staged, sharded scheduler over
//! the compiled tape kernel (`faultsim::kernel`). The graph walker
//! survives only as an unstaged reference behind
//! `SimOptions::with_engine(SimEngine::Walker)`: one walker per
//! 63-fault shard, run from cycle 0 on one thread. It shares no code
//! with the scheduler's staging, repacking or stage-boundary merge, so
//! holding the two equal checks all of that along with the tape. Each
//! design runs the session's own fault universe and aligned LFSR-D
//! patterns in both response-check modes; the kernel at 1 and 3
//! threads, under the default and a custom stage schedule, must
//! reproduce the reference's per-fault detection map and signature set
//! exactly, and `BistSession::run` must return the direct kernel run's
//! result.
//!
//! Vector counts are tiered so the whole file stays test-suite cheap in
//! debug builds: the three paper designs run short campaigns, the
//! architectural variants (symmetric, carry-save) and LP-MINI run
//! longer ones — between them every `NodeKind` the lowering pass
//! handles is exercised on real elaborated datapaths.

use bist_bench::generator;
use bist_core::misr::Misr;
use bist_core::session::{BistSession, ResponseCheck, RunConfig};
use faultsim::{
    FaultSimResult, ParallelFaultSimulator, SignatureConfig, SimEngine, SimOptions, StageSchedule,
};
use filters::FilterDesign;

/// (design, vectors): the paper designs are big, so they get short
/// campaigns; the small variants can afford longer ones.
fn roster() -> Vec<(FilterDesign, usize)> {
    vec![
        (filters::designs::lowpass().expect("LP"), 96),
        (filters::designs::bandpass().expect("BP"), 96),
        (filters::designs::highpass().expect("HP"), 96),
        (filters::designs::lowpass_symmetric().expect("LP-SYM"), 192),
        (filters::designs::lowpass_carry_save().expect("LP-CSA"), 192),
        (filters::designs::lowpass_mini().expect("LP-MINI"), 384),
    ]
}

/// Simulator options for `mode`, with the session's default 16-bit MISR
/// in signature mode.
fn mode_options(mode: ResponseCheck) -> SimOptions {
    let options = SimOptions::new();
    match mode {
        ResponseCheck::Trace => options,
        ResponseCheck::Signature => {
            let misr = Misr::new(16).expect("16-bit MISR");
            options.with_signature(SignatureConfig { width: misr.width(), poly: misr.poly_low() })
        }
    }
}

/// Holds the kernel under `schedule`, at 1 and 3 threads, equal to the
/// unstaged walker reference on every design in both modes, and
/// `BistSession::run` equal to the direct single-threaded kernel run.
fn assert_kernel_matches_reference(schedule: &StageSchedule) {
    for (design, vectors) in roster() {
        let session = BistSession::new(&design).expect("session");
        let mut gen = generator("LFSR-D");
        let inputs: Vec<i64> = (0..vectors).map(|_| design.align_input(gen.next_word())).collect();
        for mode in [ResponseCheck::Trace, ResponseCheck::Signature] {
            let simulate = |options: SimOptions| -> FaultSimResult {
                ParallelFaultSimulator::new(design.netlist(), session.universe())
                    .with_options(options)
                    .run(&inputs)
            };
            let reference = simulate(mode_options(mode).with_engine(SimEngine::Walker));
            for threads in [1usize, 3] {
                let tag = format!("{} x {mode:?}, threads={threads}, {schedule:?}", design.name());
                let kernel = simulate(
                    mode_options(mode).with_schedule(schedule.clone()).with_threads(threads),
                );
                assert_eq!(
                    reference.detection_cycles(),
                    kernel.detection_cycles(),
                    "{tag}: per-fault detection map"
                );
                assert_eq!(reference.signatures(), kernel.signatures(), "{tag}: signatures");
                if threads > 1 {
                    continue;
                }
                // The session drives the same simulator over the same
                // universe and patterns.
                let config = RunConfig::new(vectors)
                    .with_response_check(mode)
                    .with_schedule(schedule.clone())
                    .with_threads(threads);
                let run = session.run(&mut *generator("LFSR-D"), &config).expect("session run");
                assert_eq!(
                    run.result.detection_cycles(),
                    kernel.detection_cycles(),
                    "{tag}: session detection map"
                );
                assert_eq!(
                    run.result.signatures(),
                    kernel.signatures(),
                    "{tag}: session signatures"
                );
            }
        }
    }
}

#[test]
fn every_design_is_bit_identical_across_engines_in_both_modes() {
    assert_kernel_matches_reference(&StageSchedule::new());
}

#[test]
fn engines_agree_under_threading_and_stage_boundaries() {
    assert_kernel_matches_reference(&StageSchedule::with_boundaries(vec![128, 384]));
}
