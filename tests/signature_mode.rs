//! Golden signature-mode results on LP-MINI — the aliasing check on
//! the Section 8 generator roster.
//!
//! LP-MINI is the 16-tap service-test design: small enough that a full
//! trace-vs-signature double run costs well under a second, real enough
//! (an elaborated CSD datapath with hundreds of collapsed fault
//! classes) that the golden values below pin actual hardware behaviour.
//! Everything here is exact integer arithmetic, so the goldens hold on
//! every platform; if an intentional engine change shifts them, re-read
//! the printed values and update the constants alongside DESIGN.md §10.

use bist_bench::{generator, SECTION8_GENERATORS};
use bist_core::session::{BistSession, ResponseCheck, RunConfig};
use faultsim::StageSchedule;

const VECTORS: usize = 1024;

/// Golden end-of-test results for LP-MINI at 1024 vectors with the
/// default 16-bit MISR: (generator, missed faults, good signature).
const GOLDEN: [(&str, usize, u64); 2] = [("LFSR-1", 23, 0xA9EE), ("LFSR-D", 19, 0x5503)];

fn mini() -> filters::FilterDesign {
    filters::designs::lowpass_mini().expect("LP-MINI elaborates")
}

#[test]
fn lp_mini_signature_mode_matches_goldens_with_zero_aliasing() {
    let d = mini();
    let session = BistSession::new(&d).expect("session");
    for (name, missed, signature) in GOLDEN {
        let mut gen = generator(name);
        let run = session
            .run(&mut *gen, &RunConfig::new(VECTORS).with_response_check(ResponseCheck::Signature))
            .expect("signature run");
        assert_eq!(run.missed(), missed, "{name} missed-fault golden");
        assert_eq!(run.signature, signature, "{name} signature golden");
        assert_eq!(run.artifact.aliased, 0, "{name} must not alias on the 16-bit MISR");
        assert_eq!(
            run.result.signature_detected_count(),
            run.result.detected_count(),
            "{name}: a signature-only tester sees every compare-detected fault"
        );
    }
}

#[test]
fn lp_mini_roster_verdicts_are_identical_in_both_modes() {
    // The whole roster: signature-mode detection cycles, missed counts
    // and good signature must be bit-identical to trace mode, with zero
    // aliased faults.
    let d = mini();
    let session = BistSession::new(&d).expect("session");
    for name in SECTION8_GENERATORS {
        let mut gen = generator(name);
        let trace = session.run(&mut *gen, &RunConfig::new(VECTORS)).expect("trace run");
        let signed = session
            .run(&mut *gen, &RunConfig::new(VECTORS).with_response_check(ResponseCheck::Signature))
            .expect("signature run");
        assert_eq!(
            trace.result.detection_cycles(),
            signed.result.detection_cycles(),
            "{name} detected-fault set"
        );
        assert_eq!(trace.signature, signed.signature, "{name} good signature");
        assert_eq!(signed.artifact.aliased, 0, "{name} aliasing");
        assert_eq!(trace.artifact.response_store_words, VECTORS as u64);
        assert_eq!(signed.artifact.response_store_words, 64);
    }
}

#[test]
fn lp_mini_signature_goldens_hold_at_every_thread_count_and_schedule() {
    // The golden values are schedule- and thread-invariant — the
    // real-design counterpart of the seeded random netlists in
    // `crates/faultsim/tests/random_differential.rs`.
    let d = mini();
    let session = BistSession::new(&d).expect("session");
    let base = RunConfig::new(VECTORS).with_response_check(ResponseCheck::Signature);
    for (threads, boundaries) in [(1usize, vec![]), (2, vec![100u32, 700]), (4, vec![64, 256, 512])]
    {
        let mut gen = generator("LFSR-D");
        let run = session
            .run(
                &mut *gen,
                &base
                    .clone()
                    .with_threads(threads)
                    .with_schedule(StageSchedule::with_boundaries(boundaries.clone())),
            )
            .expect("signature run");
        assert_eq!(run.signature, 0x5503, "threads={threads} boundaries={boundaries:?}");
        assert_eq!(run.missed(), 19, "threads={threads} boundaries={boundaries:?}");
        assert_eq!(run.artifact.aliased, 0, "threads={threads} boundaries={boundaries:?}");
    }
}
