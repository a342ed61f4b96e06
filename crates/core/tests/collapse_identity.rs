//! The load-bearing property of structural fault collapsing: a session
//! run with `collapse` on must be *byte-identical* to the plain run
//! over the full screened universe — same per-fault detection cycles,
//! same per-fault MISR signatures, same good signature, same coverage —
//! on every built-in filter in both response-check modes.
//!
//! It rests on one premise, checked here end to end: every raw member
//! line of a site, simulated as its own machine over the expanded
//! universe, gets exactly its site representative's detection cycle.
//!
//! The deterministic roster sweep below always runs. The randomized
//! (property-based) variant needs the `proptest` crate and is gated
//! behind the off-by-default `proptest` feature so the workspace
//! builds offline; see the workspace `Cargo.toml` for how to re-enable
//! it.

use bist_core::campaign::build_generator;
use bist_core::session::{BistRun, BistSession, ResponseCheck, RunConfig};
use filters::FilterDesign;

/// The satellite roster: the paper's three filters plus the gated mini
/// variant.
fn roster() -> Vec<FilterDesign> {
    let mut designs = filters::designs::paper_designs().expect("paper designs elaborate");
    designs.push(filters::designs::lowpass_mini().expect("LP-MINI elaborates"));
    designs
}

fn run(design: &FilterDesign, gen_name: &str, config: &RunConfig) -> BistRun {
    let session = BistSession::new(design).expect("session");
    let mut gen = build_generator(gen_name).expect("registry generator");
    session.run(&mut *gen, config).expect("12-bit roster runs")
}

/// Asserts the full byte-identity contract between a plain and a
/// collapsed run of the same cell.
fn assert_identical(plain: &BistRun, collapsed: &BistRun, cell: &str) {
    assert_eq!(
        plain.result.detection_cycles(),
        collapsed.result.detection_cycles(),
        "detection map diverged: {cell}"
    );
    assert_eq!(
        plain.result.signatures(),
        collapsed.result.signatures(),
        "per-fault signatures diverged: {cell}"
    );
    assert_eq!(plain.signature, collapsed.signature, "good signature diverged: {cell}");
    assert_eq!(plain.artifact.coverage, collapsed.artifact.coverage, "coverage: {cell}");
    assert_eq!(plain.artifact.detected, collapsed.artifact.detected, "detected: {cell}");
    assert_eq!(plain.artifact.missed, collapsed.artifact.missed, "missed: {cell}");
    assert_eq!(
        plain.artifact.total_faults, collapsed.artifact.total_faults,
        "universe size: {cell}"
    );
    assert_eq!(
        plain.artifact.missed_by_class, collapsed.artifact.missed_by_class,
        "difficult-test census: {cell}"
    );
}

/// Simulates every raw member line of the plain run's universe as its
/// own machine under the same inputs and asserts each one gets exactly
/// its site representative's detection cycle from the plain run.
fn assert_members_match_their_site(design: &FilterDesign, plain: &BistRun, cell: &str) {
    let session = BistSession::new(design).expect("session");
    let (raw, origin) = session.universe().expanded();
    let mut gen = build_generator("LFSR-D").expect("registry generator");
    gen.reset();
    let inputs: Vec<i64> =
        (0..plain.artifact.vectors).map(|_| design.align_input(gen.next_word())).collect();
    let raw_run = faultsim::ParallelFaultSimulator::new(design.netlist(), &raw).run(&inputs);
    let site_cycles = plain.result.detection_cycles();
    assert_eq!(raw.len(), session.universe().uncollapsed_len(), "raw universe size: {cell}");
    for (member, (&cycle, &site)) in raw_run.detection_cycles().iter().zip(&origin).enumerate() {
        assert_eq!(cycle, site_cycles[site as usize], "raw member {member} of site {site}: {cell}");
    }
}

#[test]
fn collapsed_runs_are_byte_identical_across_the_roster() {
    for design in &roster() {
        for mode in [ResponseCheck::Trace, ResponseCheck::Signature] {
            let config = RunConfig::new(192).with_response_check(mode);
            let plain = run(design, "LFSR-D", &config);
            let collapsed = run(design, "LFSR-D", &config.with_collapse(true));
            let cell = format!("{} x LFSR-D ({mode:?})", design.name());
            assert_identical(&plain, &collapsed, &cell);
            if mode == ResponseCheck::Trace {
                assert_members_match_their_site(design, &plain, &cell);
            }
            assert!(plain.artifact.collapse.is_none(), "plain runs carry no census: {cell}");
            let census =
                collapsed.artifact.collapse.as_ref().expect("collapse runs attach their census");
            assert!(
                census.classes_after < census.sites_before,
                "collapsing must shrink the simulated universe: {cell}"
            );
        }
    }
}

#[cfg(feature = "proptest")]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The roster is immutable; elaborate it once across all cases.
    fn shared_roster() -> &'static [FilterDesign] {
        static ROSTER: OnceLock<Vec<FilterDesign>> = OnceLock::new();
        ROSTER.get_or_init(roster)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn collapse_identity_holds_for_arbitrary_cells(
            design_idx in 0usize..4,
            gen_idx in 0usize..4,
            vectors in 16usize..160,
            threads in 1usize..4,
            signature_mode in proptest::bool::ANY,
        ) {
            let design = &shared_roster()[design_idx];
            let gen_name = ["LFSR-1", "LFSR-D", "LFSR-M", "Ramp"][gen_idx];
            let mode = if signature_mode {
                ResponseCheck::Signature
            } else {
                ResponseCheck::Trace
            };
            let config = RunConfig::new(vectors)
                .with_threads(threads)
                .with_response_check(mode);
            let plain = run(design, gen_name, &config);
            let collapsed = run(design, gen_name, &config.with_collapse(true));
            let cell = format!(
                "{} x {gen_name} @{vectors} ({mode:?}, {threads} thread(s))",
                design.name()
            );
            assert_identical(&plain, &collapsed, &cell);
        }
    }
}
