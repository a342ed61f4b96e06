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
//! The deterministic roster sweep runs first, then [`CASES`] seeded
//! random cells over design × generator × test length × threads ×
//! response check, drawn with `testkit::Rng`. A failure names its
//! seed, and `BIST_RANDOM_SEED=<seed>` replays just that cell.

use bist_core::campaign::{build_generator, shared_session};
use bist_core::session::{BistRun, BistSession, ResponseCheck, RunConfig};
use filters::FilterDesign;
use testkit::{for_each_seed, Rng};

/// The satellite roster: the paper's three filters plus the gated mini
/// variant.
fn roster() -> Vec<FilterDesign> {
    let mut designs = filters::designs::paper_designs().expect("paper designs elaborate");
    designs.push(filters::designs::lowpass_mini().expect("LP-MINI elaborates"));
    designs
}

fn run(design: &FilterDesign, gen_name: &str, config: &RunConfig) -> BistRun {
    run_on(&BistSession::new(design).expect("session"), gen_name, config)
}

fn run_on(session: &BistSession<'_>, gen_name: &str, config: &RunConfig) -> BistRun {
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

/// Seeded random cells per run.
const CASES: u64 = 12;

/// Checks one seeded random cell: a roster design (on its shared
/// session), one of four generators, 16..160 vectors, 1..4 threads,
/// either response check.
fn check_cell(seed: u64) {
    let mut rng = Rng::new(seed);
    let name = ["LP", "BP", "HP", "LP-MINI"][rng.range(0, 4)];
    let session = shared_session(name).expect("registry design");
    let gen_name = ["LFSR-1", "LFSR-D", "LFSR-M", "Ramp"][rng.range(0, 4)];
    let vectors = rng.range(16, 160);
    let threads = rng.range(1, 4);
    let mode =
        if rng.next_u64() & 1 == 1 { ResponseCheck::Signature } else { ResponseCheck::Trace };
    let config = RunConfig::new(vectors).with_threads(threads).with_response_check(mode);
    let plain = run_on(session, gen_name, &config);
    let collapsed = run_on(session, gen_name, &config.with_collapse(true));
    let cell = format!("{name} x {gen_name} @{vectors} ({mode:?}, {threads} thread(s))");
    assert_identical(&plain, &collapsed, &cell);
}

#[test]
fn collapse_identity_holds_for_random_cells() {
    for_each_seed(0xC011_0000, CASES, check_cell);
}
