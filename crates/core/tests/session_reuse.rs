//! A session builds its design-invariant tables (the ATPG justifier
//! with its witness table and chain-engine memos, and the SAT
//! equivalence certificate) once and reuses them on every later run.
//! That must be invisible in the results: a run on a session that has
//! already served other campaigns, in any order and from any thread,
//! must equal the same run on a fresh session, field for field, except
//! for wall-clock stage timings.

use bist_core::campaign::{build_design, shared_session, CampaignSpec};
use bist_core::session::{BistRun, BistSession, SatConfig};
use bist_core::TopOffConfig;
use std::sync::Barrier;

/// The four LP-MINI cells of the `proof-topoff` benchmark workload:
/// top-off, SAT pruning with the equivalence certificate, and collapse.
fn proof_topoff_cells() -> Vec<CampaignSpec> {
    ["LFSR-1", "LFSR-D", "LFSR-M", "Ramp"]
        .into_iter()
        .map(|g| {
            CampaignSpec::new("LP-MINI", g, 4096)
                .with_topoff(TopOffConfig { block_len: 256, max_seeds: 16 })
                .with_sat(SatConfig { max_conflicts: 2000, equiv: true })
                .with_collapse(true)
        })
        .collect()
}

fn run_on(session: &BistSession<'_>, spec: &CampaignSpec) -> BistRun {
    let mut generator = spec.build_generator().expect("registry generator");
    session.run(&mut *generator, &spec.run_config(None)).expect("proof-topoff cells run")
}

/// Asserts two runs of `spec` agree on the fault-simulation result, the
/// signature and every artifact field but the stage timings.
fn assert_same_run(a: &BistRun, b: &BistRun, spec: &CampaignSpec) {
    let cell = spec.canonical();
    assert_eq!(a.result.detection_cycles(), b.result.detection_cycles(), "{cell}");
    assert_eq!(a.result.signatures(), b.result.signatures(), "{cell}");
    assert_eq!(a.signature, b.signature, "{cell}");
    let untimed = |run: &BistRun| {
        let mut artifact = run.artifact.clone();
        for stage in &mut artifact.stages {
            stage.millis = 0.0;
        }
        artifact.to_json().to_json()
    };
    assert_eq!(untimed(a), untimed(b), "{cell}");
}

#[test]
fn a_reused_session_matches_fresh_sessions_in_either_order() {
    let design = build_design("LP-MINI").expect("LP-MINI elaborates");
    let cells = proof_topoff_cells();
    let fresh: Vec<BistRun> = cells
        .iter()
        .map(|spec| run_on(&BistSession::new(&design).expect("session"), spec))
        .collect();
    let session = BistSession::new(&design).expect("session");
    let forward = cells.iter().enumerate();
    for (i, spec) in forward.clone().chain(forward.rev()) {
        assert_same_run(&run_on(&session, spec), &fresh[i], spec);
    }
    let topoff = fresh[0].artifact.topoff.as_ref().expect("top-off report");
    assert!(topoff.residue > 0, "the cells must exercise the justifier");
}

#[test]
fn two_threads_share_the_registry_session() {
    let design = build_design("LP-MINI").expect("LP-MINI elaborates");
    let cells = proof_topoff_cells();
    let serial: Vec<BistRun> = cells
        .iter()
        .map(|spec| run_on(&BistSession::new(&design).expect("session"), spec))
        .collect();
    let session = shared_session("LP-MINI").expect("registry design");
    assert!(std::ptr::eq(session, shared_session("LP-MINI").unwrap()), "one session per design");
    // The threads start together, on a session whose lazy tables no
    // run has built yet, and visit the cells in opposite orders.
    let start = Barrier::new(2);
    let run_all = |order: &[&CampaignSpec]| {
        start.wait();
        order.iter().map(|spec| run_on(session, spec)).collect::<Vec<_>>()
    };
    let (forward, backward) = std::thread::scope(|scope| {
        let forward = scope.spawn(|| run_all(&cells.iter().collect::<Vec<_>>()));
        let backward = scope.spawn(|| run_all(&cells.iter().rev().collect::<Vec<_>>()));
        (forward.join().expect("forward thread"), backward.join().expect("backward thread"))
    });
    for (i, spec) in cells.iter().enumerate() {
        assert_same_run(&forward[i], &serial[i], spec);
        assert_same_run(&backward[cells.len() - 1 - i], &serial[i], spec);
    }
}

#[test]
fn unknown_names_have_no_shared_session() {
    assert!(shared_session("bogus").is_err());
    for name in bist_core::campaign::KNOWN_DESIGNS {
        assert_eq!(shared_session(name).expect("registry design").design().name(), name);
    }
}
