//! Golden snapshot of the SAT subsystem's certificates: the
//! equivalence-proof summary for every built-in design plus LP-MINI's
//! machine-checked redundant-fault list, byte for byte.
//!
//! These are the subsystem's externally meaningful claims — "this
//! netlist computes its behavioral model" and "these exact faults are
//! provably untestable" — so their content is pinned: any change to
//! the encoder, the behavioral normal form, the justifier's residue
//! verdicts, or the fault-collapsing order must re-bless this file and
//! be reviewed as a behavior change, not slip through as noise.
//!
//! Each redundancy proof also pins its search: the conflicts, decisions
//! and propagations the solver spent on it. A change that only speeds
//! the prover up must leave those counts alone; one that moves them
//! changes the search and must say so by re-blessing.
//!
//! Regenerate with `BLESS=1 cargo test -p bist-bench --test sat_golden`.

use atpg::Verdict;
use faultsim::{FaultUniverse, ParallelFaultSimulator};
use filters::FilterDesign;
use rtl::reachability::Reachability;
use std::fmt::Write as _;
use tpg::{Lfsr1, ShiftDirection, TestGenerator};

fn equiv_line(design: &FilterDesign) -> String {
    let report = sat::check_equivalence(design);
    format!(
        "equiv {} {} {} spec_terms {} ranges {} lemmas {} sim_steps {}",
        report.design,
        report.architecture,
        if report.proved { "proved" } else { "REFUTED" },
        report.spec_terms,
        report.range_obligations,
        report.lemmas_proved,
        report.sim_steps_checked,
    )
}

/// Renders the pinned pipeline: equivalence certificates for the four
/// designs, then LP-MINI's redundant-fault list — the faults of a
/// 256-vector Type 1 LFSR campaign's residue that the justifier calls
/// untestable, each re-proven UNSAT by the per-fault miter.
fn render_certificates() -> String {
    let mut out = String::new();
    let mut w = |line: String| writeln!(out, "{line}").expect("string write");
    w("# SAT certificates: equivalence proofs + LP-MINI redundant faults".into());
    for design in [
        filters::designs::lowpass_mini().expect("LP-MINI"),
        filters::designs::lowpass().expect("LP"),
        filters::designs::bandpass().expect("BP"),
        filters::designs::highpass().expect("HP"),
    ] {
        w(equiv_line(&design));
    }

    let design = filters::designs::lowpass_mini().expect("LP-MINI");
    let netlist = design.netlist();
    let input_bits = design.spec().input_bits;
    let reach = Reachability::analyze(netlist, input_bits);
    let universe = FaultUniverse::enumerate_pruned(netlist, design.claimed_ranges(), &reach);
    let mut lfsr = Lfsr1::new(input_bits, ShiftDirection::LsbToMsb).unwrap();
    let inputs: Vec<i64> = (0..256).map(|_| design.align_input(lfsr.next_word())).collect();
    let residue = ParallelFaultSimulator::new(netlist, &universe).run(&inputs).missed();
    let top = atpg::top_off(
        netlist,
        &universe,
        &residue,
        input_bits,
        &atpg::TopOffConfig { block_len: 64, max_seeds: 8 },
    );
    w(format!("# LP-MINI LFSR-1 @256 residue {}", residue.len()));
    for (id, verdict) in &top.verdicts {
        if !matches!(verdict, Verdict::Untestable) {
            continue;
        }
        let site = universe.site(*id);
        let spec = sat::FaultSpec { node: site.node, cell: site.cell, fault: site.representative };
        let outcome = sat::prove_faults(
            netlist,
            input_bits,
            &[spec],
            &sat::PruneConfig { max_conflicts: 100_000 },
        );
        let proof = match &outcome.verdicts[0].1 {
            sat::FaultVerdict::Redundant => "UNSAT".to_string(),
            sat::FaultVerdict::Detectable { witness } => panic!(
                "engine disagreement: justifier-untestable fault {} got a \
                 {}-step SAT witness",
                id.0,
                witness.len()
            ),
            sat::FaultVerdict::Unknown => "unknown".to_string(),
        };
        w(format!(
            "redundant {} {}[cell {}] {:?} s-a-{} proof {proof}",
            id.0,
            site.node,
            site.cell,
            site.representative.line,
            u8::from(site.representative.stuck_one),
        ));
        let stats = outcome.stats;
        w(format!(
            "search {} conflicts {} decisions {} propagations {}",
            id.0, stats.conflicts, stats.decisions, stats.propagations,
        ));
    }
    out
}

#[test]
fn equivalence_certificates_and_redundant_faults_are_byte_stable() {
    let actual = render_certificates();
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sat_certs.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {}: {e} (run with BLESS=1)", path.display())
    });
    assert_eq!(
        actual,
        expected,
        "the SAT certificate summary drifted from {}; re-bless with BLESS=1 \
         only if the encoder/justifier change is intentional",
        path.display()
    );
    // Every equivalence certificate in the snapshot is a *proof* —
    // a refutation must never be blessed.
    assert!(!actual.contains("REFUTED"));
    assert!(actual.contains("proof UNSAT"), "LP-MINI carries at least one UNSAT proof");
}
