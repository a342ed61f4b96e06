//! `L6xx` — SAT proof stage lints.
//!
//! Cross-validates the `L1xx` testability *predictions* against
//! SAT-*exact* redundancy labels. The variance predictors flag nodes
//! where hard faults are likely; the miter proves, per fault, whether
//! a fault is redundant (UNSAT) or detectable (a concrete witness).
//! Emitted only when the spec enables the proof stage (specs without
//! `sat` produce no `L6xx` diagnostics at all):
//!
//! * `L601` *info* — the stage is enabled: records the conflict
//!   budget, whether an equivalence certificate is requested, and how
//!   many screen candidates the miter will be handed at run time.
//! * `L602` *info* — cross-validation census over a bounded sample of
//!   candidates: how many were proven redundant / detectable / left
//!   over budget, and how many of the redundancy proofs land on nodes
//!   the `L1xx` predictors already flagged.
//! * `L603` *warn* — a SAT-proven-redundant fault sits on a node *no*
//!   `L1xx` pass flagged: an exact, machine-checked blind spot in the
//!   variance predictor's model of the design.

use std::collections::BTreeSet;

use bist_core::campaign::CampaignSpec;
use bist_core::BistSession;
use obs::{Diagnostic, Location, Severity};
use rtl::{Netlist, NodeId};

use crate::testability;

/// Cap on the candidates actually proven during admission. Keeps the
/// pass interactive even on designs whose screen sheds hundreds of
/// faults (a symmetric-architecture LP sheds close to a thousand);
/// the run-time stage proves the full set.
const SAMPLE_CAP: usize = 16;

fn node_label(netlist: &Netlist, id: NodeId) -> String {
    let label = &netlist.node(id).label;
    if label.is_empty() {
        id.to_string()
    } else {
        label.clone()
    }
}

/// Runs the SAT proof-stage pass over the design of `session`, whose
/// justifier screens the candidates exactly as the run will. No-op for
/// specs without the stage.
pub fn lint_satcheck(session: &BistSession<'_>, spec: &CampaignSpec) -> Vec<Diagnostic> {
    let Some(cfg) = &spec.sat else {
        return Vec::new();
    };
    let design = session.design();
    let netlist = design.netlist();
    let candidates = session.justifier().untestable(session.universe());
    let mut out = vec![Diagnostic::new(
        "L601",
        Severity::Info,
        Location::Field { name: "sat".into() },
        format!(
            "SAT proof stage enabled (max_conflicts {}, equivalence certificate {}): \
             {} screen candidate(s) will be handed to the per-fault miter for an \
             exact redundant/detectable verdict",
            cfg.max_conflicts,
            if cfg.equiv { "on" } else { "off" },
            candidates.len()
        ),
    )];
    if candidates.is_empty() {
        return out;
    }

    let sample: Vec<sat::FaultSpec> = candidates
        .iter()
        .take(SAMPLE_CAP)
        .map(|&id| {
            let site = session.universe().site(id);
            sat::FaultSpec { node: site.node, cell: site.cell, fault: site.representative }
        })
        .collect();
    let outcome = sat::prove_faults(
        netlist,
        design.spec().input_bits,
        &sample,
        &sat::PruneConfig { max_conflicts: cfg.max_conflicts },
    );

    // Node labels the L1xx predictors flagged for this pairing.
    let flagged: BTreeSet<String> = testability::lint_headroom(design)
        .into_iter()
        .chain(testability::lint_variance_mismatch(design, &spec.generator))
        .filter_map(|d| match d.location {
            Location::Node { label, .. } => Some(label),
            _ => None,
        })
        .collect();

    let mut on_flagged = 0usize;
    let mut blind: Vec<(String, &sat::FaultSpec)> = Vec::new();
    for (fault, verdict) in &outcome.verdicts {
        if !matches!(verdict, sat::FaultVerdict::Redundant) {
            continue;
        }
        let label = node_label(netlist, fault.node);
        if flagged.contains(&label) {
            on_flagged += 1;
        } else {
            blind.push((label, fault));
        }
    }
    out.push(Diagnostic::new(
        "L602",
        Severity::Info,
        Location::Field { name: "sat".into() },
        format!(
            "cross-validation sample: {} of {} candidate(s) proven redundant \
             ({} detectable, {} over budget); {on_flagged} redundancy proof(s) \
             land on nodes the L1xx predictors already flagged",
            outcome.redundant,
            sample.len(),
            outcome.detectable,
            outcome.unknown
        ),
    ));
    for (label, fault) in blind {
        out.push(Diagnostic::new(
            "L603",
            Severity::Warn,
            Location::Node { label, cell: Some(fault.cell) },
            format!(
                "SAT-proven-redundant fault ({:?} stuck-at-{}) on a node no L1xx \
                 pass flagged: the variance predictors have a machine-checked \
                 blind spot here",
                fault.fault.line,
                u8::from(fault.fault.stuck_one)
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_core::SatConfig;

    fn mini() -> &'static BistSession<'static> {
        bist_core::campaign::shared_session("LP-MINI").unwrap()
    }

    fn small_sym() -> filters::FilterDesign {
        filters::FilterDesign::elaborate_full(
            filters::FilterSpec {
                name: "T-SYM".into(),
                band: dsp::firdesign::BandKind::Lowpass { cutoff: 0.15 },
                taps: 12,
                input_bits: 12,
                coef_frac_bits: 14,
                max_csd_digits: 3,
                width: 16,
                kaiser_beta: 4.0,
            },
            filters::ScalingPolicy::WorstCase,
            filters::Architecture::Symmetric,
        )
        .unwrap()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<String> {
        diags.iter().map(|d| d.code.clone()).collect()
    }

    #[test]
    fn specs_without_the_stage_emit_nothing() {
        let spec = CampaignSpec::new("LP-MINI", "LFSR-D", 4096);
        assert!(lint_satcheck(mini(), &spec).is_empty());
    }

    #[test]
    fn candidate_free_designs_report_only_the_census() {
        // LP-MINI's reachability-pruned universe has no screen
        // candidates: the stage is a no-op the L601 census records.
        let spec = CampaignSpec::new("LP-MINI", "LFSR-D", 4096)
            .with_sat(SatConfig { max_conflicts: 500, equiv: true });
        let diags = lint_satcheck(mini(), &spec);
        assert_eq!(codes(&diags), ["L601"]);
        assert_eq!(diags[0].severity, Severity::Info);
        assert!(diags[0].message.contains("0 screen candidate(s)"), "{}", diags[0]);
        assert!(diags[0].message.contains("max_conflicts 500"), "{}", diags[0]);
    }

    #[test]
    fn l601_counts_the_candidates_of_the_sessions_own_screen() {
        let d = small_sym();
        let session = BistSession::new(&d).unwrap();
        let spec = CampaignSpec::new("LP", "LFSR-D", 4096)
            .with_sat(SatConfig { max_conflicts: 1, equiv: false });
        let diags = lint_satcheck(&session, &spec);
        let screened = session.justifier().untestable(session.universe()).len();
        assert!(screened > 0, "the symmetric design has screen candidates");
        assert_eq!(diags[0].code, "L601");
        let count = format!("): {screened} screen candidate(s)");
        assert!(diags[0].message.contains(&count), "{}", diags[0]);
    }

    #[test]
    fn redundant_proofs_are_cross_validated_against_the_l1xx_labels() {
        // The symmetric architecture's tap-sharing adders carry
        // screen candidates; the miter proves the sample redundant
        // and the census compares the proofs to the L1xx node set.
        let d = small_sym();
        let session = BistSession::new(&d).unwrap();
        let spec = CampaignSpec::new("LP", "LFSR-D", 4096)
            .with_sat(SatConfig { max_conflicts: 2_000, equiv: false });
        let diags = lint_satcheck(&session, &spec);
        assert!(diags.len() >= 2, "{diags:?}");
        assert_eq!(diags[0].code, "L601");
        assert_eq!(diags[1].code, "L602");
        assert!(!diags[1].message.starts_with("cross-validation sample: 0 of"), "{}", diags[1]);
        for d in &diags[2..] {
            assert_eq!(d.code, "L603");
            assert_eq!(d.severity, Severity::Warn);
            assert!(matches!(d.location, Location::Node { .. }), "{d}");
        }
    }
}
