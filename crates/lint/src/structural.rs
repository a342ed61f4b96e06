//! `L7xx` — structural-analysis lints.
//!
//! Previews the collapse stage statically and cross-validates the
//! `L1xx` testability *heuristics* against SCOAP-*exact* observability
//! ranks. Emitted only when the spec enables structural collapsing
//! (specs without `collapse` produce no `L7xx` diagnostics at all):
//!
//! * `L701` *info* — collapse census: raw stuck-at lines, screened
//!   sites, equivalence classes, prime (non-dominated) classes and the
//!   raw-universe reduction ratio the stage will achieve at run time.
//! * `L702` *info* — SCOAP summary (worst controllability and
//!   observability over the cell sum gates) plus an agreement census:
//!   how many of the SCOAP-hardest-to-observe nodes the `L1xx`
//!   predictors already flagged.
//! * `L703` *warn* — a node in the SCOAP-hardest tier was flagged by
//!   *no* `L1xx` pass: the variance predictors disagree with the exact
//!   dataflow ranks there, so its faults may be harder than predicted.

use std::collections::BTreeSet;

use bist_core::campaign::CampaignSpec;
use bist_core::BistSession;
use obs::{Diagnostic, Location, Severity};
use structure::SCOAP_INF;

use crate::testability;

/// How many of the hardest-to-observe nodes the cross-validation
/// compares against the `L1xx` labels. Small and fixed so the pass
/// stays deterministic and the warning volume bounded.
const HARDEST_TIER: usize = 3;

/// Runs the structural-analysis pass over the design and universe of
/// `session`. No-op for specs without the collapse stage.
pub fn lint_structure(session: &BistSession<'_>, spec: &CampaignSpec) -> Vec<Diagnostic> {
    if !spec.collapse {
        return Vec::new();
    }
    let design = session.design();
    let netlist = design.netlist();
    let analysis = structure::analyze(netlist, session.universe());
    let r = &analysis.report;
    let mut out = vec![Diagnostic::new(
        "L701",
        Severity::Info,
        Location::Field { name: "collapse".into() },
        format!(
            "structural collapse enabled: {} raw stuck-at line(s) -> {} screened \
             site(s) -> {} equivalence class(es) ({} prime after the dominance \
             census); the run will simulate {:.1}% fewer machines than the raw \
             universe",
            r.raw_lines,
            r.sites_before,
            r.classes_after,
            r.prime_classes,
            100.0 * r.reduction_vs_raw()
        ),
    )];

    // Node labels the L1xx predictors flagged for this pairing.
    let flagged: BTreeSet<String> = testability::lint_headroom(design)
        .into_iter()
        .chain(testability::lint_variance_mismatch(design, &spec.generator))
        .filter_map(|d| match d.location {
            Location::Node { label, .. } => Some(label),
            _ => None,
        })
        .collect();

    // The SCOAP-hardest tier: the nodes whose worst cell observability
    // ranks highest (hardest to observe), ties broken by node id for
    // determinism. Unobservable cells are screened away upstream, so
    // they are excluded from the rank.
    let mut ranked: Vec<(rtl::NodeId, u32)> = analysis
        .worst_node_observability(netlist)
        .into_iter()
        .filter(|&(_, co)| co > 0 && co < SCOAP_INF)
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
    ranked.truncate(HARDEST_TIER);

    let label_of = |id: rtl::NodeId| {
        let label = &netlist.node(id).label;
        if label.is_empty() {
            id.to_string()
        } else {
            label.clone()
        }
    };
    let agreed = ranked.iter().filter(|&&(id, _)| flagged.contains(&label_of(id))).count();
    out.push(Diagnostic::new(
        "L702",
        Severity::Info,
        Location::Field { name: "collapse".into() },
        format!(
            "SCOAP ranks (cell sum gates): worst CC0 {}, worst CC1 {}, worst \
             observability {}; {agreed} of the {} hardest-to-observe node(s) \
             also flagged by the L1xx predictors",
            r.scoap.max_cc0,
            r.scoap.max_cc1,
            r.scoap.max_co,
            ranked.len()
        ),
    ));
    for (id, co) in ranked {
        let label = label_of(id);
        if flagged.contains(&label) {
            continue;
        }
        out.push(Diagnostic::new(
            "L703",
            Severity::Warn,
            Location::Node { label, cell: None },
            format!(
                "SCOAP ranks this node among the {HARDEST_TIER} hardest to observe \
                 (observability {co}) but no L1xx pass flagged it: the variance \
                 predictors disagree with the exact dataflow ranks here"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> &'static BistSession<'static> {
        bist_core::campaign::shared_session("LP-MINI").unwrap()
    }

    #[test]
    fn specs_without_the_stage_emit_nothing() {
        let spec = CampaignSpec::new("LP-MINI", "LFSR-D", 4096);
        assert!(lint_structure(mini(), &spec).is_empty());
    }

    #[test]
    fn collapse_specs_carry_the_census_and_scoap_summary() {
        let spec = CampaignSpec::new("LP-MINI", "LFSR-D", 4096).with_collapse(true);
        let diags = lint_structure(mini(), &spec);
        assert!(diags.len() >= 2, "{diags:?}");
        assert_eq!(diags[0].code, "L701");
        assert_eq!(diags[0].severity, Severity::Info);
        assert!(diags[0].message.contains("raw stuck-at line(s)"), "{}", diags[0]);
        assert!(diags[0].message.contains("fewer machines"), "{}", diags[0]);
        assert_eq!(diags[1].code, "L702");
        assert!(diags[1].message.contains("worst observability"), "{}", diags[1]);
        for d in &diags[2..] {
            assert_eq!(d.code, "L703");
            assert_eq!(d.severity, Severity::Warn);
            assert!(matches!(d.location, Location::Node { .. }), "{d}");
        }
    }

    #[test]
    fn the_pass_is_deterministic() {
        let spec = CampaignSpec::new("LP-MINI", "LFSR-D", 4096).with_collapse(true);
        assert_eq!(lint_structure(mini(), &spec), lint_structure(mini(), &spec));
    }
}
