//! The traced replay: one campaign driven through each layer's public
//! entry point, in the order `BistSession::run` calls them, with a span
//! around every call. The layers themselves are not instrumented; the
//! replay times them from outside and must reach the untraced run's
//! verdict digest exactly.

use crate::digest::{cycles_hash, Digest, Partition};
use crate::kernel::{self, Work};
use crate::trace::{self, Span, Tracer};
use bist_core::campaign::CampaignSpec;
use bist_core::misr::Misr;
use bist_core::session::{BistSession, ResponseCheck};
use faultsim::{
    FaultId, FaultUniverse, ParallelFaultSimulator, SignatureConfig, SimEngine, SimOptions, Tape,
};
use obs::Registry;
use std::sync::Arc;

/// Counts and simulator-recorded times of one replay, or summed over a
/// traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Stage-boundary merge time the simulator recorded.
    pub merge_ms: f64,
    /// Faults handed to top-off.
    pub residue: usize,
    /// Faults handed to the SAT prover.
    pub sat_candidates: usize,
    /// SAT conflicts, prover and equivalence check together.
    pub sat_conflicts: u64,
    /// Faults the SAT prover proved redundant.
    pub sat_redundant: usize,
}

/// What one replay measured besides its spans.
#[derive(Debug)]
pub struct Replayed {
    /// The campaign's verdict digest.
    pub digest: Digest,
    /// The kernel work recount, or why it disagrees with the
    /// simulator's counters.
    pub work: Result<Work, String>,
    /// The replay's counts.
    pub counts: Counts,
}

/// Sums over the replays of one traced pass.
#[derive(Debug, Default)]
pub struct Totals {
    /// Recounted kernel work.
    pub work: Work,
    /// Summed counts.
    pub counts: Counts,
}

impl Totals {
    /// Adds one replay (its work only if the recount reconciled).
    pub fn add(&mut self, r: &Replayed) {
        if let Ok(work) = &r.work {
            self.work.add(work);
        }
        let (sum, c) = (&mut self.counts, &r.counts);
        sum.merge_ms += c.merge_ms;
        sum.residue += c.residue;
        sum.sat_candidates += c.sat_candidates;
        sum.sat_conflicts += c.sat_conflicts;
        sum.sat_redundant += c.sat_redundant;
    }

    /// The per-layer metrics of one traced pass: span times from
    /// `spans` (the pass's spans only) and counts from the totals.
    pub fn layer_metrics(&self, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let named = |name: &str| trace::total_ms(spans, |s| s.name == name);
        let counts = &self.counts;
        let sim_ms = named("faultsim.sim");
        let mcycles_per_s =
            if sim_ms > 0.0 { self.work.fault_cycles as f64 / (sim_ms * 1e3) } else { 0.0 };
        vec![
            ("core.session_self_ms", trace::self_ms(spans, |s| s.name == "core.campaign")),
            ("faultsim.sim_ms", sim_ms),
            ("faultsim.stage_ms", trace::total_ms(spans, |s| s.name.starts_with("faultsim.stage"))),
            ("faultsim.merge_ms", counts.merge_ms),
            ("faultsim.tape_compile_ms", named("faultsim.tape_compile")),
            ("faultsim.good_response_ms", named("faultsim.good_response")),
            ("faultsim.expand_ms", named("faultsim.expand")),
            ("faultsim.self_ms", trace::self_ms(spans, |s| s.layer() == "faultsim")),
            ("faultsim.fault_cycles", self.work.fault_cycles as f64),
            ("faultsim.mcycles_per_s", mcycles_per_s),
            ("faultsim.lane_fill", self.work.lane_fill()),
            ("faultsim.groups", self.work.groups as f64),
            ("faultsim.shards", self.work.shards as f64),
            ("faultsim.stages", self.work.stages as f64),
            ("structure.analyze_ms", named("structure.analyze")),
            ("atpg.screen_ms", named("atpg.screen")),
            ("atpg.top_off_ms", named("atpg.top_off")),
            ("atpg.residue", counts.residue as f64),
            ("sat.prove_ms", named("sat.prove")),
            ("sat.equiv_ms", named("sat.equiv")),
            ("sat.candidates", counts.sat_candidates as f64),
            ("sat.conflicts", counts.sat_conflicts as f64),
            ("sat.redundant", counts.sat_redundant as f64),
        ]
    }
}

/// The stage boundaries a spec runs under, read from its canonical
/// form (which spells the default schedule out).
fn boundaries(spec: &CampaignSpec) -> Vec<u32> {
    spec.canonical()
        .split(';')
        .find_map(|field| field.strip_prefix("schedule="))
        .map(|list| list.split(',').filter_map(|b| b.parse().ok()).collect())
        .unwrap_or_default()
}

/// The SAT encoder's handle for one fault class.
fn fault_spec(universe: &FaultUniverse, id: FaultId) -> sat::FaultSpec {
    let site = universe.site(id);
    sat::FaultSpec { node: site.node, cell: site.cell, fault: site.representative }
}

/// Replays `spec` on `session` under a `core.campaign` span.
///
/// # Errors
///
/// Construction failures (generator, MISR) and a cancelled simulation.
pub fn replay(
    t: &mut Tracer,
    session: &BistSession<'_>,
    spec: &CampaignSpec,
) -> Result<Replayed, String> {
    let design = session.design();
    let netlist = design.netlist();
    let input_bits = design.spec().input_bits;
    let config = spec.run_config(None);
    let mut generator = spec.build_generator().map_err(|e| e.to_string())?;
    let mut misr = Misr::new(config.misr_width()).map_err(|e| e.to_string())?;
    let prune = config.sat_prune().map(|s| sat::PruneConfig { max_conflicts: s.max_conflicts });
    let mut counts = Counts::default();

    t.span("core.campaign", |t| {
        let screen: Vec<FaultId> = if config.top_off().is_some() || prune.is_some() {
            t.leaf("atpg.screen", || {
                atpg::untestable_faults(netlist, session.universe(), input_bits)
            })
        } else {
            Vec::new()
        };

        let mut proven: Vec<FaultId> = Vec::new();
        if let (Some(scfg), Some(prune)) = (config.sat_prune(), &prune) {
            let specs: Vec<sat::FaultSpec> =
                screen.iter().map(|&id| fault_spec(session.universe(), id)).collect();
            let outcome =
                t.leaf("sat.prove", || sat::prove_faults(netlist, input_bits, &specs, prune));
            proven = screen
                .iter()
                .zip(&outcome.verdicts)
                .filter(|(_, (_, v))| matches!(v, sat::FaultVerdict::Redundant))
                .map(|(&id, _)| id)
                .collect();
            counts.sat_candidates += specs.len();
            counts.sat_redundant += outcome.redundant;
            counts.sat_conflicts += outcome.stats.conflicts;
            if scfg.equiv {
                let eq = t.leaf("sat.equiv", || sat::check_equivalence(design));
                counts.sat_conflicts += eq.stats.conflicts;
            }
        }

        // The session's universe filter, linear scan included, so the
        // replay's own time tracks the session's.
        let removed: &[FaultId] = if config.top_off().is_some() { &screen } else { &proven };
        let screened;
        let universe: &FaultUniverse = if removed.is_empty() {
            session.universe()
        } else {
            let keep: Vec<FaultId> = (0..session.universe().len() as u32)
                .map(FaultId)
                .filter(|id| !removed.contains(id))
                .collect();
            screened = session.universe().subset(&keep);
            &screened
        };

        let mut class_map = None;
        let collapsed;
        let sim_universe: &FaultUniverse = if config.collapse() {
            let analysis = t.leaf("structure.analyze", || structure::analyze(netlist, universe));
            collapsed = universe.subset(&analysis.collapsed.representatives);
            class_map = Some(analysis.collapsed.class_map);
            &collapsed
        } else {
            universe
        };

        generator.reset();
        let inputs: Vec<i64> =
            (0..config.vectors()).map(|_| design.align_input(generator.next_word())).collect();

        let registry = Arc::new(Registry::new());
        let mut options = SimOptions::new()
            .with_schedule(config.schedule().clone())
            .with_threads(config.threads())
            .with_engine(config.engine())
            .with_metrics(Arc::clone(&registry));
        let signature_mode = config.response_check() == ResponseCheck::Signature;
        if signature_mode {
            options = options
                .with_signature(SignatureConfig { width: misr.width(), poly: misr.poly_low() });
        }
        // `try_run` compiles the same tape internally; this separate
        // compile measures what that costs per run.
        if config.engine() == SimEngine::Kernel {
            std::hint::black_box(t.leaf("faultsim.tape_compile", || Tape::compile(netlist)));
        }
        let sim = t.open("faultsim.sim");
        let result = ParallelFaultSimulator::new(netlist, sim_universe)
            .with_options(options)
            .try_run(&inputs);
        t.close(sim);
        let result = result.map_err(|c| format!("simulation cancelled at cycle {}", c.at_cycle))?;
        let snapshot = registry.snapshot();
        t.adopt(sim, registry.start(), &snapshot.spans);

        let signature = match result.good_signature() {
            Some(sig) => sig,
            None => {
                let good = t.leaf("faultsim.good_response", || {
                    faultsim::inject::probe_node(netlist, design.output(), &inputs)
                });
                misr.absorb_all(&good);
                misr.signature()
            }
        };

        let mut partition = None;
        if let Some(tcfg) = config.top_off() {
            let top = t.leaf("atpg.top_off", || {
                atpg::top_off(netlist, sim_universe, &result.missed(), input_bits, tcfg)
            });
            let mut redundant = 0;
            if let Some(prune) = prune.as_ref().filter(|_| !top.unresolved.is_empty()) {
                let specs: Vec<sat::FaultSpec> =
                    top.unresolved.iter().map(|&id| fault_spec(sim_universe, id)).collect();
                let outcome =
                    t.leaf("sat.prove", || sat::prove_faults(netlist, input_bits, &specs, prune));
                redundant = outcome
                    .verdicts
                    .iter()
                    .filter(|(_, v)| matches!(v, sat::FaultVerdict::Redundant))
                    .count();
                counts.sat_candidates += specs.len();
                counts.sat_redundant += outcome.redundant;
                counts.sat_conflicts += outcome.stats.conflicts;
            }
            counts.residue = result.missed().len();
            partition = Some(Partition {
                residue: counts.residue,
                untestable: top.untestable.len(),
                detected: top.detected.len(),
                unresolved: top.unresolved.len() - redundant,
                redundant,
            });
        }

        let observed = ["faultsim.stages", "faultsim.shards", "faultsim.groups"]
            .map(|name| snapshot.counters.get(name).copied().unwrap_or(0));
        let work = kernel::reconcile(
            observed,
            &boundaries(spec),
            result.detection_cycles(),
            result.total_cycles(),
            signature_mode,
        );
        counts.merge_ms = snapshot.histograms.get("faultsim.merge_ms").map_or(0.0, |h| h.sum);

        let result = match &class_map {
            Some(map) => t.leaf("faultsim.expand", || result.expand_classes(map)),
            None => result,
        };
        let detected = result.detected_count();
        let digest = Digest {
            detected,
            missed: universe.len() - detected,
            aliased: result.aliased().len(),
            signature,
            topoff: partition,
            sat_redundant: config.sat_prune().map(|_| counts.sat_redundant),
            cycles: Some(cycles_hash(result.detection_cycles())),
        };
        Ok(Replayed { digest, work, counts })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_core::campaign::build_design;
    use bist_core::session::SatConfig;
    use bist_core::TopOffConfig;
    use std::time::Instant;

    #[test]
    fn schedule_boundaries_come_from_the_canonical_form() {
        assert_eq!(boundaries(&CampaignSpec::new("LP", "LFSR-D", 64)), vec![64, 256, 1024]);
        let custom =
            CampaignSpec { boundaries: Some(vec![8, 32]), ..CampaignSpec::new("LP", "LFSR-D", 64) };
        assert_eq!(boundaries(&custom), vec![8, 32]);
    }

    #[test]
    fn replay_reaches_the_session_digest_with_every_stage_on() {
        let design = build_design("LP-MINI").unwrap();
        let session = BistSession::new(&design).unwrap();
        for spec in [
            CampaignSpec::new("LP-MINI", "LFSR-1", 512)
                .with_topoff(TopOffConfig { block_len: 64, max_seeds: 4 })
                .with_sat(SatConfig { max_conflicts: 200, equiv: false })
                .with_collapse(true),
            CampaignSpec::new("LP-MINI", "Ramp", 256).with_mode(ResponseCheck::Signature),
        ] {
            let mut generator = spec.build_generator().unwrap();
            let run = session.run(&mut *generator, &spec.run_config(None)).unwrap();
            let mut tracer = Tracer::new(Instant::now());
            let replayed = replay(&mut tracer, &session, &spec).unwrap();
            assert_eq!(replayed.digest, Digest::of_run(&run), "{}", spec.canonical());
            let work = replayed.work.as_ref().unwrap();
            assert!(work.fault_cycles > 0);
            let roots: Vec<&str> = tracer
                .spans()
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(roots, vec!["core.campaign"]);
            assert!(tracer.spans().iter().any(|s| s.name.starts_with("faultsim.stage")));
        }
    }
}
