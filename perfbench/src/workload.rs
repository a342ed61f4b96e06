//! The named workloads and the campaigns the in-process ones run.

use crate::rng::Rng;
use bist_core::campaign::CampaignSpec;
use bist_core::session::{ResponseCheck, SatConfig};
use bist_core::TopOffConfig;

/// The Section 8 generators every grid workload sweeps.
const GENERATORS: [&str; 4] = ["LFSR-1", "LFSR-D", "LFSR-M", "Ramp"];

/// A named workload (see `perfbench/README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LP × LFSR-D, 4096 vectors, signature mode.
    SigLp,
    /// LP/BP/HP × four generators, 4096 vectors, trace mode.
    TraceGrid,
    /// LP-MINI × four generators with top-off, SAT and collapse, plus
    /// LP-CSA × LFSR-D with SAT and collapse.
    ProofTopoff,
    /// An in-process daemon serving a seeded LP-MINI request stream.
    DaemonMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::SigLp, Workload::TraceGrid, Workload::ProofTopoff, Workload::DaemonMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SigLp => "sig-lp",
            Workload::TraceGrid => "trace-grid",
            Workload::ProofTopoff => "proof-topoff",
            Workload::DaemonMix => "daemon-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaigns an in-process workload runs once per batch; empty
    /// for `daemon-mix`, whose requests come from a seeded stream.
    /// `threads: 0` lets each campaign use one simulation thread per
    /// core.
    pub fn cells(self) -> Vec<CampaignSpec> {
        match self {
            Workload::SigLp => {
                vec![CampaignSpec::new("LP", "LFSR-D", 4096).with_mode(ResponseCheck::Signature)]
            }
            Workload::TraceGrid => ["LP", "BP", "HP"]
                .into_iter()
                .flat_map(|design| GENERATORS.map(|g| CampaignSpec::new(design, g, 4096)))
                .collect(),
            Workload::ProofTopoff => {
                let mut cells: Vec<CampaignSpec> = GENERATORS
                    .map(|g| {
                        CampaignSpec::new("LP-MINI", g, 4096)
                            .with_topoff(TopOffConfig { block_len: 256, max_seeds: 16 })
                            .with_sat(SatConfig { max_conflicts: 2000, equiv: true })
                            .with_collapse(true)
                    })
                    .into();
                cells.push(
                    CampaignSpec::new("LP-CSA", "LFSR-D", 1024)
                        .with_sat(SatConfig { max_conflicts: 200, equiv: false })
                        .with_collapse(true),
                );
                cells
            }
            Workload::DaemonMix => Vec::new(),
        }
    }
}

/// The order batch `batch` runs its `n` cells in: a seeded shuffle, so
/// no cell always runs first, straight after set-up.
pub fn batch_order(seed: u64, batch: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed ^ batch.wrapping_mul(0xA076_1D64_78BD_642F)).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn batch_order_is_a_seeded_permutation() {
        let order = batch_order(7, 0, 12);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert_eq!(order, batch_order(7, 0, 12));
        assert_ne!(order, batch_order(8, 0, 12));
    }

    #[test]
    fn every_cell_validates() {
        for w in Workload::ALL {
            for cell in w.cells() {
                cell.validate().unwrap_or_else(|e| panic!("{}: {e}", cell.canonical()));
            }
        }
        assert_eq!(Workload::TraceGrid.cells().len(), 12);
        assert_eq!(Workload::ProofTopoff.cells().len(), 5);
    }
}
