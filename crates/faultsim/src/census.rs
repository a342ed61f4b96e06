//! Activation census: how often does normal operation actually assert
//! the cell-level tests that detect each fault?
//!
//! The paper distinguishes *near-redundant* faults — activated only by
//! inputs "that would never occur under normal operating conditions" —
//! from merely *difficult* ones, and proposes excluding the former from
//! the fault universe when input statistics are known. This module
//! measures exactly that: drive the fault-free machine with a
//! representative operating signal and count, per fault, the cycles in
//! which the faulty cell sees one of its detecting input combinations.

use crate::fault::{FaultId, FaultUniverse};
use rtl::eval::cell_combos;
use rtl::sim::BitSlicedSim;
use rtl::{Netlist, NodeId};
use std::collections::BTreeMap;

/// Per-fault activation counts over a stimulus.
#[derive(Debug, Clone)]
pub struct ActivationCensus {
    counts: Vec<u64>,
    cycles: u64,
}

impl ActivationCensus {
    /// Cycles in which fault `id`'s cell saw a detecting combination.
    pub fn count(&self, id: FaultId) -> u64 {
        self.counts[id.index()]
    }

    /// Stimulus length.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Empirical per-vector activation probability of a fault.
    pub fn probability(&self, id: FaultId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.count(id) as f64 / self.cycles as f64
        }
    }

    /// Ids (from `ids`) never activated by the stimulus — the
    /// near-redundant candidates at this stimulus length's resolution.
    pub fn never_activated<'a>(&'a self, ids: &'a [FaultId]) -> impl Iterator<Item = FaultId> + 'a {
        ids.iter().copied().filter(move |&id| self.count(id) == 0)
    }
}

/// Runs the fault-free machine over `inputs` and counts, for every
/// fault in `ids`, the cycles in which the fault's cell input
/// combination is one of its detecting tests.
pub fn activation_census(
    netlist: &Netlist,
    universe: &FaultUniverse,
    ids: &[FaultId],
    inputs: &[i64],
) -> ActivationCensus {
    // Group the watched faults per node to ripple each node's cells
    // once per cycle.
    let mut watch: BTreeMap<NodeId, Vec<(u32, u8, FaultId)>> = BTreeMap::new();
    for &id in ids {
        let site = universe.site(id);
        watch.entry(site.node).or_default().push((site.cell, site.detecting_tests, id));
    }

    let mut counts = vec![0u64; universe.len()];
    let mut sim = BitSlicedSim::new(netlist);
    let q = netlist.format();
    // The fault-free machine's words (lane 0) at the watched operands.
    let mut values = vec![0i64; netlist.nodes().len()];
    for &x in inputs {
        sim.step(x);
        for (&node, sites) in &watch {
            let kind = netlist.node(node).kind;
            for op in kind.operands() {
                values[op.index()] = sim.lane_value(op, 0);
            }
            let combos = cell_combos(q, kind, &values);
            for &(cell, tests, id) in sites {
                if tests & (1 << combos[cell as usize]) != 0 {
                    counts[id.index()] += 1;
                }
            }
        }
    }
    ActivationCensus { counts, cycles: inputs.len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ParallelFaultSimulator, StageSchedule};
    use rtl::range::{aligned_input_range, RangeAnalysis};
    use rtl::NetlistBuilder;

    fn setup() -> (rtl::Netlist, FaultUniverse) {
        let mut b = NetlistBuilder::new(10).unwrap();
        let x = b.input("x");
        let d = b.register(x);
        let s = b.shift_right(d, 2);
        let y = b.add_labeled(x, s, "acc");
        b.output(y, "y");
        let n = b.finish().unwrap();
        let r = RangeAnalysis::analyze(&n, aligned_input_range(10, 10));
        let u = FaultUniverse::enumerate(&n, &r);
        (n, u)
    }

    fn noise(n: usize) -> Vec<i64> {
        let mut rng = testkit::Rng::new(0xBEEF);
        (0..n).map(|_| rng.signed(10)).collect()
    }

    #[test]
    fn detected_faults_are_activated() {
        // A fault detected by simulation must have been activated at
        // least once by the same stimulus.
        let (n, u) = setup();
        let inputs = noise(200);
        let ids: Vec<FaultId> = u.ids().collect();
        let census = activation_census(&n, &u, &ids, &inputs);
        let result = ParallelFaultSimulator::new(&n, &u)
            .with_schedule(StageSchedule::with_boundaries(vec![]))
            .run(&inputs);
        for id in u.ids() {
            if result.detection_cycles()[id.index()].is_some() {
                assert!(census.count(id) > 0, "detected but never activated: {}", u.site(id));
            }
        }
    }

    #[test]
    fn zero_stimulus_activates_nothing_much() {
        let (n, u) = setup();
        let ids: Vec<FaultId> = u.ids().collect();
        let census = activation_census(&n, &u, &ids, &vec![0i64; 32]);
        // With an all-zero input every adder cell sits at combo 000, so
        // only faults detectable by T0 are "activated".
        for id in u.ids() {
            let site = u.site(id);
            if site.detecting_tests & 1 == 0 {
                assert_eq!(census.count(id), 0, "{}", site);
            }
        }
        assert_eq!(census.cycles(), 32);
    }

    #[test]
    fn probability_and_never_activated_are_consistent() {
        let (n, u) = setup();
        let inputs = noise(100);
        let ids: Vec<FaultId> = u.ids().collect();
        let census = activation_census(&n, &u, &ids, &inputs);
        let never: Vec<FaultId> = census.never_activated(&ids).collect();
        for id in &ids {
            if never.contains(id) {
                assert_eq!(census.probability(*id), 0.0);
            } else {
                assert!(census.probability(*id) > 0.0);
            }
        }
    }
}
