//! Fault-simulation kernel work, recounted from outside the simulator.
//!
//! `ParallelFaultSimulator::try_run` packs each stage's surviving
//! faults, in id order, into shards of 63 (one good lane and 63 faulty
//! lanes per 64-bit word) and dispatches shards in groups of up to `W`
//! words. In trace mode a group stops after the cycle its last fault is
//! detected and only undetected faults survive a stage; in signature
//! mode every group plays every stage out. The stage schedule and the
//! run's per-fault detection cycles therefore fix the work exactly:
//! faulty-machine cycles simulated, lane slots paid for, and the
//! stage/shard/group counts the simulator reports itself — which
//! [`reconcile`] checks the recount against.

/// Faulty lanes per shard (a 64-lane word minus the good lane).
pub const LANES_PER_SHARD: usize = 63;

/// The dispatch-group width the kernel uses today; [`reconcile`] tries
/// it first.
const GROUP_WIDTH: usize = 16;

/// Kernel work of one or more runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Stages entered.
    pub stages: u64,
    /// 63-fault shards simulated, summed over stages.
    pub shards: u64,
    /// Dispatch groups (one multi-word machine each), summed over stages.
    pub groups: u64,
    /// Faulty-machine cycles simulated: lanes holding a fault × cycles.
    pub fault_cycles: u64,
    /// Faulty-lane cycles paid for: words × 63 × cycles.
    pub lane_cycles: u64,
}

impl Work {
    /// Share of the paid-for faulty lanes that held a fault.
    pub fn lane_fill(&self) -> f64 {
        if self.lane_cycles == 0 {
            0.0
        } else {
            self.fault_cycles as f64 / self.lane_cycles as f64
        }
    }

    /// Adds another run's work.
    pub fn add(&mut self, other: &Work) {
        self.stages += other.stages;
        self.shards += other.shards;
        self.groups += other.groups;
        self.fault_cycles += other.fault_cycles;
        self.lane_cycles += other.lane_cycles;
    }
}

/// Stage extents of a `total`-cycle test under repack `boundaries`.
fn stages(boundaries: &[u32], total: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut start = 0;
    for &b in boundaries.iter().filter(|&&b| b < total) {
        out.push((start, b));
        start = b;
    }
    if start < total {
        out.push((start, total));
    }
    out
}

/// Recounts the kernel work of one run from its detection cycles
/// (indexed by simulated fault id).
pub fn derive(
    boundaries: &[u32],
    detection: &[Option<u32>],
    total: u32,
    signature: bool,
    group_width: usize,
) -> Work {
    let mut work = Work::default();
    let mut active: Vec<usize> = (0..detection.len()).collect();
    for (start, end) in stages(boundaries, total) {
        if active.is_empty() {
            break;
        }
        work.stages += 1;
        let shards: Vec<&[usize]> = active.chunks(LANES_PER_SHARD).collect();
        work.shards += shards.len() as u64;
        for group in shards.chunks(group_width) {
            work.groups += 1;
            let faults: usize = group.iter().map(|s| s.len()).sum();
            // The cycle after the group's last detection, if every
            // fault in it is detected within this stage.
            let stop = group.iter().flat_map(|s| s.iter()).try_fold(start, |stop, &f| {
                detection[f].filter(|&c| c < end).map(|c| stop.max(c + 1))
            });
            let cycles = match stop {
                Some(stop) if !signature => stop - start,
                _ => end - start,
            };
            work.fault_cycles += u64::from(cycles) * faults as u64;
            work.lane_cycles += u64::from(cycles) * (group.len() * LANES_PER_SHARD) as u64;
        }
        if !signature {
            active.retain(|&f| detection[f].is_none_or(|c| c >= end));
        }
    }
    work
}

/// Recounts a run's work and checks it against the simulator's own
/// `[stages, shards, groups]` counters. The configured schedule and
/// today's group width are tried first; a single stage and the other
/// widths follow, so a simulator that drops signature-mode repack
/// points or regroups shards is still recounted rather than refused.
///
/// # Errors
///
/// When no derivation reproduces the counters.
pub fn reconcile(
    observed: [u64; 3],
    boundaries: &[u32],
    detection: &[Option<u32>],
    total: u32,
    signature: bool,
) -> Result<Work, String> {
    let widths = std::iter::once(GROUP_WIDTH).chain((1..=64).filter(|&w| w != GROUP_WIDTH));
    for schedule in [boundaries, &[]] {
        for width in widths.clone() {
            let work = derive(schedule, detection, total, signature, width);
            if [work.stages, work.shards, work.groups] == observed {
                return Ok(work);
            }
        }
    }
    Err(format!(
        "simulator counters stages/shards/groups = {observed:?} match no recount from the detection cycles"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_core::campaign::build_design;
    use bist_core::session::BistSession;
    use faultsim::{ParallelFaultSimulator, SignatureConfig, SimOptions, StageSchedule};
    use obs::Registry;
    use std::sync::Arc;

    #[test]
    fn derivation_counts_drops_and_early_exits() {
        // 130 faults: three shards, one group of width 16. Stage [0, 4):
        // faults 0..=99 detected at cycle 1, the rest survive.
        let mut detection = vec![None; 130];
        for d in detection.iter_mut().take(100) {
            *d = Some(1);
        }
        let work = derive(&[4], &detection, 10, false, 16);
        // Stage 1: 3 shards, one group of 130 faults, all 4 cycles (not
        // every fault is detected). Stage 2: 30 survivors, 6 cycles.
        assert_eq!((work.stages, work.shards, work.groups), (2, 4, 2));
        assert_eq!(work.fault_cycles, 130 * 4 + 30 * 6);
        assert_eq!(work.lane_cycles, 3 * 63 * 4 + 63 * 6);
        // Everything detected by cycle 1: the group stops after 2 cycles.
        let all = vec![Some(1); 130];
        let work = derive(&[4], &all, 10, false, 16);
        assert_eq!((work.stages, work.fault_cycles), (1, 130 * 2));
        // Signature mode keeps every fault for every cycle.
        let work = derive(&[4], &all, 10, true, 2);
        assert_eq!((work.stages, work.shards, work.groups), (2, 6, 4));
        assert_eq!(work.fault_cycles, 130 * 10);
        assert!((work.lane_fill() - 130.0 / 189.0).abs() < 1e-12);
    }

    #[test]
    fn recount_matches_the_simulators_counters() {
        let design = build_design("LP-MINI").unwrap();
        let session = BistSession::new(&design).unwrap();
        let inputs: Vec<i64> =
            (0..300).map(|i| design.align_input((i * 997 % 4095) - 2048)).collect();
        for signature in [false, true] {
            let registry = Arc::new(Registry::new());
            let mut options = SimOptions::new().with_threads(2).with_metrics(Arc::clone(&registry));
            if signature {
                options = options.with_signature(SignatureConfig { width: 16, poly: 0x100B });
            }
            let result = ParallelFaultSimulator::new(design.netlist(), session.universe())
                .with_options(options.with_schedule(StageSchedule::new()))
                .run(&inputs);
            let counters = registry.snapshot().counters;
            let observed = ["faultsim.stages", "faultsim.shards", "faultsim.groups"]
                .map(|name| counters.get(name).copied().unwrap_or(0));
            let work =
                reconcile(observed, &[64, 256, 1024], result.detection_cycles(), 300, signature)
                    .unwrap();
            assert_eq!(
                work,
                derive(&[64, 256, 1024], result.detection_cycles(), 300, signature, 16)
            );
            assert!(work.lane_fill() > 0.0 && work.lane_fill() <= 1.0);
        }
    }
}
