//! The serial reference the faultsim suites hold the parallel
//! simulator to: every fault simulated as its own machine, one at a
//! time, on the walker, with scalar MISRs.

use bist_faultsim::{FaultUniverse, SignatureConfig};
use rtl::misr::Misr;
use rtl::sim::{BitSlicedSim, CellFault};
use rtl::Netlist;

/// What one-fault-at-a-time simulation observes.
pub struct Serial {
    /// Each fault's first detection cycle, by fault index.
    pub detection: Vec<Option<u32>>,
    /// Each fault's end-of-test signature, by fault index.
    pub signatures: Vec<u64>,
    /// The fault-free machine's end-of-test signature.
    pub good: u64,
}

/// Simulates the fault-free machine and then each fault of `universe`
/// alone on lane 1 of its own walker, feeding every output word to a
/// scalar MISR built from `cfg`.
pub fn serial_reference(
    netlist: &Netlist,
    universe: &FaultUniverse,
    inputs: &[i64],
    cfg: SignatureConfig,
) -> Serial {
    let outputs = netlist.output_ids();
    let misr = || Misr::with_polynomial(cfg.width, cfg.poly).expect("valid width");
    let mut good = misr();
    let mut sim = BitSlicedSim::new(netlist);
    for &x in inputs {
        sim.step(x);
        for &out in &outputs {
            good.absorb(sim.lane_value(out, 0));
        }
    }
    let mut detection = Vec::new();
    let mut signatures = Vec::new();
    for fid in universe.ids() {
        let site = universe.site(fid);
        let mut sim = BitSlicedSim::new(netlist);
        let fault = CellFault { cell: site.cell, fault: site.representative, lanes: 2 };
        sim.set_faults(site.node, vec![fault]);
        let mut misr = misr();
        let mut detected = None;
        for (cycle, &x) in inputs.iter().enumerate() {
            sim.step(x);
            for &out in &outputs {
                misr.absorb(sim.lane_value(out, 1));
            }
            if detected.is_none() && sim.output_diff_lanes(0) & 2 != 0 {
                detected = Some(cycle as u32);
            }
        }
        detection.push(detected);
        signatures.push(misr.signature());
    }
    Serial { detection, signatures, good: good.signature() }
}
