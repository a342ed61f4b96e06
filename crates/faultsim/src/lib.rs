//! Single-stuck-at fault simulation for digital-filter datapaths.
//!
//! Reproduces the paper's experimental engine: adder faults (registers
//! excluded), a gate-level full-adder fault model with equivalence
//! collapsing, exact sequential-machine simulation, and detection by
//! direct output comparison ("we assume no aliasing in the response
//! analyzer").
//!
//! * [`FaultUniverse`] — enumerates collapsed stuck-at fault classes
//!   over the *active* full-adder cells of every adder/subtractor
//!   (active = not a redundant sign or hardwired-zero position, per the
//!   range analysis in [`rtl::range`]). The universe size is the
//!   "faults" column of the paper's Table 1.
//! * [`ParallelFaultSimulator`] — 63 faulty machines + 1 good machine
//!   per 64-lane pass, with the passes (shards) distributed across a
//!   worker-thread pool (see [`SimOptions`]), staged fault dropping and
//!   state-preserving repacking; records each fault's first detection
//!   cycle, so fault coverage curves (paper Figs. 10–13) and
//!   end-of-test missed-fault counts (Tables 4–6) come from a single
//!   run that is bit-identical at every thread count. In *signature
//!   mode* ([`SimOptions::with_signature`]) every lane additionally
//!   folds its output stream into a per-lane MISR, so the run also
//!   reports end-of-test signatures and the exact set of
//!   compare-detected faults that would escape a signature-only check
//!   ([`FaultSimResult::aliased`]).
//! * [`kernel`] — the execution engine: the netlist compiled once into
//!   a flat structure-of-arrays op tape ([`Tape`]) run by a
//!   straight-line machine ([`KernelSim`]). Tests hold it bit-identical
//!   to an unstaged graph-walker reference, selected with
//!   `SimOptions::with_engine(SimEngine::Walker)` ([`SimEngine`]).
//! * [`inject`] — functional simulation of one specific fault, used for
//!   the paper's Section 5 case study (Fig. 2: a missed fault's spike
//!   train on a sine response).
//! * [`report`] — missed-fault breakdowns by tap and cell position
//!   (the paper's Fig. 3 locates its case-study fault at tap 20, three
//!   bits below the MSB).
//!
//! # Example
//!
//! ```
//! use rtl::{NetlistBuilder, range::{RangeAnalysis, aligned_input_range}};
//! use bist_faultsim::{FaultUniverse, ParallelFaultSimulator};
//!
//! let mut b = NetlistBuilder::new(8)?;
//! let x = b.input("x");
//! let d = b.register(x);
//! let y = b.add(x, d);
//! b.output(y, "y");
//! let n = b.finish()?;
//!
//! let ranges = RangeAnalysis::analyze(&n, aligned_input_range(8, 8));
//! let universe = FaultUniverse::enumerate(&n, &ranges);
//! let inputs: Vec<i64> = (0..64).map(|i| (i * 37 % 255) - 127).collect();
//! let result = ParallelFaultSimulator::new(&n, &universe).run(&inputs);
//! assert!(result.detected_count() > universe.len() / 2);
//! # Ok::<(), rtl::RtlError>(())
//! ```

#![forbid(unsafe_code)]

mod fault;
mod sim;

pub mod census;
pub mod inject;
pub mod kernel;
pub mod report;

pub use fault::{FaultId, FaultSite, FaultUniverse};
pub use kernel::{KernelSim, OpKind, Tape};
pub use sim::{
    CancelToken, Cancelled, FaultSimResult, ParallelFaultSimulator, SignatureConfig, SignatureSet,
    SimEngine, SimOptions, StageSchedule,
};
