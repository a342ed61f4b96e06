//! Structural register-transfer-level model of high-performance digital
//! filter datapaths, plus a bit-sliced gate-level simulator.
//!
//! The paper's circuits-under-test are "networks of registers, adders,
//! subtractors, fixed-shift, and sign-extension operators" in which every
//! adder is a ripple-carry chain of full-adder cells (its Section 3).
//! This crate models exactly that:
//!
//! * [`Netlist`] / [`NetlistBuilder`] — a DAG of [`NodeKind`] operators on
//!   a fixed-width two's-complement datapath.
//! * [`range`] — value-range (conservative L1 scaling) and LSB-granularity
//!   analysis; identifies the *active* full-adder cells of every adder,
//!   i.e. those that are not redundant sign or known-zero positions.
//!   This mirrors the paper's "scaling techniques to identify and remove
//!   redundant sign bits".
//! * [`fulladder`] — the 5-gate full-adder decomposition, its stuck-at
//!   fault universe, truth-table equivalence collapsing, and the mapping
//!   from cell-level faults to the eight I/O tests `T0..T7` of the
//!   paper's Section 4.1.
//! * [`eval`] — the word-level semantics, written once: a combinational
//!   node's word from its operand words, each full-adder cell's input
//!   combination, and the plain scalar simulator built on both. Every
//!   scalar analysis (reachability here, the top-off layers in
//!   `bist-atpg`, the activation census in `bist-faultsim`) uses them.
//! * [`sim`] — a 64-lane bit-sliced simulator: one good machine plus up
//!   to 63 faulty machines evaluated word-parallel, with faults injected
//!   at full-adder gate granularity. This is the engine behind the
//!   fault-simulation experiments (paper Tables 4–6, Figs. 10–13).
//! * [`linear`] — exact linear (floating-point) evaluation of the same
//!   netlist, giving per-node impulse responses for the paper's Eq. 1
//!   variance analysis.
//! * [`misr`] — polynomial-configurable multiple-input signature
//!   registers: a scalar reference model plus a 64-lane word-parallel
//!   bank that folds every simulator lane's output stream into a
//!   per-lane signature inside the bit-sliced inner loop.
//!
//! # Example
//!
//! ```
//! use bist_rtl::{NetlistBuilder, RtlError};
//!
//! // y[n] = x[n]/2 + delay(x[n])/4, a toy 2-tap filter.
//! let mut b = NetlistBuilder::new(16)?;
//! let x = b.input("x");
//! let half = b.shift_right(x, 1);
//! let delayed = b.register(x);
//! let quarter = b.shift_right(delayed, 2);
//! let sum = b.add(half, quarter);
//! b.output(sum, "y");
//! let netlist = b.finish()?;
//! assert_eq!(netlist.stats().adders, 1);
//! assert_eq!(netlist.stats().registers, 1);
//! # Ok::<(), RtlError>(())
//! ```

#![forbid(unsafe_code)]

mod builder;
mod error;
mod node;

pub mod eval;
pub mod fulladder;
pub mod linear;
pub mod misr;
pub mod range;
pub mod reachability;
pub mod sim;

pub use builder::{Netlist, NetlistBuilder, NetlistStats};
pub use error::RtlError;
pub use node::{Node, NodeId, NodeKind};
