//! # bist-sat — CDCL equivalence checking and redundant-fault proving
//!
//! A zero-dependency SAT subsystem for the filter-BIST stack:
//!
//! - [`solver`] — a compact CDCL solver (watched literals, first-UIP
//!   learning, VSIDS activity, Luby restarts, incremental assumptions,
//!   conflict budgets, DIMACS dump).
//! - [`circuit`] — a hash-consed AND/XOR gate graph with lazy Tseitin
//!   emission, shared between fault-free and faulty netlist copies.
//! - [`encode`] — the Tseitin encoder from the `rtl` netlist (including the
//!   sixteen injectable full-adder lines) to the gate graph, with frame
//!   unrolling for the feed-forward filter pipelines (a faulty machine's
//!   frames on demand).
//! - [`redundancy`] — the per-fault miter, proved on a solver that holds
//!   only its cone of influence: UNSAT at every reachable frame is a
//!   machine-checked proof of redundancy; SAT yields a witness vector that
//!   must replay through `faultsim` as a detection.
//! - [`equiv`] — the combinational-equivalence checker tying each
//!   CSD-synthesized netlist to its behavioral fixed-point model via
//!   SAT-certified range/trim lemmas plus an exact affine normal form.
//!
//! The solver and encoder are deliberately `std`-only: the workspace builds
//! offline and the prover must be embeddable in the campaign pipeline
//! (`bist-core`) without pulling in external solvers.

#![forbid(unsafe_code)]

pub mod circuit;
pub mod encode;
pub mod equiv;
pub mod redundancy;
pub mod solver;

pub use circuit::{Circuit, GLit};
pub use encode::{FaultSpec, FaultyUnroll, FrameCone, NetlistEncoder};
pub use equiv::{check_equivalence, EquivReport};
pub use redundancy::{
    prove_faults, replay_detects, FaultVerdict, PruneConfig, PruneOutcome, RedundancyProver,
};
pub use solver::{Lit, SolveResult, Solver, SolverStats};
