//! Two's-complement fixed-point arithmetic for digital-filter BIST.
//!
//! The paper ("Frequency-Domain Compatibility in Digital Filter BIST",
//! DAC 1997) represents every signal as an `N`-bit two's-complement word
//! whose value is `-b0 + sum(b_i * 2^-i)` — i.e. a fraction in `[-1, 1)`.
//! This crate provides the [`QFormat`] word-format descriptor and the
//! [`Fx`] fixed-point value type used throughout the workspace: by the
//! structural netlist in `bist-rtl`, the test-pattern generators in
//! `bist-tpg`, and the analysis code in `bist-core`.
//!
//! # Example
//!
//! ```
//! use bist_fixedpoint::{Fx, QFormat};
//!
//! // The paper's filter datapath: 16-bit words, 15 fraction bits.
//! let q = QFormat::new(16, 15)?;
//! let half = Fx::from_f64(0.5, q)?;
//! let quarter = Fx::from_f64(0.25, q)?;
//! assert_eq!((half.wrapping_add(quarter)).to_f64(), 0.75);
//!
//! // Wrap-around (overflow) behaviour of a real ripple-carry adder:
//! let big = Fx::from_f64(0.75, q)?;
//! assert!(big.wrapping_add(big).to_f64() < 0.0);
//! # Ok::<(), bist_fixedpoint::FixedPointError>(())
//! ```

#![forbid(unsafe_code)]

mod error;
mod format;
mod value;

pub use error::FixedPointError;
pub use format::QFormat;
pub use value::Fx;
