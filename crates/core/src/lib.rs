//! Frequency-domain compatibility analysis for digital-filter BIST —
//! the primary contribution of *"Frequency-Domain Compatibility in
//! Digital Filter BIST"* (Goodby & Orailoğlu, DAC 1997), rebuilt as a
//! library.
//!
//! The paper's thesis: a test generator whose power spectrum starves the
//! filter's passband produces an attenuated test signal inside the
//! datapath, and the faults it misses — despite fault coverage above
//! 99% — include *serious* faults that ordinary operating signals would
//! excite. Compatibility between generator spectrum `G` and filter
//! response `H` is therefore a first-class design parameter for BIST.
//!
//! * [`compat`] — the compatibility metric
//!   `sigma_y^2 = (1/L) * sum |G[k]|^2 |H[k]|^2` and the `+ / ± / −`
//!   classification of the paper's Table 3.
//! * [`variance`] — per-adder test-signal variance via the subfilter
//!   impulse responses (paper Eq. 1), optionally cascaded with the LFSR
//!   linear models from [`tpg::model`]; flags attenuation problems early
//!   in the design.
//! * [`zones`] — the difficult-test model of the paper's Section 4:
//!   the four hard test classes T1/T2/T5/T6 at an adder's upper carry
//!   logic, their primary-input activation zones (Fig. 1), and
//!   activation probabilities under a predicted amplitude distribution.
//! * [`distribution`] — amplitude-distribution prediction at internal
//!   nodes (paper Figs. 8–9): the LFSR linear-model prediction and the
//!   idealized independent-vector prediction.
//! * [`misr`] — a multiple-input signature register for response
//!   compaction (the experiments assume no aliasing and compare outputs
//!   directly; the MISR is the production BIST path).
//! * [`session`] — end-to-end BIST runs: generator + filter + fault
//!   simulation, producing the coverage curves and missed-fault counts
//!   of the paper's Tables 4–6 and Figs. 10–13.
//! * [`selection`] — generator ranking and mixed-scheme recommendation
//!   (the paper's Section 9: a Type 1 LFSR switched to maximum-variance
//!   mode beats any single-mode generator).
//! * [`campaign`] — serializable campaign specifications with a
//!   canonical key form: the unit of work the `bistd` daemon queues,
//!   executes and content-addresses.
//!
//! # Example
//!
//! ```
//! use bist_core::compat::{classify, output_variance, Compatibility};
//!
//! // A narrowband lowpass starves under a Type 1 LFSR...
//! let h_lp = dsp::firdesign::FirSpec::new(
//!     dsp::firdesign::BandKind::Lowpass { cutoff: 0.04 }, 60,
//! ).design()?;
//! let lfsr1 = tpg::spectra::lfsr1(12, 512);
//! let white = tpg::spectra::flat(1.0 / 3.0, 512);
//! let starved = output_variance(&lfsr1, &h_lp);
//! let fed = output_variance(&white, &h_lp);
//! assert!(starved < 0.25 * fed);
//! assert_eq!(classify(starved, fed), Compatibility::Poor);
//! # Ok::<(), dsp::DspError>(())
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod campaign;
pub mod compat;
pub mod distribution;
pub mod misr;
pub mod selection;
pub mod session;
pub mod variance;
pub mod zones;

pub use atpg::TopOffConfig;
pub use session::{BistRun, BistSession, RunConfig, SatConfig, SessionError};
