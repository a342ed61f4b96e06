//! Windowed-sinc FIR filter design.
//!
//! The paper's three circuits-under-test are a narrowband lowpass, a
//! mid-band bandpass and a highpass FIR filter of ~60 taps each
//! (its Table 1). This module designs the floating-point prototypes;
//! `bist-csd`/`bist-filters` then quantize the coefficients to
//! canonic-signed-digit form and map them onto hardware.
//!
//! All band edges are normalized to the sample rate (Nyquist = 0.5).

use crate::window::Window;
use crate::DspError;
use std::f64::consts::PI;

/// The classic four FIR band shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum BandKind {
    /// Passband `[0, cutoff]`.
    Lowpass {
        /// Cutoff frequency, in `(0, 0.5)`.
        cutoff: f64,
    },
    /// Passband `[cutoff, 0.5]`.
    Highpass {
        /// Cutoff frequency, in `(0, 0.5)`.
        cutoff: f64,
    },
    /// Passband `[low, high]`.
    Bandpass {
        /// Lower band edge, in `(0, high)`.
        low: f64,
        /// Upper band edge, in `(low, 0.5)`.
        high: f64,
    },
    /// Stopband `[low, high]`.
    Bandstop {
        /// Lower band edge, in `(0, high)`.
        low: f64,
        /// Upper band edge, in `(low, 0.5)`.
        high: f64,
    },
}

impl BandKind {
    fn validate(&self) -> Result<(), DspError> {
        let bad = |reason: String| Err(DspError::InvalidDesign { reason });
        match *self {
            BandKind::Lowpass { cutoff } | BandKind::Highpass { cutoff } => {
                if !(cutoff > 0.0 && cutoff < 0.5) {
                    return bad(format!("cutoff {cutoff} must lie in (0, 0.5)"));
                }
            }
            BandKind::Bandpass { low, high } | BandKind::Bandstop { low, high } => {
                if !(low > 0.0 && low < high && high < 0.5) {
                    return bad(format!(
                        "band edges ({low}, {high}) must satisfy 0 < low < high < 0.5"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Ideal (infinite) impulse response sampled at offset `t` from the
    /// filter center.
    fn ideal_at(&self, t: f64) -> f64 {
        match *self {
            BandKind::Lowpass { cutoff } => 2.0 * cutoff * sinc(2.0 * cutoff * t),
            BandKind::Highpass { cutoff } => sinc(t) - 2.0 * cutoff * sinc(2.0 * cutoff * t),
            BandKind::Bandpass { low, high } => {
                2.0 * high * sinc(2.0 * high * t) - 2.0 * low * sinc(2.0 * low * t)
            }
            BandKind::Bandstop { low, high } => {
                sinc(t) - 2.0 * high * sinc(2.0 * high * t) + 2.0 * low * sinc(2.0 * low * t)
            }
        }
    }

    /// A frequency inside the nominal passband, used for gain
    /// normalization.
    pub fn passband_reference(&self) -> f64 {
        match *self {
            BandKind::Lowpass { .. } => 0.0,
            BandKind::Highpass { .. } => 0.5,
            BandKind::Bandpass { low, high } => 0.5 * (low + high),
            BandKind::Bandstop { .. } => 0.0,
        }
    }
}

/// Builder for a windowed-sinc FIR design.
///
/// # Example
///
/// ```
/// use bist_dsp::firdesign::{BandKind, FirSpec};
///
/// let h = FirSpec::new(BandKind::Bandpass { low: 0.15, high: 0.35 }, 61)
///     .window(bist_dsp::window::Window::Hamming)
///     .design()?;
/// assert_eq!(h.len(), 61);
/// # Ok::<(), bist_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FirSpec {
    kind: BandKind,
    taps: usize,
    window: Window,
    normalize_l1: Option<f64>,
}

impl FirSpec {
    /// Starts a design of `taps` coefficients with the given band shape.
    pub fn new(kind: BandKind, taps: usize) -> Self {
        FirSpec { kind, taps, window: Window::Kaiser { beta: 6.0 }, normalize_l1: None }
    }

    /// Selects the window (default: Kaiser with `beta = 6`).
    pub fn window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Shortcut for a Kaiser window with the given `beta`.
    pub fn kaiser_beta(mut self, beta: f64) -> Self {
        self.window = Window::Kaiser { beta };
        self
    }

    /// Scales the design so that `sum |h[n]| == bound`.
    ///
    /// This is the conservative (worst-case, L1-norm) scaling the paper
    /// attributes its excess-headroom faults to: with `bound <= 1`, no
    /// internal adder of the transposed-form implementation can ever
    /// overflow, but typical signals use only a fraction of the range.
    pub fn l1_bound(mut self, bound: f64) -> Self {
        self.normalize_l1 = Some(bound);
        self
    }

    /// Runs the design and returns the coefficient vector.
    ///
    /// Even-length highpass/bandstop designs are rejected (a type-II
    /// linear-phase FIR has a forced zero at Nyquist, making those shapes
    /// unrealizable).
    ///
    /// # Errors
    ///
    /// [`DspError::InvalidDesign`] for invalid band edges, zero taps, or
    /// an unrealizable shape/length combination.
    pub fn design(&self) -> Result<Vec<f64>, DspError> {
        self.kind.validate()?;
        if self.taps == 0 {
            return Err(DspError::InvalidDesign { reason: "taps must be nonzero".into() });
        }
        if self.taps.is_multiple_of(2) {
            if let BandKind::Highpass { .. } | BandKind::Bandstop { .. } = self.kind {
                return Err(DspError::InvalidDesign {
                    reason: format!(
                        "{:?} with even length {} has a forced null at Nyquist",
                        self.kind, self.taps
                    ),
                });
            }
        }
        let n = self.taps;
        let center = (n - 1) as f64 / 2.0;
        let w = self.window.coefficients(n);
        let mut h: Vec<f64> =
            (0..n).map(|i| self.kind.ideal_at(i as f64 - center) * w[i]).collect();

        // Normalize passband gain to 1 at the reference frequency.
        let f0 = self.kind.passband_reference();
        let gain: f64 = h
            .iter()
            .enumerate()
            .map(|(i, &c)| c * (2.0 * PI * f0 * (i as f64 - center)).cos())
            .sum();
        if gain.abs() > 1e-12 {
            for c in h.iter_mut() {
                *c /= gain;
            }
        }

        if let Some(bound) = self.normalize_l1 {
            let l1: f64 = h.iter().map(|c| c.abs()).sum();
            if l1 > 0.0 {
                let k = bound / l1;
                for c in h.iter_mut() {
                    *c *= k;
                }
            }
        }
        Ok(h)
    }
}

fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        (PI * x).sin() / (PI * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::magnitude_at;
    use testkit::{for_each_seed, Rng};

    #[test]
    fn rejects_bad_edges() {
        assert!(FirSpec::new(BandKind::Lowpass { cutoff: 0.0 }, 31).design().is_err());
        assert!(FirSpec::new(BandKind::Lowpass { cutoff: 0.5 }, 31).design().is_err());
        assert!(FirSpec::new(BandKind::Bandpass { low: 0.3, high: 0.2 }, 31).design().is_err());
        assert!(FirSpec::new(BandKind::Lowpass { cutoff: 0.1 }, 0).design().is_err());
    }

    #[test]
    fn rejects_even_highpass() {
        assert!(FirSpec::new(BandKind::Highpass { cutoff: 0.3 }, 30).design().is_err());
        assert!(FirSpec::new(BandKind::Highpass { cutoff: 0.3 }, 31).design().is_ok());
    }

    #[test]
    fn lowpass_response_shape() {
        let h =
            FirSpec::new(BandKind::Lowpass { cutoff: 0.1 }, 61).kaiser_beta(7.0).design().unwrap();
        assert!((magnitude_at(&h, 0.0) - 1.0).abs() < 1e-6);
        assert!(magnitude_at(&h, 0.05) > 0.9);
        assert!(magnitude_at(&h, 0.25) < 1e-3);
        assert!(magnitude_at(&h, 0.45) < 1e-3);
    }

    #[test]
    fn highpass_response_shape() {
        let h = FirSpec::new(BandKind::Highpass { cutoff: 0.35 }, 61)
            .kaiser_beta(7.0)
            .design()
            .unwrap();
        assert!((magnitude_at(&h, 0.5) - 1.0).abs() < 1e-6);
        assert!(magnitude_at(&h, 0.45) > 0.9);
        assert!(magnitude_at(&h, 0.1) < 1e-3);
    }

    #[test]
    fn bandpass_response_shape() {
        let h = FirSpec::new(BandKind::Bandpass { low: 0.15, high: 0.35 }, 61)
            .kaiser_beta(7.0)
            .design()
            .unwrap();
        assert!((magnitude_at(&h, 0.25) - 1.0).abs() < 1e-6);
        assert!(magnitude_at(&h, 0.02) < 1e-3);
        assert!(magnitude_at(&h, 0.48) < 1e-3);
    }

    #[test]
    fn bandstop_response_shape() {
        let h = FirSpec::new(BandKind::Bandstop { low: 0.2, high: 0.3 }, 61)
            .kaiser_beta(6.0)
            .design()
            .unwrap();
        assert!((magnitude_at(&h, 0.0) - 1.0).abs() < 1e-6);
        assert!(magnitude_at(&h, 0.25) < 1e-3);
        assert!(magnitude_at(&h, 0.45) > 0.9);
    }

    #[test]
    fn l1_bound_is_honored() {
        let h =
            FirSpec::new(BandKind::Lowpass { cutoff: 0.06 }, 60).l1_bound(0.999).design().unwrap();
        let l1: f64 = h.iter().map(|c| c.abs()).sum();
        assert!((l1 - 0.999).abs() < 1e-9);
    }

    #[test]
    fn designs_are_symmetric() {
        for_each_seed(0xD5F6_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let (taps, cutoff) = (rng.range(3, 80), rng.uniform(0.05, 0.45));
            let h = FirSpec::new(BandKind::Lowpass { cutoff }, taps).design().unwrap();
            for i in 0..taps {
                assert!((h[i] - h[taps - 1 - i]).abs() < 1e-12, "{taps} taps, cutoff {cutoff}");
            }
        });
    }

    #[test]
    fn dc_gain_is_unity() {
        for_each_seed(0xD5F7_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let (taps, cutoff) = (rng.range(9, 80), rng.uniform(0.05, 0.45));
            let h = FirSpec::new(BandKind::Lowpass { cutoff }, taps).design().unwrap();
            let dc: f64 = h.iter().sum();
            assert!((dc - 1.0).abs() < 1e-9, "{taps} taps, cutoff {cutoff}");
        });
    }
}
