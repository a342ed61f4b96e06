//! Power-spectrum estimation: periodogram and Welch's method.
//!
//! Used to reproduce the paper's Fig. 4 (power spectra of BIST test
//! pattern generators) from actual generated sequences, cross-checking
//! the analytic linear-model spectra in `bist-tpg`.

use crate::window::Window;
use crate::{fft, Complex, DspError};

/// A one-sided power-spectral-density estimate on `bins` uniformly spaced
/// frequencies `k / (2 * bins)` for `k in 0..bins` (DC up to just below
/// Nyquist).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSpectrum {
    psd: Vec<f64>,
}

impl PowerSpectrum {
    /// The PSD values (linear power per bin, normalized so that the mean
    /// over all bins equals the signal variance — Parseval).
    pub fn values(&self) -> &[f64] {
        &self.psd
    }

    /// Number of frequency bins.
    pub fn len(&self) -> usize {
        self.psd.len()
    }

    /// `true` if the spectrum has no bins.
    pub fn is_empty(&self) -> bool {
        self.psd.is_empty()
    }

    /// Normalized frequency of bin `k` (Nyquist = 0.5).
    pub fn frequency(&self, k: usize) -> f64 {
        k as f64 / (2.0 * self.psd.len() as f64)
    }

    /// PSD in decibels, clamped at a `-200` dB floor.
    pub fn values_db(&self) -> Vec<f64> {
        self.psd
            .iter()
            .map(|&p| if p <= 0.0 { -200.0 } else { (10.0 * p.log10()).max(-200.0) })
            .collect()
    }

    /// Mean power (equals the signal variance for a zero-mean signal).
    pub fn mean_power(&self) -> f64 {
        if self.psd.is_empty() {
            0.0
        } else {
            self.psd.iter().sum::<f64>() / self.psd.len() as f64
        }
    }

    /// Fraction of total power at frequencies below `f`.
    pub fn power_fraction_below(&self, f: f64) -> f64 {
        let total: f64 = self.psd.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let below: f64 = self
            .psd
            .iter()
            .enumerate()
            .filter(|(k, _)| self.frequency(*k) < f)
            .map(|(_, &p)| p)
            .sum();
        below / total
    }

    /// Builds a spectrum directly from per-bin power values (used by the
    /// analytic generator models in `bist-tpg`).
    pub fn from_values(psd: Vec<f64>) -> Self {
        PowerSpectrum { psd }
    }
}

/// Simple periodogram of one segment: `|FFT(x - mean)|^2 / N`, one-sided.
///
/// # Errors
///
/// [`DspError::NotPowerOfTwo`] if `x.len()` is not a power of two;
/// [`DspError::EmptyInput`] if `x` is empty.
pub fn periodogram(x: &[f64]) -> Result<PowerSpectrum, DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = x.len();
    if !n.is_power_of_two() {
        return Err(DspError::NotPowerOfTwo { len: n });
    }
    let mean = x.iter().sum::<f64>() / n as f64;
    let mut data: Vec<Complex> = x.iter().map(|&v| Complex::from_re(v - mean)).collect();
    fft::fft(&mut data)?;
    let psd: Vec<f64> = data[..n / 2].iter().map(|z| z.norm_sqr() / n as f64).collect();
    Ok(PowerSpectrum { psd })
}

/// Welch's averaged, windowed periodogram.
///
/// The signal is split into 50%-overlapping segments of `segment_len`
/// samples, each windowed and transformed; the squared magnitudes are
/// averaged and normalized by the window energy so the mean power equals
/// the signal variance.
///
/// # Errors
///
/// [`DspError::NotPowerOfTwo`] if `segment_len` is not a power of two;
/// [`DspError::BadSegmentation`] if `x` is shorter than one segment;
/// [`DspError::EmptyInput`] if `x` is empty.
///
/// # Example
///
/// ```
/// use bist_dsp::spectrum::welch;
/// use bist_dsp::window::Window;
///
/// // A white-ish ±1 square sequence has a flat-ish spectrum.
/// let x: Vec<f64> = (0..4096).map(|i| if (i * 2654435761u64 as usize) & 64 == 0 { 1.0 } else { -1.0 }).collect();
/// let s = welch(&x, 256, Window::Hann)?;
/// assert_eq!(s.len(), 128);
/// # Ok::<(), bist_dsp::DspError>(())
/// ```
pub fn welch(x: &[f64], segment_len: usize, window: Window) -> Result<PowerSpectrum, DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if !segment_len.is_power_of_two() || segment_len == 0 {
        return Err(DspError::NotPowerOfTwo { len: segment_len });
    }
    if x.len() < segment_len {
        return Err(DspError::BadSegmentation { segment: segment_len, available: x.len() });
    }
    let w = window.coefficients(segment_len);
    let w_energy: f64 = w.iter().map(|v| v * v).sum();
    let hop = (segment_len / 2).max(1);
    let mean = x.iter().sum::<f64>() / x.len() as f64;

    let mut acc = vec![0.0; segment_len / 2];
    let mut count = 0usize;
    let mut start = 0usize;
    let mut data = vec![Complex::zero(); segment_len];
    while start + segment_len <= x.len() {
        for i in 0..segment_len {
            data[i] = Complex::from_re((x[start + i] - mean) * w[i]);
        }
        fft::fft(&mut data)?;
        for (a, z) in acc.iter_mut().zip(&data[..segment_len / 2]) {
            *a += z.norm_sqr() / w_energy;
        }
        count += 1;
        start += hop;
    }
    for a in acc.iter_mut() {
        *a /= count as f64;
    }
    Ok(PowerSpectrum { psd: acc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn periodogram_of_tone_peaks_at_tone() {
        let n = 1024;
        let f0 = 0.125;
        let x: Vec<f64> = (0..n).map(|i| (2.0 * PI * f0 * i as f64).sin()).collect();
        let s = periodogram(&x).unwrap();
        let peak = s.values().iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert!((s.frequency(peak) - f0).abs() < 1.0 / n as f64);
    }

    #[test]
    fn welch_mean_power_tracks_variance() {
        // Seeded uniform noise on [-1, 1).
        let mut rng = testkit::Rng::new(0x2545_F491_4F6C_DD1D);
        let x: Vec<f64> = (0..8192).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / x.len() as f64;
        let s = welch(&x, 512, Window::Hann).unwrap();
        assert!((s.mean_power() - var).abs() < 0.05 * var, "{} vs {var}", s.mean_power());
    }

    #[test]
    fn welch_rejects_bad_segmentation() {
        let x = vec![0.0; 100];
        assert!(matches!(welch(&x, 128, Window::Hann), Err(DspError::BadSegmentation { .. })));
        assert!(matches!(welch(&x, 48, Window::Hann), Err(DspError::NotPowerOfTwo { .. })));
        assert!(matches!(welch(&[], 16, Window::Hann), Err(DspError::EmptyInput)));
    }

    #[test]
    fn power_fraction_splits_spectrum() {
        let s = PowerSpectrum::from_values(vec![1.0; 100]);
        assert!((s.power_fraction_below(0.25) - 0.5).abs() < 0.02);
        assert_eq!(s.power_fraction_below(0.5), 1.0);
        assert_eq!(s.power_fraction_below(0.0), 0.0);
    }

    #[test]
    fn db_floor_is_applied() {
        let s = PowerSpectrum::from_values(vec![0.0, 1.0]);
        let db = s.values_db();
        assert_eq!(db[0], -200.0);
        assert_eq!(db[1], 0.0);
    }
}
