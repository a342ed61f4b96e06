//! Discrete Fourier transforms: an iterative radix-2 FFT and a direct DFT.
//!
//! The paper's spectral characterization of test generators (its Fig. 4)
//! and its compatibility metric (`sigma_y^2 = (1/L) sum |G|^2 |H|^2`)
//! both need DFTs of a few thousand points; the radix-2 FFT here covers
//! that comfortably. [`dft`] is a direct O(n^2) evaluation used for
//! odd lengths and as a cross-check in tests.

use crate::{Complex, DspError};
use std::f64::consts::PI;

/// In-place radix-2 decimation-in-time FFT.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if `data.len()` is not a power of
/// two (zero length included).
///
/// # Example
///
/// ```
/// use bist_dsp::{fft, Complex};
///
/// let mut data = vec![Complex::one(); 8];
/// fft::fft(&mut data)?;
/// assert!((data[0].re - 8.0).abs() < 1e-12); // DC bin
/// assert!(data[1].norm() < 1e-12);           // all others zero
/// # Ok::<(), bist_dsp::DspError>(())
/// ```
pub fn fft(data: &mut [Complex]) -> Result<(), DspError> {
    transform(data, -1.0)
}

/// In-place inverse FFT (includes the `1/N` normalization).
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if `data.len()` is not a power of two.
pub fn ifft(data: &mut [Complex]) -> Result<(), DspError> {
    transform(data, 1.0)?;
    let n = data.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(1.0 / n);
    }
    Ok(())
}

/// FFT of a real signal, returned as a full complex spectrum.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if `signal.len()` is not a power of
/// two.
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex>, DspError> {
    let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::from_re(x)).collect();
    fft(&mut data)?;
    Ok(data)
}

/// Direct O(n^2) DFT; works for any length. `sign = -1` is the forward
/// transform convention used by [`fft`].
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn dft(data: &[Complex], sign: f64) -> Result<Vec<Complex>, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = data.len();
    let mut out = vec![Complex::zero(); n];
    for (k, item) in out.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (j, &x) in data.iter().enumerate() {
            let theta = sign * 2.0 * PI * (k as f64) * (j as f64) / (n as f64);
            acc += x * Complex::cis(theta);
        }
        *item = acc;
    }
    Ok(out)
}

/// The squared-magnitude spectrum `|X[k]|^2` of a real signal, zero-padded
/// up to the next power of two of `min_len.max(signal.len())`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `signal` is empty.
pub fn power_spectrum_padded(signal: &[f64], min_len: usize) -> Result<Vec<f64>, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = signal.len().max(min_len).next_power_of_two();
    let mut data = vec![Complex::zero(); n];
    for (d, &x) in data.iter_mut().zip(signal) {
        *d = Complex::from_re(x);
    }
    fft(&mut data)?;
    Ok(data.iter().map(|z| z.norm_sqr()).collect())
}

fn transform(data: &mut [Complex], sign: f64) -> Result<(), DspError> {
    let n = data.len();
    if n == 0 || !n.is_power_of_two() {
        return Err(DspError::NotPowerOfTwo { len: n });
    }
    bit_reverse_permute(data);
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / (len as f64);
        let wlen = Complex::cis(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::one();
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
    Ok(())
}

fn bit_reverse_permute(data: &mut [Complex]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{for_each_seed, Rng};

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).norm() < tol
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut data = vec![Complex::zero(); 6];
        assert_eq!(fft(&mut data), Err(DspError::NotPowerOfTwo { len: 6 }));
        let mut empty: Vec<Complex> = vec![];
        assert!(fft(&mut empty).is_err());
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::zero(); 16];
        data[0] = Complex::one();
        fft(&mut data).unwrap();
        for z in &data {
            assert!(close(*z, Complex::one(), 1e-12));
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let signal: Vec<f64> =
            (0..n).map(|i| (2.0 * PI * k0 as f64 * i as f64 / n as f64).cos()).collect();
        let spec = fft_real(&signal).unwrap();
        for (k, z) in spec.iter().enumerate() {
            let expected = if k == k0 || k == n - k0 { n as f64 / 2.0 } else { 0.0 };
            assert!((z.norm() - expected).abs() < 1e-9, "bin {k}: {} vs {expected}", z.norm());
        }
    }

    #[test]
    fn fft_matches_direct_dft() {
        let n = 32;
        let signal: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos())).collect();
        let reference = dft(&signal, -1.0).unwrap();
        let mut fast = signal;
        fft(&mut fast).unwrap();
        for (a, b) in fast.iter().zip(&reference) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    fn power_spectrum_pads_to_power_of_two() {
        let spec = power_spectrum_padded(&[1.0, 0.0, 0.0], 5).unwrap();
        assert_eq!(spec.len(), 8);
        for &p in &spec {
            assert!((p - 1.0).abs() < 1e-12);
        }
    }

    fn uniform_vec(rng: &mut Rng, len: usize, bound: f64) -> Vec<f64> {
        (0..len).map(|_| rng.uniform(-bound, bound)).collect()
    }

    #[test]
    fn ifft_inverts_fft() {
        for_each_seed(0xD5F2_0000, 256, |seed| {
            let values = uniform_vec(&mut Rng::new(seed), 16, 10.0);
            let mut data: Vec<Complex> = values.iter().map(|&x| Complex::from_re(x)).collect();
            fft(&mut data).unwrap();
            ifft(&mut data).unwrap();
            for (z, &x) in data.iter().zip(&values) {
                assert!((z.re - x).abs() < 1e-9);
                assert!(z.im.abs() < 1e-9);
            }
        });
    }

    #[test]
    fn parseval() {
        for_each_seed(0xD5F3_0000, 256, |seed| {
            let values = uniform_vec(&mut Rng::new(seed), 32, 10.0);
            let time_energy: f64 = values.iter().map(|x| x * x).sum();
            let spec = fft_real(&values).unwrap();
            let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 32.0;
            assert!((time_energy - freq_energy).abs() < 1e-7 * (1.0 + time_energy));
        });
    }

    #[test]
    fn linearity() {
        for_each_seed(0xD5F4_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let a = uniform_vec(&mut rng, 16, 5.0);
            let b = uniform_vec(&mut rng, 16, 5.0);
            let fa = fft_real(&a).unwrap();
            let fb = fft_real(&b).unwrap();
            let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let fsum = fft_real(&sum).unwrap();
            for i in 0..16 {
                assert!(close(fsum[i], fa[i] + fb[i], 1e-9), "bin {i}");
            }
        });
    }
}
