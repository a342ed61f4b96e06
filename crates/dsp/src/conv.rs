//! Convolution and correlation.
//!
//! The paper's Section 7 cascades a linear model of the LFSR with each
//! subfilter — a convolution `h'_k = h_k * g` — and derives generator
//! power spectra from the aperiodic autocorrelation of the model's
//! impulse response. Both primitives live here.

/// Full linear convolution; the result has length `a.len() + b.len() - 1`.
///
/// Returns an empty vector if either input is empty.
///
/// # Example
///
/// ```
/// use bist_dsp::conv::convolve;
/// assert_eq!(convolve(&[1.0, 2.0], &[1.0, 0.0, -1.0]),
///            vec![1.0, 2.0, -1.0, -2.0]);
/// ```
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Aperiodic (linear) autocorrelation `r[k] = sum_n h[n] h[n+k]` for
/// `k` in `-(N-1)..=N-1`, returned with lag 0 at index `N-1`.
///
/// The generator power spectrum in the paper's Section 7 is the DFT of
/// exactly this sequence (`h[n] * h[-n]`).
///
/// # Example
///
/// ```
/// use bist_dsp::conv::autocorrelate;
/// let r = autocorrelate(&[1.0, 0.5]);
/// assert_eq!(r, vec![0.5, 1.25, 0.5]);
/// ```
pub fn autocorrelate(h: &[f64]) -> Vec<f64> {
    if h.is_empty() {
        return Vec::new();
    }
    let reversed: Vec<f64> = h.iter().rev().copied().collect();
    convolve(h, &reversed)
}

/// Biased sample autocorrelation of a data sequence at lags `0..max_lag`:
/// `r[k] = (1/N) sum_{n} (x[n]-mean)(x[n+k]-mean)`.
///
/// Returns an empty vector when `x` is empty.
pub fn sample_autocorrelation(x: &[f64], max_lag: usize) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let n = x.len();
    let mean = x.iter().sum::<f64>() / n as f64;
    let mut out = Vec::with_capacity(max_lag.min(n));
    for k in 0..max_lag.min(n) {
        let mut acc = 0.0;
        for i in 0..n - k {
            acc += (x[i] - mean) * (x[i + k] - mean);
        }
        out.push(acc / n as f64);
    }
    out
}

/// Filters a signal through an FIR (direct convolution, same length as
/// input — the transient tail is truncated).
pub fn filter(h: &[f64], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; x.len()];
    for (n, item) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &c) in h.iter().enumerate() {
            if n >= k {
                acc += c * x[n - k];
            }
        }
        *item = acc;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{for_each_seed, Rng};

    #[test]
    fn convolve_with_impulse_is_identity() {
        let a = [3.0, -1.0, 2.0];
        assert_eq!(convolve(&a, &[1.0]), a.to_vec());
    }

    #[test]
    fn convolve_empty_is_empty() {
        assert!(convolve(&[], &[1.0]).is_empty());
        assert!(convolve(&[1.0], &[]).is_empty());
    }

    #[test]
    fn autocorrelation_is_symmetric_with_peak_at_zero_lag() {
        let r = autocorrelate(&[0.3, -0.7, 1.2, 0.1]);
        let n = 4;
        assert_eq!(r.len(), 2 * n - 1);
        for k in 0..r.len() {
            assert!((r[k] - r[r.len() - 1 - k]).abs() < 1e-12);
            assert!(r[k] <= r[n - 1] + 1e-12);
        }
    }

    #[test]
    fn sample_autocorrelation_of_constant_is_zero() {
        let x = vec![2.5; 100];
        let r = sample_autocorrelation(&x, 5);
        for &v in &r {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn filter_matches_convolution_head() {
        let h = [0.5, 0.25, -0.125];
        let x = [1.0, 0.0, 2.0, -1.0, 0.5];
        let full = convolve(&h, &x);
        let trunc = filter(&h, &x);
        assert_eq!(trunc.len(), x.len());
        for i in 0..x.len() {
            assert!((full[i] - trunc[i]).abs() < 1e-12);
        }
    }

    fn uniform_vec(rng: &mut Rng, lo: usize, hi: usize) -> Vec<f64> {
        (0..rng.range(lo, hi)).map(|_| rng.uniform(-5.0, 5.0)).collect()
    }

    #[test]
    fn convolution_commutes() {
        for_each_seed(0xD5F8_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let a = uniform_vec(&mut rng, 1, 10);
            let b = uniform_vec(&mut rng, 1, 10);
            let ab = convolve(&a, &b);
            let ba = convolve(&b, &a);
            assert_eq!(ab.len(), ba.len());
            for i in 0..ab.len() {
                assert!((ab[i] - ba[i]).abs() < 1e-9);
            }
        });
    }

    #[test]
    fn zero_lag_autocorrelation_is_energy() {
        for_each_seed(0xD5F9_0000, 256, |seed| {
            let h = uniform_vec(&mut Rng::new(seed), 1, 16);
            let r = autocorrelate(&h);
            let energy: f64 = h.iter().map(|x| x * x).sum();
            assert!((r[h.len() - 1] - energy).abs() < 1e-9);
        });
    }
}
