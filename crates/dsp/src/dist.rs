//! Discrete amplitude-distribution arithmetic.
//!
//! The paper predicts the amplitude distribution of the test signal at an
//! internal filter tap by treating the signal as a sum of independent
//! terms — Bernoulli bits through the LFSR linear model, or uniform words
//! through an idealized generator — and the distribution of a sum of
//! independent terms is the convolution of their distributions
//! (its Figs. 8–9 "theory" curves). [`Distribution`] is a probability
//! mass function on a uniform grid supporting exactly that convolution,
//! plus the zone-probability queries used by the test-zone model.

/// A probability mass function sampled on a uniform grid.
///
/// Grid points are `lo + i * step`; `pmf[i]` is the probability mass at
/// that point. All constructors produce unit total mass.
///
/// # Example
///
/// ```
/// use bist_dsp::dist::Distribution;
///
/// // Sum of two fair ±0.25 coin flips.
/// let step = 1.0 / 64.0;
/// let d = Distribution::bernoulli_pm(0.25, step)
///     .convolve(&Distribution::bernoulli_pm(0.25, step));
/// assert!((d.mean()).abs() < 1e-12);
/// assert!((d.variance() - 2.0 * 0.25 * 0.25).abs() < 1e-9);
/// assert!((d.prob_at_least(0.5) - 0.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    lo: f64,
    step: f64,
    pmf: Vec<f64>,
}

impl Distribution {
    /// A point mass at `value`, snapped to the nearest grid point.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn delta(value: f64, step: f64) -> Self {
        assert!(step > 0.0, "grid step must be positive");
        let i = (value / step).round();
        Distribution { lo: i * step, step, pmf: vec![1.0] }
    }

    /// A fair Bernoulli term taking values `0` or `weight`.
    ///
    /// This is one tap of the paper's LFSR linear model: a 0/1 white-noise
    /// bit scaled by an impulse-response coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn bernoulli_scaled(weight: f64, step: f64) -> Self {
        assert!(step > 0.0, "grid step must be positive");
        let a = Distribution::delta(0.0, step);
        let b = Distribution::delta(weight, step);
        a.mix(&b, 0.5)
    }

    /// A fair ±`amplitude` coin (zero mean).
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn bernoulli_pm(amplitude: f64, step: f64) -> Self {
        assert!(step > 0.0, "grid step must be positive");
        Distribution::delta(-amplitude, step).mix(&Distribution::delta(amplitude, step), 0.5)
    }

    /// A uniform distribution over `[a, b)`, discretized on the grid.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0` or `a >= b`.
    pub fn uniform(a: f64, b: f64, step: f64) -> Self {
        assert!(step > 0.0, "grid step must be positive");
        assert!(a < b, "uniform range is empty");
        let i0 = (a / step).round() as i64;
        let i1 = ((b / step).round() as i64).max(i0 + 1);
        let n = (i1 - i0) as usize;
        Distribution { lo: i0 as f64 * step, step, pmf: vec![1.0 / n as f64; n] }
    }

    /// Mixture: `p * self + (1 - p) * other` (both on the same step).
    ///
    /// # Panics
    ///
    /// Panics if the grid steps differ or `p` is outside `[0, 1]`.
    pub fn mix(&self, other: &Distribution, p: f64) -> Distribution {
        assert!((self.step - other.step).abs() < 1e-15, "grid step mismatch");
        assert!((0.0..=1.0).contains(&p), "mixture weight must be in [0,1]");
        let i_self = (self.lo / self.step).round() as i64;
        let i_other = (other.lo / other.step).round() as i64;
        let lo_i = i_self.min(i_other);
        let hi_i = (i_self + self.pmf.len() as i64).max(i_other + other.pmf.len() as i64);
        let mut pmf = vec![0.0; (hi_i - lo_i) as usize];
        for (k, &m) in self.pmf.iter().enumerate() {
            pmf[(i_self - lo_i) as usize + k] += p * m;
        }
        for (k, &m) in other.pmf.iter().enumerate() {
            pmf[(i_other - lo_i) as usize + k] += (1.0 - p) * m;
        }
        Distribution { lo: lo_i as f64 * self.step, step: self.step, pmf }
    }

    /// Distribution of the sum of two independent variables (full
    /// convolution).
    ///
    /// # Panics
    ///
    /// Panics if the grid steps differ.
    pub fn convolve(&self, other: &Distribution) -> Distribution {
        assert!((self.step - other.step).abs() < 1e-15, "grid step mismatch");
        let mut pmf = vec![0.0; self.pmf.len() + other.pmf.len() - 1];
        for (i, &a) in self.pmf.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.pmf.iter().enumerate() {
                pmf[i + j] += a * b;
            }
        }
        Distribution { lo: self.lo + other.lo, step: self.step, pmf }
    }

    /// Distribution of the sum of independent scaled fair bits
    /// `sum_i w_i B_i`, `B_i ~ Bernoulli(1/2)` — the paper's linear-model
    /// prediction for an internal node driven by an LFSR.
    ///
    /// Weights with `|w| < step/2` are treated as a single merged residual
    /// term to keep the grid small.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn sum_of_bernoulli(weights: &[f64], step: f64) -> Distribution {
        assert!(step > 0.0, "grid step must be positive");
        let mut acc = Distribution::delta(0.0, step);
        let mut residual = 0.0;
        for &w in weights {
            if w.abs() < step / 2.0 {
                residual += w;
            } else {
                acc = acc.convolve(&Distribution::bernoulli_scaled(w, step));
            }
        }
        if residual.abs() >= step / 2.0 {
            acc = acc.convolve(&Distribution::bernoulli_scaled(residual, step));
        }
        acc
    }

    /// Distribution of `sum_i c_i U_i` with independent `U_i` uniform on
    /// `[-1, 1)` — the idealized-generator prediction (paper Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn sum_of_uniform(coefficients: &[f64], step: f64) -> Distribution {
        assert!(step > 0.0, "grid step must be positive");
        let mut acc = Distribution::delta(0.0, step);
        for &c in coefficients {
            let a = c.abs();
            if a < step {
                continue;
            }
            acc = acc.convolve(&Distribution::uniform(-a, a, step));
        }
        acc
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.pmf.iter().enumerate().map(|(i, &m)| m * (self.lo + i as f64 * self.step)).sum()
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        let mu = self.mean();
        self.pmf
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let x = self.lo + i as f64 * self.step - mu;
                m * x * x
            })
            .sum()
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Total mass (should be 1 up to rounding).
    pub fn total_mass(&self) -> f64 {
        self.pmf.iter().sum()
    }

    /// `P[X >= x]`.
    pub fn prob_at_least(&self, x: f64) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .filter(|(i, _)| self.lo + *i as f64 * self.step >= x - 1e-12)
            .map(|(_, &m)| m)
            .sum()
    }

    /// `P[a <= X < b]`.
    pub fn prob_in(&self, a: f64, b: f64) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let x = self.lo + *i as f64 * self.step;
                x >= a - 1e-12 && x < b - 1e-12
            })
            .map(|(_, &m)| m)
            .sum()
    }

    /// Grid step.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Lowest grid point with nonzero support.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The PMF values.
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// Resamples the PMF into a probability-density estimate over
    /// `[lo, hi)` with `bins` uniform bins (for histogram overlay plots).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn density_on(&self, lo: f64, hi: f64, bins: usize) -> Vec<f64> {
        assert!(bins > 0 && lo < hi, "invalid density grid");
        let w = (hi - lo) / bins as f64;
        let mut out = vec![0.0; bins];
        for (i, &m) in self.pmf.iter().enumerate() {
            let x = self.lo + i as f64 * self.step;
            if x >= lo && x < hi {
                let b = (((x - lo) / w) as usize).min(bins - 1);
                out[b] += m / w;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{for_each_seed, Rng};

    const STEP: f64 = 1.0 / 256.0;

    #[test]
    fn delta_has_zero_variance() {
        let d = Distribution::delta(0.5, STEP);
        assert_eq!(d.total_mass(), 1.0);
        assert!((d.mean() - 0.5).abs() < 1e-12);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn uniform_moments() {
        let d = Distribution::uniform(-1.0, 1.0, STEP);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert!(d.mean().abs() < STEP);
        assert!((d.variance() - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn convolution_adds_means_and_variances() {
        let a = Distribution::uniform(-0.5, 0.5, STEP);
        let b = Distribution::bernoulli_pm(0.25, STEP);
        let s = a.convolve(&b);
        assert!((s.mean() - (a.mean() + b.mean())).abs() < 1e-9);
        assert!((s.variance() - (a.variance() + b.variance())).abs() < 1e-9);
        assert!((s.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_bernoulli_matches_lfsr_model_variance() {
        // Variance of sum w_i B_i is sum w_i^2 / 4.
        let weights = [-1.0, 0.5, 0.25, 0.125, 0.0625];
        let d = Distribution::sum_of_bernoulli(&weights, STEP);
        let expect: f64 = weights.iter().map(|w| w * w / 4.0).sum();
        assert!((d.variance() - expect).abs() < 0.01 * expect);
    }

    #[test]
    fn sum_of_uniform_variance() {
        let coeffs = [0.5, -0.25];
        let d = Distribution::sum_of_uniform(&coeffs, STEP);
        let expect: f64 = coeffs.iter().map(|c| c * c / 3.0).sum();
        assert!((d.variance() - expect).abs() < 0.02 * expect);
    }

    #[test]
    fn zone_probabilities() {
        let d = Distribution::uniform(-1.0, 1.0, STEP);
        assert!((d.prob_at_least(0.5) - 0.25).abs() < 0.01);
        assert!((d.prob_in(-0.5, 0.0) - 0.25).abs() < 0.01);
    }

    #[test]
    fn density_resampling_integrates_to_mass() {
        let d = Distribution::sum_of_bernoulli(&[0.5, 0.25, 0.125], STEP);
        let bins = 64;
        let density = d.density_on(-1.0, 1.0, bins);
        let integral: f64 = density.iter().map(|p| p * 2.0 / bins as f64).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "grid step mismatch")]
    fn convolve_mismatched_steps_panics() {
        let a = Distribution::delta(0.0, 0.01);
        let b = Distribution::delta(0.0, 0.02);
        let _ = a.convolve(&b);
    }

    #[test]
    fn convolution_conserves_mass() {
        for_each_seed(0xD5FC_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let w: Vec<f64> = (0..rng.range(1, 8)).map(|_| rng.uniform(-0.9, 0.9)).collect();
            let d = Distribution::sum_of_bernoulli(&w, STEP);
            assert!((d.total_mass() - 1.0).abs() < 1e-9, "{w:?}");
        });
    }

    #[test]
    fn mix_interpolates_mean() {
        for_each_seed(0xD5FD_0000, 256, |seed| {
            let p = Rng::new(seed).uniform(0.0, 1.0);
            let a = Distribution::delta(-0.5, STEP);
            let b = Distribution::delta(0.5, STEP);
            let m = a.mix(&b, p);
            assert!((m.mean() - (p * -0.5 + (1.0 - p) * 0.5)).abs() < 1e-9, "p {p}");
        });
    }
}
