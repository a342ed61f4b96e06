//! Signal statistics: moments and histograms.
//!
//! Signal variance is the paper's central testability measure (its Eq. 1
//! relates test-signal variance at an adder to fault detectability), and
//! histograms underpin its amplitude-distribution figures (Figs. 8–9).

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population variance (divides by `N`).
    pub variance: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics; returns `None` for empty input.
    ///
    /// # Example
    ///
    /// ```
    /// use bist_dsp::stats::Summary;
    /// let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
    /// assert_eq!(s.mean, 2.0);
    /// assert!((s.variance - 2.0 / 3.0).abs() < 1e-12);
    /// ```
    pub fn of(x: &[f64]) -> Option<Summary> {
        if x.is_empty() {
            return None;
        }
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let variance = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let min = x.iter().copied().fold(f64::INFINITY, f64::min);
        let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary { count: x.len(), mean, variance, min, max })
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Root-mean-square value.
    pub fn rms(&self) -> f64 {
        (self.variance + self.mean * self.mean).sqrt()
    }
}

/// A fixed-range histogram with uniform bins.
///
/// # Example
///
/// ```
/// use bist_dsp::stats::Histogram;
///
/// let mut h = Histogram::new(-1.0, 1.0, 4);
/// for &v in &[-0.9, -0.1, 0.1, 0.9, 2.0] {
///     h.add(v);
/// }
/// assert_eq!(h.counts(), &[1, 1, 1, 1]);
/// assert_eq!(h.outliers(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    outliers: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range is empty");
        Histogram { lo, hi, counts: vec![0; bins], outliers: 0, total: 0 }
    }

    /// Adds one sample; values outside `[lo, hi)` count as outliers.
    pub fn add(&mut self, v: f64) {
        self.total += 1;
        if v < self.lo || v >= self.hi || !v.is_finite() {
            self.outliers += 1;
            return;
        }
        let idx = ((v - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Adds every sample of a slice.
    pub fn extend_from(&mut self, values: &[f64]) {
        for &v in values {
            self.add(v);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of samples that fell outside the range.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Total samples added (in-range + outliers).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Probability-density estimate per bin (integrates to the in-range
    /// fraction of the data).
    pub fn density(&self) -> Vec<f64> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let n = self.total.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / (n * w)).collect()
    }

    /// Probability mass per bin.
    pub fn pmf(&self) -> Vec<f64> {
        let n = self.total.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{for_each_seed, Rng};

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_constant() {
        let s = Summary::of(&[5.0; 10]).unwrap();
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.rms(), 5.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn uniform_word_variance_is_one_third() {
        // The paper: a uniform signal over [-1, 1) has variance 1/3
        // (the "0.3333" of its LFSR characterization).
        let n = 4096;
        let x: Vec<f64> = (0..n).map(|i| -1.0 + 2.0 * (i as f64 + 0.5) / n as f64).collect();
        let s = Summary::of(&x).unwrap();
        assert!(s.mean.abs() < 1e-9);
        assert!((s.variance - 1.0 / 3.0).abs() < 1e-4);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.extend_from(&[0.05, 0.15, 0.95, 1.0, -0.001, f64::NAN]);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.outliers(), 3);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let mut h = Histogram::new(-1.0, 1.0, 64);
        for i in 0..1000 {
            h.add(-0.999 + 1.99 * (i as f64 / 1000.0));
        }
        let w = 2.0 / 64.0;
        let integral: f64 = h.density().iter().map(|d| d * w).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn variance_nonnegative_and_shift_invariant() {
        for_each_seed(0xD5F0_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let x: Vec<f64> = (0..rng.range(1, 50)).map(|_| rng.uniform(-100.0, 100.0)).collect();
            let shift = rng.uniform(-10.0, 10.0);
            let s1 = Summary::of(&x).unwrap();
            let shifted: Vec<f64> = x.iter().map(|v| v + shift).collect();
            let s2 = Summary::of(&shifted).unwrap();
            assert!(s1.variance >= 0.0);
            assert!((s1.variance - s2.variance).abs() < 1e-6 * (1.0 + s1.variance));
        });
    }

    #[test]
    fn histogram_conserves_samples() {
        for_each_seed(0xD5F1_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let x: Vec<f64> = (0..rng.below(200)).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let mut h = Histogram::new(-1.0, 1.0, 16);
            h.extend_from(&x);
            let binned: u64 = h.counts().iter().sum();
            assert_eq!(binned + h.outliers(), x.len() as u64);
        });
    }
}
