//! Window functions for FIR design and spectrum estimation.
//!
//! The filter designs in `bist-filters` use Kaiser windows (adjustable
//! stopband attenuation — important because coefficient quantization to
//! CSD limits the achievable stopband anyway), and the Welch spectrum
//! estimator in [`crate::spectrum`] uses Hann windows by default.

use std::f64::consts::PI;

/// The supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Window {
    /// All-ones window.
    Rectangular,
    /// Raised cosine, zero at both ends.
    Hann,
    /// Raised cosine on a pedestal.
    Hamming,
    /// Three-term Blackman window.
    Blackman,
    /// Kaiser window with shape parameter `beta`.
    Kaiser {
        /// Shape parameter; larger means more sidelobe attenuation.
        beta: f64,
    },
}

impl Window {
    /// Samples the window at `n` symmetric points.
    ///
    /// Returns an empty vector for `n == 0` and `[1.0]` for `n == 1`.
    ///
    /// # Example
    ///
    /// ```
    /// use bist_dsp::window::Window;
    ///
    /// let w = Window::Hann.coefficients(5);
    /// assert_eq!(w.len(), 5);
    /// assert!((w[2] - 1.0).abs() < 1e-12); // symmetric peak
    /// assert!(w[0].abs() < 1e-12);
    /// ```
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let m = (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = i as f64 / m; // 0..=1
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
                    Window::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
                    Window::Blackman => {
                        0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos()
                    }
                    Window::Kaiser { beta } => {
                        let t = 2.0 * x - 1.0; // -1..=1
                        bessel_i0(beta * (1.0 - t * t).max(0.0).sqrt()) / bessel_i0(beta)
                    }
                }
            })
            .collect()
    }

    /// Kaiser `beta` giving approximately `atten_db` of stopband
    /// attenuation (Kaiser's empirical formula).
    ///
    /// # Example
    ///
    /// ```
    /// use bist_dsp::window::Window;
    /// let beta = Window::kaiser_beta_for_attenuation(60.0);
    /// assert!(beta > 5.0 && beta < 6.0);
    /// ```
    pub fn kaiser_beta_for_attenuation(atten_db: f64) -> f64 {
        if atten_db > 50.0 {
            0.1102 * (atten_db - 8.7)
        } else if atten_db >= 21.0 {
            0.5842 * (atten_db - 21.0).powf(0.4) + 0.07886 * (atten_db - 21.0)
        } else {
            0.0
        }
    }
}

/// Modified Bessel function of the first kind, order zero, via its power
/// series. Accurate to ~1e-15 for the argument range used by Kaiser
/// windows (|x| < ~30).
pub fn bessel_i0(x: f64) -> f64 {
    let half = x / 2.0;
    let mut term = 1.0;
    let mut sum = 1.0;
    for k in 1..64 {
        term *= (half / k as f64) * (half / k as f64);
        sum += term;
        if term < sum * 1e-17 {
            break;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{for_each_seed, Rng};

    #[test]
    fn degenerate_lengths() {
        assert!(Window::Hann.coefficients(0).is_empty());
        assert_eq!(Window::Kaiser { beta: 5.0 }.coefficients(1), vec![1.0]);
    }

    #[test]
    fn hamming_endpoints_are_pedestal() {
        let w = Window::Hamming.coefficients(11);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[10] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn blackman_near_zero_at_ends() {
        let w = Window::Blackman.coefficients(33);
        assert!(w[0].abs() < 1e-12);
        assert!((w[16] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kaiser_beta_zero_is_rectangular() {
        let k = Window::Kaiser { beta: 0.0 }.coefficients(9);
        for &v in &k {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bessel_i0_reference_values() {
        // Abramowitz & Stegun table values.
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-15);
        assert!((bessel_i0(1.0) - 1.2660658777520084).abs() < 1e-12);
        assert!((bessel_i0(2.0) - 2.2795853023360673).abs() < 1e-12);
        assert!((bessel_i0(5.0) - 27.239871823604442).abs() < 1e-9);
    }

    #[test]
    fn attenuation_formula_regions() {
        assert_eq!(Window::kaiser_beta_for_attenuation(10.0), 0.0);
        let mid = Window::kaiser_beta_for_attenuation(40.0);
        assert!(mid > 3.0 && mid < 4.0);
        let high = Window::kaiser_beta_for_attenuation(80.0);
        assert!((high - 0.1102 * 71.3).abs() < 1e-12);
    }

    #[test]
    fn windows_symmetric_and_bounded() {
        for_each_seed(0xD5F5_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let n = rng.range(2, 64);
            let w = match rng.below(5) {
                0 => Window::Rectangular,
                1 => Window::Hann,
                2 => Window::Hamming,
                3 => Window::Blackman,
                _ => Window::Kaiser { beta: 6.0 },
            };
            let c = w.coefficients(n);
            assert_eq!(c.len(), n);
            for i in 0..n {
                assert!(c[i] <= 1.0 + 1e-12);
                assert!(c[i] >= -1e-12);
                assert!((c[i] - c[n - 1 - i]).abs() < 1e-12, "{w:?} asymmetric at {i}");
            }
        });
    }
}
