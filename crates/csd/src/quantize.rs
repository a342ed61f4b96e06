use crate::{Csd, SignedDigit};

/// A coefficient quantized to a digit-budgeted CSD value.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedCoefficient {
    /// The CSD representation of [`QuantizedCoefficient::raw`], expressed
    /// in integer powers (multiply by `2^-frac_bits` for the value).
    pub csd: Csd,
    /// The quantized value as an integer in units of `2^-frac_bits`.
    pub raw: i64,
    /// Fractional precision of the quantization.
    pub frac_bits: u32,
    /// The quantized value as a float.
    pub value: f64,
    /// Quantization error `value - target`.
    pub error: f64,
}

impl QuantizedCoefficient {
    /// CSD digits scaled into the fractional domain
    /// (powers are `digit.power - frac_bits`).
    pub fn fractional_digits(&self) -> Vec<SignedDigit> {
        self.csd.shifted(-(self.frac_bits as i32)).digits().to_vec()
    }
}

/// Quantizes `target` to the nearest value representable with at most
/// `max_digits` signed power-of-two terms on a `2^-frac_bits` grid.
///
/// First the target is rounded to the grid and recoded exactly; if the
/// exact CSD already fits the digit budget it is used. Otherwise a greedy
/// signed-power-of-two approximation (repeatedly subtracting the closest
/// `±2^k`) is taken and re-canonicalized — the classic approach used for
/// multiplierless FIR coefficient design.
///
/// # Panics
///
/// Panics if `max_digits == 0`, `frac_bits > 62`, or `target` is not
/// finite.
///
/// # Example
///
/// ```
/// use bist_csd::quantize;
///
/// let q = quantize(0.3333, 10, 3);
/// assert!(q.csd.nonzero_digits() <= 3);
/// assert!((q.value - 0.3333).abs() < 0.01);
/// ```
pub fn quantize(target: f64, frac_bits: u32, max_digits: usize) -> QuantizedCoefficient {
    assert!(max_digits > 0, "digit budget must be nonzero");
    assert!(frac_bits <= 62, "fractional precision too large");
    assert!(target.is_finite(), "target must be finite");
    let scale = (1u64 << frac_bits) as f64;
    let exact_raw = (target * scale).round() as i64;
    let exact = Csd::from_integer(exact_raw);
    let raw = if exact.nonzero_digits() <= max_digits {
        exact_raw
    } else {
        greedy_spt(target * scale, max_digits)
    };
    let csd = Csd::from_integer(raw);
    debug_assert!(csd.nonzero_digits() <= max_digits);
    let value = raw as f64 / scale;
    QuantizedCoefficient { csd, raw, frac_bits, value, error: value - target }
}

/// Greedy signed-power-of-two approximation of `x` with at most `terms`
/// terms; each step takes the power of two closest to the residual.
fn greedy_spt(x: f64, terms: usize) -> i64 {
    let mut residual = x;
    let mut acc = 0i64;
    for _ in 0..terms {
        if residual.abs() < 0.5 {
            break;
        }
        let p = residual.abs().log2().round() as i32;
        let p = p.max(0);
        let term = 1i64 << p.min(62);
        if residual < 0.0 {
            acc -= term;
            residual += term as f64;
        } else {
            acc += term;
            residual -= term as f64;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{for_each_seed, Rng};

    #[test]
    fn exact_values_pass_through() {
        let q = quantize(0.5, 15, 4);
        assert_eq!(q.raw, 1 << 14);
        assert_eq!(q.error, 0.0);
        assert_eq!(q.csd.nonzero_digits(), 1);
    }

    #[test]
    fn digit_budget_is_respected() {
        // 0.justunder-1 needs many digits exactly; budget forces approximation.
        let q = quantize(0.49993896484375, 14, 2);
        assert!(q.csd.nonzero_digits() <= 2);
        assert!(q.error.abs() < 2f64.powi(-10));
    }

    #[test]
    fn negative_targets() {
        let q = quantize(-0.3, 12, 3);
        assert!(q.value < 0.0);
        assert!(q.error.abs() < 0.01);
        assert!(q.csd.is_canonic());
    }

    #[test]
    fn zero_target_is_zero() {
        let q = quantize(0.0, 15, 4);
        assert_eq!(q.raw, 0);
        assert_eq!(q.csd.nonzero_digits(), 0);
        assert_eq!(q.value, 0.0);
    }

    #[test]
    fn fractional_digits_scale_powers() {
        let q = quantize(0.5, 15, 4);
        let d = q.fractional_digits();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].power, -1);
    }

    #[test]
    #[should_panic(expected = "digit budget")]
    fn zero_budget_panics() {
        quantize(0.5, 15, 0);
    }

    #[test]
    fn error_bounded_for_generous_budget() {
        for_each_seed(0xC5D4_0000, 256, |seed| {
            let t = Rng::new(seed).uniform(-0.999, 0.999);
            // With 4 digits at 14 fractional bits the error for smooth
            // FIR coefficients stays small; here we only guarantee a
            // loose bound.
            let q = quantize(t, 14, 4);
            assert!(q.error.abs() <= 0.05, "target {t} error {}", q.error);
            assert!(q.csd.nonzero_digits() <= 4, "target {t}");
        });
    }

    #[test]
    fn result_is_canonic_and_consistent() {
        for_each_seed(0xC5D5_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let (t, digits) = (rng.uniform(-0.999, 0.999), rng.range(1, 6));
            let q = quantize(t, 12, digits);
            assert!(q.csd.is_canonic(), "target {t}");
            assert!(q.csd.nonzero_digits() <= digits, "target {t}");
            assert_eq!(q.csd.to_integer(), q.raw, "target {t}");
            assert!((q.value - q.raw as f64 / 4096.0).abs() < 1e-12, "target {t}");
        });
    }

    #[test]
    fn quantizing_a_quantized_value_is_identity() {
        for_each_seed(0xC5D6_0000, 256, |seed| {
            let t = Rng::new(seed).uniform(-0.999, 0.999);
            let q1 = quantize(t, 13, 4);
            assert_eq!(quantize(q1.value, 13, 4).raw, q1.raw, "target {t}");
        });
    }
}
