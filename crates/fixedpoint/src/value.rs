use crate::{FixedPointError, QFormat};
use std::cmp::Ordering;
use std::fmt;

/// A fixed-point value: a raw two's-complement word paired with its format.
///
/// Arithmetic mirrors what the hardware in `bist-rtl` does: additions either
/// wrap (like a plain ripple-carry adder) or saturate, and right shifts are
/// arithmetic with truncation toward negative infinity — exactly the
/// behaviour of a hardwired shift in a CSD multiplier.
///
/// # Example
///
/// ```
/// use bist_fixedpoint::{Fx, QFormat};
///
/// let q = QFormat::new(8, 7)?;
/// let x = Fx::from_f64(-0.75, q)?;
/// assert_eq!(x.shifted_right(1).to_f64(), -0.375);
/// assert_eq!(x.wrapping_neg().to_f64(), 0.75);
/// # Ok::<(), bist_fixedpoint::FixedPointError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fx {
    raw: i64,
    format: QFormat,
}

impl Fx {
    /// Builds a value from a raw two's-complement word.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::RawOverflow`] if `raw` does not fit in the
    /// format's width.
    pub fn from_raw(raw: i64, format: QFormat) -> Result<Self, FixedPointError> {
        if !format.contains_raw(raw) {
            return Err(FixedPointError::RawOverflow { raw, width: format.width() });
        }
        Ok(Fx { raw, format })
    }

    /// Builds a value from a raw word, wrapping it into range first.
    pub fn from_raw_wrapped(raw: i64, format: QFormat) -> Self {
        Fx { raw: format.wrap(raw), format }
    }

    /// Quantizes `value` to the nearest representable point (ties to even raw).
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::OutOfRange`] if `value` rounds outside the
    /// representable range.
    pub fn from_f64(value: f64, format: QFormat) -> Result<Self, FixedPointError> {
        let scaled = value / format.lsb();
        let raw = round_half_even(scaled);
        if !format.contains_raw(raw) || !scaled.is_finite() {
            return Err(FixedPointError::OutOfRange {
                value,
                min: format.min_value(),
                max: format.max_value() + format.lsb(),
            });
        }
        Ok(Fx { raw, format })
    }

    /// The zero value in `format`.
    pub fn zero(format: QFormat) -> Self {
        Fx { raw: 0, format }
    }

    /// The most positive representable value.
    pub fn max(format: QFormat) -> Self {
        Fx { raw: format.max_raw(), format }
    }

    /// The most negative representable value.
    pub fn min(format: QFormat) -> Self {
        Fx { raw: format.min_raw(), format }
    }

    /// The raw two's-complement word.
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// The word format.
    pub fn format(self) -> QFormat {
        self.format
    }

    /// The value as a float (`raw * 2^-frac_bits`); exact for widths ≤ 53.
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * self.format.lsb()
    }

    /// The unsigned bit pattern of the word.
    pub fn to_bits(self) -> u64 {
        self.format.to_bits(self.raw)
    }

    /// Value of a single bit (`0` = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= width`.
    pub fn bit(self, bit: u32) -> bool {
        assert!(bit < self.format.width(), "bit {bit} out of range");
        (self.to_bits() >> bit) & 1 == 1
    }

    /// Modular (wrap-around) addition, like a bare ripple-carry adder.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different formats.
    pub fn wrapping_add(self, rhs: Fx) -> Fx {
        assert_eq!(self.format, rhs.format, "format mismatch in add");
        Fx::from_raw_wrapped(self.raw + rhs.raw, self.format)
    }

    /// Modular subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different formats.
    pub fn wrapping_sub(self, rhs: Fx) -> Fx {
        assert_eq!(self.format, rhs.format, "format mismatch in sub");
        Fx::from_raw_wrapped(self.raw - rhs.raw, self.format)
    }

    /// Modular negation (note `-min == min`, as in real hardware).
    pub fn wrapping_neg(self) -> Fx {
        Fx::from_raw_wrapped(-self.raw, self.format)
    }

    /// Saturating addition (clamps at the format's extremes).
    ///
    /// # Panics
    ///
    /// Panics if the operands have different formats.
    pub fn saturating_add(self, rhs: Fx) -> Fx {
        assert_eq!(self.format, rhs.format, "format mismatch in add");
        let sum = (self.raw + rhs.raw).clamp(self.format.min_raw(), self.format.max_raw());
        Fx { raw: sum, format: self.format }
    }

    /// Returns `(sum, overflowed)` for a wrap-around addition.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different formats.
    pub fn overflowing_add(self, rhs: Fx) -> (Fx, bool) {
        assert_eq!(self.format, rhs.format, "format mismatch in add");
        let exact = self.raw + rhs.raw;
        let wrapped = self.format.wrap(exact);
        (Fx { raw: wrapped, format: self.format }, wrapped != exact)
    }

    /// Arithmetic right shift by `n` (truncation toward negative infinity),
    /// as performed by a hardwired shift in a CSD multiplier.
    pub fn shifted_right(self, n: u32) -> Fx {
        let n = n.min(63);
        Fx { raw: self.raw >> n, format: self.format }
    }
}

impl PartialOrd for Fx {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.format == other.format {
            Some(self.raw.cmp(&other.raw))
        } else {
            self.to_f64().partial_cmp(&other.to_f64())
        }
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.format)
    }
}

fn round_half_even(x: f64) -> i64 {
    let floor = x.floor();
    let frac = x - floor;
    let base = floor as i64;
    match frac.partial_cmp(&0.5) {
        Some(Ordering::Less) => base,
        Some(Ordering::Greater) => base + 1,
        _ => {
            if base % 2 == 0 {
                base
            } else {
                base + 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(w: u32, f: u32) -> QFormat {
        QFormat::new(w, f).unwrap()
    }

    #[test]
    fn from_f64_quantizes_to_nearest() {
        let fmt = q(8, 7);
        let x = Fx::from_f64(0.5 + 0.4 * fmt.lsb(), fmt).unwrap();
        assert_eq!(x.raw(), 64);
        let y = Fx::from_f64(0.5 + 0.6 * fmt.lsb(), fmt).unwrap();
        assert_eq!(y.raw(), 65);
    }

    #[test]
    fn from_f64_rejects_out_of_range() {
        let fmt = q(8, 7);
        assert!(Fx::from_f64(1.0, fmt).is_err());
        assert!(Fx::from_f64(-1.01, fmt).is_err());
        assert!(Fx::from_f64(f64::NAN, fmt).is_err());
        assert!(Fx::from_f64(-1.0, fmt).is_ok());
    }

    #[test]
    fn wrapping_add_overflows_like_hardware() {
        let fmt = q(16, 15);
        let a = Fx::from_f64(0.75, fmt).unwrap();
        let (sum, ovf) = a.overflowing_add(a);
        assert!(ovf);
        assert_eq!(sum.to_f64(), 0.75 + 0.75 - 2.0);
    }

    #[test]
    fn saturating_add_clamps() {
        let fmt = q(8, 7);
        let a = Fx::from_f64(0.75, fmt).unwrap();
        assert_eq!(a.saturating_add(a), Fx::max(fmt));
        let b = Fx::min(fmt);
        assert_eq!(b.saturating_add(b), Fx::min(fmt));
    }

    #[test]
    fn shift_truncates_toward_negative_infinity() {
        let fmt = q(8, 7);
        let x = Fx::from_raw(-3, fmt).unwrap();
        assert_eq!(x.shifted_right(1).raw(), -2);
        let y = Fx::from_raw(3, fmt).unwrap();
        assert_eq!(y.shifted_right(1).raw(), 1);
    }

    #[test]
    fn neg_of_min_is_min() {
        let fmt = q(8, 7);
        assert_eq!(Fx::min(fmt).wrapping_neg(), Fx::min(fmt));
    }

    #[test]
    fn bit_access_matches_pattern() {
        let fmt = q(4, 3);
        let x = Fx::from_raw(-3, fmt).unwrap(); // 1101
        assert!(x.bit(0));
        assert!(!x.bit(1));
        assert!(x.bit(2));
        assert!(x.bit(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let fmt = q(4, 3);
        Fx::zero(fmt).bit(4);
    }

    /// Every raw pair of the 8-bit Q1.7 format.
    fn q8_pairs() -> impl Iterator<Item = (Fx, Fx)> {
        let fmt = q(8, 7);
        let all = move || (-128..=127).map(move |raw| Fx::from_raw(raw, fmt).unwrap());
        all().flat_map(move |x| all().map(move |y| (x, y)))
    }

    #[test]
    fn round_trip_raw() {
        let fmt = q(16, 15);
        for raw in -32768..=32767 {
            let x = Fx::from_raw(raw, fmt).unwrap();
            assert_eq!(Fx::from_f64(x.to_f64(), fmt).unwrap(), x, "raw {raw}");
        }
    }

    #[test]
    fn wrapping_add_is_modular() {
        for (x, y) in q8_pairs() {
            let s = x.wrapping_add(y);
            assert_eq!((s.raw() - (x.raw() + y.raw())).rem_euclid(256), 0, "{x:?} + {y:?}");
            assert!(x.format().contains_raw(s.raw()), "{x:?} + {y:?}");
        }
    }

    #[test]
    fn add_commutes() {
        for (x, y) in q8_pairs() {
            assert_eq!(x.wrapping_add(y), y.wrapping_add(x), "{x:?} + {y:?}");
        }
    }

    #[test]
    fn sub_is_add_neg() {
        for (x, y) in q8_pairs() {
            assert_eq!(x.wrapping_sub(y), x.wrapping_add(y.wrapping_neg()), "{x:?} - {y:?}");
        }
    }

    #[test]
    fn shift_halves() {
        let fmt = q(16, 15);
        for raw in -32768..=32767 {
            let x = Fx::from_raw(raw, fmt).unwrap();
            for n in 0..8 {
                let shifted = x.shifted_right(n).to_f64();
                let exact = x.to_f64() / 2f64.powi(n as i32);
                // Truncation error is bounded by one LSB, always toward -inf.
                assert!(shifted <= exact + 1e-12, "raw {raw} >> {n}");
                assert!(shifted > exact - fmt.lsb() - 1e-12, "raw {raw} >> {n}");
            }
        }
    }

    #[test]
    fn sign_extension_consistent() {
        let fmt = q(12, 11);
        for raw in -2048..=2047 {
            let x = Fx::from_raw(raw, fmt).unwrap();
            assert_eq!(fmt.sign_extend(x.to_bits()), raw);
        }
    }
}
