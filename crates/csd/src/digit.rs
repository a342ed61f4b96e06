use std::fmt;

/// One signed power-of-two term, `sign * 2^power`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignedDigit {
    /// Bit position (`2^power`); may be negative when the digit encodes a
    /// fractional coefficient term.
    pub power: i32,
    /// `false` for `+2^power`, `true` for `-2^power`.
    pub negative: bool,
}

impl SignedDigit {
    /// The digit's numeric value as a float.
    pub fn value(self) -> f64 {
        let v = 2f64.powi(self.power);
        if self.negative {
            -v
        } else {
            v
        }
    }
}

impl fmt::Display for SignedDigit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}2^{}", if self.negative { "-" } else { "+" }, self.power)
    }
}

/// A canonic-signed-digit representation: signed powers of two with no
/// two adjacent nonzero digits, which minimizes the nonzero-digit count
/// among all signed-digit representations.
///
/// # Example
///
/// ```
/// use bist_csd::Csd;
///
/// let c = Csd::from_integer(-23); // -23 = -32 + 8 + 1
/// assert_eq!(c.to_integer(), -23);
/// assert_eq!(c.nonzero_digits(), 3);
/// assert!(c.is_canonic());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csd {
    digits: Vec<SignedDigit>, // sorted by descending power
}

impl Csd {
    /// Recodes an integer into CSD form.
    ///
    /// Uses the classic non-adjacent-form recoding: scan from the LSB;
    /// whenever the remaining value is odd, emit the digit `±1` that
    /// makes the remainder divisible by 4.
    pub fn from_integer(mut value: i64) -> Self {
        let mut digits = Vec::new();
        let mut power = 0;
        while value != 0 {
            if value & 1 != 0 {
                // Choose the residue in {-1, +1} that zeroes the next bit too.
                let rem: i64 = if value & 3 == 3 { -1 } else { 1 };
                digits.push(SignedDigit { power, negative: rem < 0 });
                value -= rem;
            }
            value >>= 1;
            power += 1;
        }
        digits.reverse();
        Csd { digits }
    }

    /// Builds a CSD value from explicit digits.
    ///
    /// The digits are sorted by descending power. No canonicity check is
    /// performed — use [`Csd::is_canonic`] if you need the guarantee.
    pub fn from_digits(mut digits: Vec<SignedDigit>) -> Self {
        digits.sort_by_key(|d| std::cmp::Reverse(d.power));
        Csd { digits }
    }

    /// The digits, ordered from most- to least-significant.
    pub fn digits(&self) -> &[SignedDigit] {
        &self.digits
    }

    /// Number of nonzero digits (equals 1 + the number of adders needed
    /// by a shift-and-add multiplier, except that zero digits need none).
    pub fn nonzero_digits(&self) -> usize {
        self.digits.len()
    }

    /// Evaluates the representation back to an integer.
    ///
    /// # Panics
    ///
    /// Panics if any digit has a negative power (fractional digits cannot
    /// be represented as an integer).
    pub fn to_integer(&self) -> i64 {
        self.digits
            .iter()
            .map(|d| {
                assert!(d.power >= 0, "fractional digit in integer evaluation");
                let v = 1i64 << d.power;
                if d.negative {
                    -v
                } else {
                    v
                }
            })
            .sum()
    }

    /// Evaluates the representation as a float (handles fractional powers).
    pub fn to_f64(&self) -> f64 {
        self.digits.iter().map(|d| d.value()).sum()
    }

    /// `true` if no two nonzero digits occupy adjacent bit positions.
    pub fn is_canonic(&self) -> bool {
        self.digits.windows(2).all(|w| w[0].power - w[1].power >= 2)
    }

    /// Rescales all digit powers by `shift` (multiply by `2^shift`);
    /// used to move between integer and fractional coefficient domains.
    pub fn shifted(&self, shift: i32) -> Csd {
        Csd {
            digits: self
                .digits
                .iter()
                .map(|d| SignedDigit { power: d.power + shift, negative: d.negative })
                .collect(),
        }
    }
}

impl fmt::Display for Csd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.digits.is_empty() {
            return write!(f, "0");
        }
        for (i, d) in self.digits.iter().enumerate() {
            if i == 0 {
                write!(f, "{d}")?;
            } else {
                write!(f, " {d}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{for_each_seed, Rng};

    #[test]
    fn zero_has_no_digits() {
        let c = Csd::from_integer(0);
        assert_eq!(c.nonzero_digits(), 0);
        assert_eq!(c.to_integer(), 0);
        assert_eq!(c.to_string(), "0");
        assert!(c.is_canonic());
    }

    #[test]
    fn known_recodings() {
        // 7 = 8 - 1
        let c7 = Csd::from_integer(7);
        assert_eq!(
            c7.digits(),
            &[SignedDigit { power: 3, negative: false }, SignedDigit { power: 0, negative: true }]
        );
        // 5 = 4 + 1 (already sparse)
        assert_eq!(Csd::from_integer(5).nonzero_digits(), 2);
        // 15 = 16 - 1
        assert_eq!(Csd::from_integer(15).nonzero_digits(), 2);
        // 0b101010101 stays 5 digits
        assert_eq!(Csd::from_integer(0b1_0101_0101).nonzero_digits(), 5);
    }

    #[test]
    fn negative_values_recode() {
        let c = Csd::from_integer(-7);
        assert_eq!(c.to_integer(), -7);
        assert_eq!(c.nonzero_digits(), 2);
        assert!(c.is_canonic());
    }

    #[test]
    fn shifted_scales_value() {
        let c = Csd::from_integer(5).shifted(-3);
        assert!((c.to_f64() - 5.0 / 8.0).abs() < 1e-15);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Csd::from_integer(7).to_string(), "+2^3 -2^0");
    }

    #[test]
    fn from_digits_sorts() {
        let c = Csd::from_digits(vec![
            SignedDigit { power: 0, negative: true },
            SignedDigit { power: 3, negative: false },
        ]);
        assert_eq!(c.digits()[0].power, 3);
    }

    /// Uniform in `-bound..bound`.
    fn int(rng: &mut Rng, bound: usize) -> i64 {
        rng.below(2 * bound) as i64 - bound as i64
    }

    #[test]
    fn round_trip() {
        for_each_seed(0xC5D0_0000, 256, |seed| {
            let v = int(&mut Rng::new(seed), 100_000);
            assert_eq!(Csd::from_integer(v).to_integer(), v);
        });
    }

    #[test]
    fn always_canonic() {
        for_each_seed(0xC5D1_0000, 256, |seed| {
            let v = int(&mut Rng::new(seed), 1_000_000);
            assert!(Csd::from_integer(v).is_canonic(), "{v}");
        });
    }

    #[test]
    fn digit_count_at_most_binary_ones() {
        // CSD never uses more nonzero digits than plain binary.
        for_each_seed(0xC5D2_0000, 256, |seed| {
            let v = Rng::new(seed).below(1_000_000) as i64;
            assert!(Csd::from_integer(v).nonzero_digits() <= v.count_ones() as usize, "{v}");
        });
    }

    #[test]
    fn f64_matches_integer() {
        for_each_seed(0xC5D3_0000, 256, |seed| {
            let v = int(&mut Rng::new(seed), 100_000);
            assert!((Csd::from_integer(v).to_f64() - v as f64).abs() < 1e-9, "{v}");
        });
    }
}
