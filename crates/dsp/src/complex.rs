use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A complex number over `f64`, sufficient for FFT and frequency-response
/// work.
///
/// # Example
///
/// ```
/// use bist_dsp::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.norm(), 5.0);
/// assert_eq!((z * z.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates `re + i*im`.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Complex { re: 0.0, im: 0.0 }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Complex { re: 1.0, im: 0.0 }
    }

    /// A purely real number.
    pub fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^(i*theta)` — a point on the unit circle.
    ///
    /// # Example
    ///
    /// ```
    /// use bist_dsp::Complex;
    /// let z = Complex::cis(std::f64::consts::PI);
    /// assert!((z.re + 1.0).abs() < 1e-15);
    /// ```
    pub fn cis(theta: f64) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Modulus `|z|`.
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|^2` (cheaper than [`Complex::norm`]).
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    pub fn scale(self, k: f64) -> Self {
        Complex { re: self.re * k, im: self.im * k }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{for_each_seed, Rng};

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = (a / b) * b;
        assert!((q - a).norm() < 1e-12);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let z = Complex::cis(k as f64 * 0.5);
            assert!((z.norm() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn display_formats_both_signs() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn mul_conj_is_norm_sqr() {
        for_each_seed(0xD5FA_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let z = Complex::new(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0));
            let p = z * z.conj();
            assert!((p.re - z.norm_sqr()).abs() < 1e-9 * (1.0 + z.norm_sqr()), "{z:?}");
            assert!(p.im.abs() < 1e-9 * (1.0 + z.norm_sqr()), "{z:?}");
        });
    }

    #[test]
    fn mul_distributes() {
        for_each_seed(0xD5FB_0000, 256, |seed| {
            let mut rng = Rng::new(seed);
            let [a, b, c, d] = [0; 4].map(|_| rng.uniform(-10.0, 10.0));
            let x = Complex::new(a, b);
            let y = Complex::new(c, d);
            let z = Complex::new(d, a);
            let lhs = x * (y + z);
            let rhs = x * y + x * z;
            assert!((lhs - rhs).norm() < 1e-9, "{x:?} * ({y:?} + {z:?})");
        });
    }
}
