//! Multiple-input signature register models: a scalar reference and a
//! 64-lane word-parallel bank for the bit-sliced simulator.
//!
//! A MISR is a linear-feedback shift register that XORs one response
//! word into its state every cycle. After the full test, the state (the
//! *signature*) stands in for the whole response stream: a fault is
//! "signature-detected" when its final signature differs from the
//! fault-free one. Because the compactor is linear over GF(2), a fault
//! escapes exactly when its error sequence is a codeword of the
//! polynomial's cyclic code — probability ≈ `2^-width` for a primitive
//! polynomial and an error sequence without structure (see
//! `DESIGN.md` §10 for the derivation and the paper-roster measurement).
//!
//! Both models here take the feedback polynomial as an explicit
//! parameter: this crate models hardware and does not choose
//! polynomials. The tabulated primitive polynomials live in the `tpg`
//! crate; `bist-core`'s session layer wires the two together.
//!
//! [`Misr`] is the scalar (one machine) register and the behavioural
//! reference. [`MisrBank`] is the same register replicated across the
//! 64 lanes of [`crate::sim::BitSlicedSim`], stored as bit-planes so
//! one `u64` operation advances all 64 machines — the good machine and
//! up to 63 faulty ones fold their output streams into per-lane
//! signatures inside the simulator's inner loop, with no per-lane
//! extraction until readout.

use crate::RtlError;

/// Number of lanes a [`MisrBank`] advances per absorb (one per bit of
/// the plane words — the same 64 as [`crate::sim::BitSlicedSim`]).
pub const LANES: u32 = 64;

fn check_width(width: u32) -> Result<(), RtlError> {
    // 1..=63 so `1u64 << width` and the state mask are well defined.
    if width == 0 || width > 63 {
        return Err(RtlError::InvalidMisrWidth { width });
    }
    Ok(())
}

/// A scalar Galois-feedback multiple-input signature register with an
/// explicit feedback polynomial.
///
/// The update per absorbed word `x` is
/// `state ← ((state << 1) ^ (msb ? poly : 0) ^ x) mod 2^width`,
/// i.e. multiplication by `x` in `GF(2)[x]/p(x)` followed by the input
/// XOR. `bist-core::misr::Misr` wraps this with the tabulated
/// primitive-polynomial lookup.
///
/// # Example
///
/// ```
/// use bist_rtl::misr::Misr;
///
/// // x^12 + x^6 + x^4 + x + 1, the workspace's tabulated 12-bit poly.
/// let mut m = Misr::with_polynomial(12, 0x1053)?;
/// for w in 0..100i64 {
///     m.absorb(w);
/// }
/// let clean = m.signature();
/// m.reset();
/// for w in 0..100i64 {
///     m.absorb(if w == 42 { w ^ 1 } else { w }); // one corrupted word
/// }
/// assert_ne!(m.signature(), clean);
/// # Ok::<(), bist_rtl::RtlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    width: u32,
    poly_low: u64,
    state: u64,
}

impl Misr {
    /// Creates a `width`-bit MISR (zero initial state) with the given
    /// feedback polynomial. The polynomial's `x^width` term, if
    /// present, is masked off — `0x1053` and `0x053` describe the same
    /// 12-bit register.
    ///
    /// # Errors
    ///
    /// [`RtlError::InvalidMisrWidth`] unless `1 <= width <= 63`.
    pub fn with_polynomial(width: u32, poly: u64) -> Result<Self, RtlError> {
        check_width(width)?;
        Ok(Misr { width, poly_low: poly & ((1u64 << width) - 1), state: 0 })
    }

    /// Absorbs one response word (its low `width` bits).
    pub fn absorb(&mut self, word: i64) {
        let mask = (1u64 << self.width) - 1;
        let msb = (self.state >> (self.width - 1)) & 1;
        self.state = ((self.state << 1) & mask) ^ if msb == 1 { self.poly_low } else { 0 };
        self.state ^= (word as u64) & mask;
    }

    /// Absorbs a whole response sequence.
    pub fn absorb_all(&mut self, words: &[i64]) {
        for &w in words {
            self.absorb(w);
        }
    }

    /// The current signature.
    pub fn signature(&self) -> u64 {
        self.state
    }

    /// Resets the signature to zero.
    pub fn reset(&mut self) {
        self.state = 0;
    }

    /// Register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The feedback polynomial's low terms (the `x^width` term is
    /// implicit).
    pub fn poly_low(&self) -> u64 {
        self.poly_low
    }
}

/// 64 independent [`Misr`]s advanced word-parallel, one per simulator
/// lane.
///
/// State is stored as `width` bit-planes: bit `l` of plane `b` is bit
/// `b` of lane `l`'s register. [`MisrBank::absorb_planes`] takes a
/// node's bit-planes straight out of
/// [`crate::sim::BitSlicedSim`] (via
/// [`crate::sim::BitSlicedSim::fold_outputs`]) and performs the Galois
/// update for all lanes in `O(width)` word operations. Every lane sees
/// the same polynomial — the bank models 64 copies of one piece of
/// hardware, not 64 different compactors.
///
/// Lane-for-lane, the bank is bit-identical to running a scalar
/// [`Misr`] on that lane's sign-extended word stream (a unit test and
/// the session-level determinism tests pin this down).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisrBank {
    width: u32,
    poly_low: u64,
    planes: Vec<u64>,
}

impl MisrBank {
    /// Creates a bank of 64 zero-state `width`-bit MISRs sharing one
    /// feedback polynomial (the `x^width` term is masked off, as in
    /// [`Misr::with_polynomial`]).
    ///
    /// # Errors
    ///
    /// [`RtlError::InvalidMisrWidth`] unless `1 <= width <= 63`.
    pub fn with_polynomial(width: u32, poly: u64) -> Result<Self, RtlError> {
        check_width(width)?;
        Ok(MisrBank {
            width,
            poly_low: poly & ((1u64 << width) - 1),
            planes: vec![0; width as usize],
        })
    }

    /// Absorbs one cycle's response word into every lane at once.
    ///
    /// `word_planes` is the value of one node as bit-planes (least
    /// significant first), exactly as stored by the bit-sliced
    /// simulator. When the register is wider than the word, the word's
    /// top plane is replicated upward — the same sign extension a
    /// scalar [`Misr::absorb`] sees through its `i64` argument. When it
    /// is narrower, the word's high planes never enter the signature
    /// (the `L402` lint flags that configuration).
    ///
    /// # Panics
    ///
    /// Panics if `word_planes` is empty.
    pub fn absorb_planes(&mut self, word_planes: &[u64]) {
        assert!(!word_planes.is_empty(), "a response word has at least one bit-plane");
        let m = self.width as usize;
        let input = |b: usize| -> u64 { word_planes[b.min(word_planes.len() - 1)] };
        let msb = self.planes[m - 1];
        for b in (1..m).rev() {
            let feedback = if (self.poly_low >> b) & 1 == 1 { msb } else { 0 };
            self.planes[b] = self.planes[b - 1] ^ feedback ^ input(b);
        }
        let feedback = if self.poly_low & 1 == 1 { msb } else { 0 };
        self.planes[0] = feedback ^ input(0);
    }

    /// One lane's current signature.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn lane_signature(&self, lane: u32) -> u64 {
        assert!(lane < LANES, "lane out of range");
        let mut bits: u64 = 0;
        for (b, plane) in self.planes.iter().enumerate() {
            bits |= ((plane >> lane) & 1) << b;
        }
        bits
    }

    /// Overwrites one lane's state (the inverse of
    /// [`MisrBank::lane_signature`]); used when repacking faulty
    /// machines between staged passes without losing their partially
    /// accumulated signatures.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn set_lane_signature(&mut self, lane: u32, signature: u64) {
        assert!(lane < LANES, "lane out of range");
        let mask = 1u64 << lane;
        for (b, plane) in self.planes.iter_mut().enumerate() {
            if (signature >> b) & 1 == 1 {
                *plane |= mask;
            } else {
                *plane &= !mask;
            }
        }
    }

    /// Sets every lane to the same state (shards start all 64 lanes
    /// from the good machine's partial signature, then overlay the
    /// faulty lanes).
    pub fn fill(&mut self, signature: u64) {
        for (b, plane) in self.planes.iter_mut().enumerate() {
            *plane = if (signature >> b) & 1 == 1 { !0u64 } else { 0 };
        }
    }

    /// Resets every lane to zero.
    pub fn reset(&mut self) {
        self.planes.fill(0);
    }

    /// Register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLY12: u64 = 0x1053;
    const POLY16: u64 = 0x1100B;

    /// Packs 64 scalar words into `w` bit-planes (lane l = word l).
    fn planes_of(words: &[i64; 64], w: usize) -> Vec<u64> {
        let mut planes = vec![0u64; w];
        for (lane, &word) in words.iter().enumerate() {
            for (b, plane) in planes.iter_mut().enumerate() {
                *plane |= (((word as u64) >> b) & 1) << lane;
            }
        }
        planes
    }

    #[test]
    fn width_bounds_are_enforced() {
        assert!(Misr::with_polynomial(0, 1).is_err());
        assert!(Misr::with_polynomial(64, 1).is_err());
        assert!(MisrBank::with_polynomial(0, 1).is_err());
        assert!(MisrBank::with_polynomial(64, 1).is_err());
        assert!(Misr::with_polynomial(63, 1).is_ok());
        assert!(MisrBank::with_polynomial(1, 1).is_ok());
    }

    #[test]
    fn high_polynomial_term_is_masked() {
        let a = Misr::with_polynomial(12, POLY12).unwrap();
        let b = Misr::with_polynomial(12, POLY12 & 0xFFF).unwrap();
        assert_eq!(a.poly_low(), b.poly_low());
    }

    #[test]
    fn bank_matches_scalar_lane_for_lane() {
        // 16-bit word, 16-bit register: every lane of the bank must
        // track a scalar MISR fed that lane's word stream.
        let mut bank = MisrBank::with_polynomial(16, POLY16).unwrap();
        let mut scalars: Vec<Misr> =
            (0..64).map(|_| Misr::with_polynomial(16, POLY16).unwrap()).collect();
        let mut words = [0i64; 64];
        for cycle in 0..200i64 {
            for (lane, w) in words.iter_mut().enumerate() {
                // Sign-extended 16-bit values, different per lane.
                let raw = (cycle * 257 + lane as i64 * 8191) & 0xFFFF;
                *w = ((raw as u16) as i16) as i64;
            }
            bank.absorb_planes(&planes_of(&words, 16));
            for (lane, s) in scalars.iter_mut().enumerate() {
                s.absorb(words[lane]);
            }
        }
        for (lane, s) in scalars.iter().enumerate() {
            assert_eq!(bank.lane_signature(lane as u32), s.signature(), "lane {lane}");
        }
    }

    #[test]
    fn bank_sign_extends_narrow_words_like_the_scalar() {
        // 16-bit register fed a 12-bit word: the bank must replicate
        // the word's sign plane upward, exactly as the scalar sees
        // through sign-extended i64 values.
        let mut bank = MisrBank::with_polynomial(16, POLY16).unwrap();
        let mut scalar = Misr::with_polynomial(16, POLY16).unwrap();
        let mut words = [0i64; 64];
        for cycle in 0..100i64 {
            for (lane, w) in words.iter_mut().enumerate() {
                let raw = (cycle * 31 + lane as i64 * 97) & 0xFFF;
                // Sign-extend from 12 bits.
                *w = if raw & 0x800 != 0 { raw - 0x1000 } else { raw };
            }
            bank.absorb_planes(&planes_of(&words, 12));
            scalar.absorb(words[7]);
        }
        assert_eq!(bank.lane_signature(7), scalar.signature());
    }

    #[test]
    fn wide_words_truncate_to_register_width() {
        // 12-bit register fed a 16-bit word: only the low 12 planes
        // matter, matching the scalar's state mask.
        let mut bank = MisrBank::with_polynomial(12, POLY12).unwrap();
        let mut scalar = Misr::with_polynomial(12, POLY12).unwrap();
        let mut words = [0i64; 64];
        for cycle in 0..100i64 {
            for (lane, w) in words.iter_mut().enumerate() {
                let raw = (cycle * 1021 + lane as i64 * 577) & 0xFFFF;
                *w = ((raw as u16) as i16) as i64;
            }
            bank.absorb_planes(&planes_of(&words, 16));
            scalar.absorb(words[33]);
        }
        assert_eq!(bank.lane_signature(33), scalar.signature());
    }

    #[test]
    fn lane_signature_round_trips_through_set() {
        let mut bank = MisrBank::with_polynomial(16, POLY16).unwrap();
        bank.fill(0xBEEF);
        assert_eq!(bank.lane_signature(0), 0xBEEF);
        assert_eq!(bank.lane_signature(63), 0xBEEF);
        bank.set_lane_signature(5, 0x1234);
        assert_eq!(bank.lane_signature(5), 0x1234);
        assert_eq!(bank.lane_signature(4), 0xBEEF, "neighbours untouched");
        assert_eq!(bank.lane_signature(6), 0xBEEF, "neighbours untouched");
        bank.reset();
        assert_eq!(bank.lane_signature(5), 0);
    }

    #[test]
    fn set_lane_signature_masks_to_width() {
        let mut bank = MisrBank::with_polynomial(8, 0x11D).unwrap();
        bank.set_lane_signature(0, 0xFFFF);
        assert_eq!(bank.lane_signature(0), 0xFF);
    }
}
