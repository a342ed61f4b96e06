//! The seeded driver behind every randomized test suite in the
//! workspace, so the suites build and run offline with no registry
//! dependency.
//!
//! * [`Rng`] — a splitmix-seeded xorshift64 generator. Every suite
//!   draws from this one copy, so a seed draws the same numbers
//!   wherever it is replayed.
//! * [`for_each_seed`] — runs a check over a block of seeds and names
//!   the failing seed in its panic; `BIST_RANDOM_SEED=<seed>` (decimal
//!   or `0x` hex) replays just that seed.
//! * [`random_netlist`] — one random single-input netlist generator
//!   over every [`NetlistBuilder`] op, shared by the `rtl`, `sat` and
//!   `faultsim` suites.
//!
//! The crate is a dev-dependency only and is never published.

#![forbid(unsafe_code)]

use rtl::{Netlist, NetlistBuilder, NodeId};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The environment variable that replays one seed.
const SEED_VAR: &str = "BIST_RANDOM_SEED";

/// Marsaglia xorshift64 over a splitmix-scrambled seed: small,
/// seedable and dependency-free.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`. The seed is splitmixed so neighbouring
    /// seeds diverge at once.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`; the range must be nonempty.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// True one time in `one_in`.
    pub fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    /// A uniform two's-complement word of `bits` bits (1..=64),
    /// sign-extended.
    pub fn signed(&mut self, bits: u32) -> i64 {
        let shift = 64 - bits;
        ((self.next_u64() << shift) as i64) >> shift
    }

    /// Uniform in `lo..hi`, with 53 random bits.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// The seed `BIST_RANDOM_SEED` names, if set.
///
/// # Panics
///
/// Panics if the variable is set but is not a decimal or `0x` hex
/// number.
pub fn replay_seed() -> Option<u64> {
    let raw = std::env::var(SEED_VAR).ok()?;
    Some(parse_seed(&raw).unwrap_or_else(|| panic!("{SEED_VAR}={raw} is not a number")))
}

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// Runs `check` on the seeds `base..base + cases`, or on the one seed
/// [`replay_seed`] names. The first seed whose check panics fails the
/// run with a message that names the seed and how to replay it.
pub fn for_each_seed(base: u64, cases: u64, mut check: impl FnMut(u64)) {
    let seeds = match replay_seed() {
        Some(seed) => seed..=seed,
        None => base..=base + cases - 1,
    };
    for seed in seeds {
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| check(seed))) {
            panic!(
                "seed {seed:#x} failed ({}); replay with {SEED_VAR}={seed:#x}",
                panic_message(&*cause)
            );
        }
    }
}

fn panic_message(cause: &(dyn Any + Send)) -> &str {
    cause
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| cause.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic")
}

/// A random single-input netlist of datapath `width`, built from
/// `nodes` draws over every [`NetlistBuilder`] op: constants,
/// inverters, set-lsb ties, carry-save sum/carry pairs, registers,
/// right shifts by `0..=width`, adders and subtractors, plus four
/// shapes the fault simulator treats specially — a clean delay line on
/// the input (its taps stay input-pure), a delay line below an adder,
/// and registers fed by a constant or by a set-lsb. Operands are drawn
/// from the nodes built so far. An adder drives output `y`, which keeps
/// the fault universe non-empty; one netlist in three also taps a
/// random node as a second output `z`.
///
/// # Panics
///
/// Panics if `width` is outside `NetlistBuilder`'s `2..=63`.
pub fn random_netlist(rng: &mut Rng, width: u32, nodes: usize) -> Netlist {
    let mut b = NetlistBuilder::new(width).expect("valid width");
    let mut ids: Vec<NodeId> = vec![b.input("x")];
    for _ in 0..nodes {
        let [x, y, z] = [0; 3].map(|_| ids[rng.below(ids.len())]);
        let id = match rng.below(16) {
            0 => b.constant(rng.next_u64() as i64),
            1 => b.not_word(x),
            2 => b.set_lsb(x),
            3 => {
                let (sum, carry) = b.csa(x, y, z, "");
                ids.push(sum);
                carry
            }
            4 => b.register(x),
            5 => (0..1 + rng.below(3)).fold(ids[0], |d, _| b.register(d)),
            6 => {
                // The first register reads a cycle-written source, the
                // rest read registers.
                let sum = b.add(x, y);
                ids.push(sum);
                (0..1 + rng.below(4)).fold(sum, |d, _| b.register(d))
            }
            7 => {
                let k = b.constant(rng.next_u64() as i64);
                b.register(k)
            }
            8 => {
                let set = b.set_lsb(x);
                b.register(set)
            }
            9 | 10 => b.shift_right(x, rng.below(width as usize + 1) as u32),
            11..=13 => b.add(x, y),
            _ => b.sub(x, y),
        };
        ids.push(id);
    }
    let last = *ids.last().expect("nonempty");
    let y = b.add(last, ids[rng.below(ids.len())]);
    b.output(y, "y");
    if rng.chance(3) {
        b.output(ids[rng.below(ids.len())], "z");
    }
    b.finish().expect("operands point backwards")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::mem::discriminant;

    #[test]
    fn seeds_replay_the_same_draws_and_diverge_from_their_neighbours() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            [0; 4].map(|_| rng.next_u64())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn draws_stay_in_their_ranges() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            assert!(rng.below(5) < 5);
            assert!((3..9).contains(&rng.range(3, 9)));
            assert!((-8..8).contains(&rng.signed(4)));
            let u = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2a"), Some(42));
        assert_eq!(parse_seed("forty-two"), None);
    }

    #[test]
    fn a_failing_seed_is_named_in_the_panic() {
        if replay_seed().is_some() {
            return;
        }
        let mut seen = Vec::new();
        let cause = catch_unwind(AssertUnwindSafe(|| {
            for_each_seed(0x10, 8, |seed| {
                seen.push(seed);
                assert_ne!(seed, 0x13, "boom");
            })
        }))
        .expect_err("seed 0x13 fails");
        assert_eq!(seen, [0x10, 0x11, 0x12, 0x13], "stops at the first failure");
        let message = panic_message(&*cause);
        assert!(message.contains("seed 0x13 failed"), "{message}");
        assert!(message.contains("boom"), "{message}");
        assert!(message.contains("BIST_RANDOM_SEED=0x13"), "{message}");
    }

    #[test]
    fn netlists_draw_every_node_kind() {
        let mut kinds = HashSet::new();
        let mut second_outputs = 0;
        for seed in 0..64 {
            let netlist = random_netlist(&mut Rng::new(seed), 8, 12);
            second_outputs += usize::from(netlist.output_ids().len() == 2);
            kinds.extend(netlist.nodes().iter().map(|node| discriminant(&node.kind)));
        }
        assert!(second_outputs > 0, "no netlist had a second output");
        // Input, Const, Register, Add, Sub, ShiftRight, Output, Not,
        // SetLsb, CsaSum and CsaCarry.
        assert_eq!(kinds.len(), 11, "node kinds drawn");
    }
}
