//! Hand-rolled property tests for the LFSR state machines, over every
//! tabulated primitive polynomial (widths 4..=24).
//!
//! The load-bearing contract is seed-load → run → state-extract
//! round-tripping: a state captured mid-run, loaded as a fresh seed,
//! must continue the sequence exactly. The `atpg` reseeding plan
//! stores such captured states as its compressed seeds, so any
//! divergence here silently corrupts every expanded top-off block.
//!
//! Cases are drawn from the workspace's seeded driver (`testkit`): a
//! failure names its seed, and `BIST_RANDOM_SEED=<seed>` replays it.

use bist_tpg::{polynomials, Lfsr1, Lfsr2, ShiftDirection};
use testkit::{for_each_seed, Rng};

/// A nonzero `width`-bit LFSR seed.
fn nonzero_seed(rng: &mut Rng, width: u32) -> u64 {
    let mask = (1u64 << width) - 1;
    loop {
        let s = rng.next_u64() & mask;
        if s != 0 {
            return s;
        }
    }
}

const DIRECTIONS: [ShiftDirection; 2] = [ShiftDirection::LsbToMsb, ShiftDirection::MsbToLsb];

#[test]
fn extracted_state_reloaded_as_seed_continues_the_sequence() {
    // Eight cases per width and direction, one per driver seed.
    for_each_seed(0x5EED, 8, |case| {
        let mut rng = Rng::new(case);
        for width in 4..=24 {
            let poly = polynomials::primitive(width).expect("tabulated width");
            for direction in DIRECTIONS {
                let seed = nonzero_seed(&mut rng, width);
                let run = rng.below(5000);
                let mut a = Lfsr1::with_polynomial(width, poly, seed, direction).unwrap();
                for _ in 0..run {
                    a.step();
                }
                let captured = a.state();
                let mut b = Lfsr1::with_polynomial(width, poly, captured, direction).unwrap();
                assert_eq!(b.state(), captured, "loading a seed must not perturb it");
                for k in 0..64 {
                    assert_eq!(
                        a.step(),
                        b.step(),
                        "width {width} {direction:?} seed {seed:#x} run {run}: \
                         reloaded sequence diverged at step {k}"
                    );
                }
            }
        }
    });
}

#[test]
fn state_stays_nonzero_and_within_width_for_every_polynomial() {
    let mut rng = Rng::new(0xF00D);
    for width in 4..=24 {
        let poly = polynomials::primitive(width).expect("tabulated width");
        let mask = (1u64 << width) - 1;
        for direction in DIRECTIONS {
            let seed = nonzero_seed(&mut rng, width);
            let mut g = Lfsr1::with_polynomial(width, poly, seed, direction).unwrap();
            for step in 0..2000 {
                let s = g.step();
                assert_eq!(s & !mask, 0, "width {width}: state {s:#x} overflows at {step}");
                assert_ne!(s, 0, "width {width} {direction:?}: locked up at step {step}");
            }
        }
    }
}

#[test]
fn small_widths_reach_the_full_maximal_period_from_any_seed() {
    // Exhaustive period walk is O(2^width); gate it to the widths
    // where that stays milliseconds even unoptimized.
    let mut rng = Rng::new(0xCAFE);
    for width in 4..=14 {
        let poly = polynomials::primitive(width).expect("tabulated width");
        let maximal = (1u64 << width) - 1;
        for direction in DIRECTIONS {
            let seed = nonzero_seed(&mut rng, width);
            let g = Lfsr1::with_polynomial(width, poly, seed, direction).unwrap();
            assert_eq!(
                g.period(),
                maximal,
                "width {width} {direction:?}: tabulated polynomial is not primitive"
            );
        }
    }
}

#[test]
fn type2_round_trips_and_reaches_the_maximal_period() {
    let poly = polynomials::PAPER_TYPE2_POLY;
    for_each_seed(0xB157, 8, |case| {
        let mut rng = Rng::new(case);
        let seed = nonzero_seed(&mut rng, 12);
        let run = rng.below(3000);
        let mut a = Lfsr2::with_seed(12, poly, seed).unwrap();
        for _ in 0..run {
            a.step();
        }
        let mut b = Lfsr2::with_seed(12, poly, a.state()).unwrap();
        for k in 0..64 {
            assert_eq!(a.step(), b.step(), "Type 2 seed {seed:#x}: diverged at step {k}");
        }
    });
    assert_eq!(Lfsr2::with_seed(12, poly, 1).unwrap().period(), (1 << 12) - 1);
}

#[test]
fn reciprocal_polynomials_validate_and_round_trip_too() {
    let mut rng = Rng::new(0x1DEA);
    for width in 4..=24 {
        let poly = polynomials::primitive(width).expect("tabulated width");
        let recip = polynomials::reciprocal(poly, width);
        polynomials::validate(recip, width).expect("reciprocal of a valid polynomial is valid");
        assert_eq!(polynomials::reciprocal(recip, width), poly, "reciprocal is an involution");
        let seed = nonzero_seed(&mut rng, width);
        let mut a = Lfsr1::with_polynomial(width, recip, seed, ShiftDirection::LsbToMsb).unwrap();
        for _ in 0..100 {
            a.step();
        }
        let mut b =
            Lfsr1::with_polynomial(width, recip, a.state(), ShiftDirection::LsbToMsb).unwrap();
        for _ in 0..64 {
            assert_eq!(a.step(), b.step());
        }
    }
}
