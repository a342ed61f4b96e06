//! The three circuits-under-test of the paper's Table 1.
//!
//! The paper's exact coefficient sets are unpublished; these designs are
//! re-derived from its published parameters — ~60 tap structures,
//! 12-bit input, 14–15-bit coefficients, 16-bit output datapath,
//! canonic-signed-digit multipliers — and its qualitative descriptions:
//! a *narrowband* lowpass (low cutoff, so a Type 1 LFSR's low-frequency
//! null starves its passband), a bandpass with a *wider* passband than
//! the other two designs, and a highpass.
//!
//! | design | taps | coef. bits | band (×fs)      |
//! |--------|------|-----------|------------------|
//! | LP     | 60   | 15        | 0 – 0.04         |
//! | BP     | 58   | 14        | 0.15 – 0.35      |
//! | HP     | 59   | 15        | 0.38 – 0.5       |

use crate::{FilterDesign, FilterError, FilterSpec};
use dsp::firdesign::BandKind;

/// The paper's 60-tap narrowband lowpass design ("LP").
///
/// # Errors
///
/// Propagates [`FilterError`] from elaboration (does not fail for the
/// built-in parameters).
pub fn lowpass() -> Result<FilterDesign, FilterError> {
    FilterDesign::elaborate(FilterSpec {
        name: "LP".into(),
        band: BandKind::Lowpass { cutoff: 0.04 },
        taps: 60,
        input_bits: 12,
        coef_frac_bits: 15,
        max_csd_digits: 4,
        width: 16,
        kaiser_beta: 5.5,
    })
}

/// The paper's bandpass design ("BP") — wider passband than LP/HP.
///
/// # Errors
///
/// Propagates [`FilterError`] from elaboration.
pub fn bandpass() -> Result<FilterDesign, FilterError> {
    FilterDesign::elaborate(FilterSpec {
        name: "BP".into(),
        band: BandKind::Bandpass { low: 0.15, high: 0.35 },
        taps: 58,
        input_bits: 12,
        coef_frac_bits: 14,
        max_csd_digits: 4,
        width: 16,
        kaiser_beta: 5.5,
    })
}

/// The paper's highpass design ("HP").
///
/// # Errors
///
/// Propagates [`FilterError`] from elaboration.
pub fn highpass() -> Result<FilterDesign, FilterError> {
    FilterDesign::elaborate(FilterSpec {
        name: "HP".into(),
        band: BandKind::Highpass { cutoff: 0.38 },
        taps: 59,
        input_bits: 12,
        coef_frac_bits: 15,
        max_csd_digits: 4,
        width: 16,
        kaiser_beta: 5.5,
    })
}

/// All three Table 1 designs, in paper order (LP, BP, HP).
///
/// # Errors
///
/// Propagates [`FilterError`] from elaboration.
pub fn paper_designs() -> Result<Vec<FilterDesign>, FilterError> {
    Ok(vec![lowpass()?, bandpass()?, highpass()?])
}

/// A 16-tap miniature of the LP design: same 12-bit input and 16-bit
/// datapath, an order of magnitude fewer faults. Not a paper circuit —
/// it exists so service smoke tests and CI can run a complete campaign
/// in milliseconds instead of seconds.
///
/// # Errors
///
/// Propagates [`FilterError`] from elaboration.
pub fn lowpass_mini() -> Result<FilterDesign, FilterError> {
    FilterDesign::elaborate(FilterSpec {
        name: "LP-MINI".into(),
        band: BandKind::Lowpass { cutoff: 0.1 },
        taps: 16,
        input_bits: 12,
        coef_frac_bits: 14,
        max_csd_digits: 3,
        width: 16,
        kaiser_beta: 4.0,
    })
}

/// The LP design rebuilt in folded (symmetric, linear-phase) direct
/// form: half the multipliers, a delay line on the input.
///
/// # Errors
///
/// Propagates [`FilterError`] from elaboration.
pub fn lowpass_symmetric() -> Result<FilterDesign, FilterError> {
    FilterDesign::elaborate_full(
        FilterSpec {
            name: "LP-SYM".into(),
            band: BandKind::Lowpass { cutoff: 0.04 },
            taps: 60,
            input_bits: 12,
            coef_frac_bits: 15,
            max_csd_digits: 4,
            width: 16,
            kaiser_beta: 5.5,
        },
        crate::ScalingPolicy::WorstCase,
        crate::Architecture::Symmetric,
    )
}

/// The LP design rebuilt with carry-save accumulation — the paper's
/// "higher-performance alternative" with twice the registers.
///
/// # Errors
///
/// Propagates [`FilterError`] from elaboration.
pub fn lowpass_carry_save() -> Result<FilterDesign, FilterError> {
    FilterDesign::elaborate_full(
        FilterSpec {
            name: "LP-CSA".into(),
            band: BandKind::Lowpass { cutoff: 0.04 },
            taps: 60,
            input_bits: 12,
            coef_frac_bits: 15,
            max_csd_digits: 4,
            width: 16,
            kaiser_beta: 5.5,
        },
        crate::ScalingPolicy::WorstCase,
        crate::Architecture::CarrySave,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::response::magnitude_at;

    #[test]
    fn lp_is_narrowband_lowpass() {
        let d = lowpass().unwrap();
        let c = d.coefficients();
        assert!(magnitude_at(&c, 0.01) > 0.5);
        assert!(magnitude_at(&c, 0.2) < 0.02);
        assert!(magnitude_at(&c, 0.45) < 0.02);
        assert_eq!(d.netlist().stats().registers, 60);
    }

    #[test]
    fn bp_passes_midband_only() {
        // Conservative L1 scaling holds the passband gain below unity
        // (BP has the largest L1/gain ratio); the band shape is what
        // matters: midband passes, both skirts are deeply attenuated.
        let d = bandpass().unwrap();
        let c = d.coefficients();
        let pass = magnitude_at(&c, 0.25);
        assert!(pass > 0.3);
        assert!(magnitude_at(&c, 0.02) < 0.01 * pass);
        assert!(magnitude_at(&c, 0.48) < 0.01 * pass);
        assert_eq!(d.netlist().stats().registers, 58);
    }

    #[test]
    fn hp_passes_top_band_only() {
        let d = highpass().unwrap();
        let c = d.coefficients();
        let pass = magnitude_at(&c, 0.48);
        assert!(pass > 0.3);
        assert!(magnitude_at(&c, 0.05) < 0.01 * pass);
        assert!(magnitude_at(&c, 0.2) < 0.01 * pass);
        assert_eq!(d.netlist().stats().registers, 59);
    }

    #[test]
    fn design_complexity_matches_table1_regime() {
        for d in paper_designs().unwrap() {
            let s = d.netlist().stats();
            assert!(
                (100..=260).contains(&s.arithmetic()),
                "{}: {} adders/subtractors",
                d.name(),
                s.arithmetic()
            );
            assert!((55..=62).contains(&s.registers), "{}: {} registers", d.name(), s.registers);
            assert_eq!(s.width, 16);
        }
    }

    #[test]
    fn carry_save_variant_matches_ripple_functionally_and_doubles_registers() {
        let ripple = lowpass().unwrap();
        let csa = lowpass_carry_save().unwrap();
        assert!(
            csa.netlist().stats().registers >= 2 * ripple.netlist().stats().registers - 4,
            "CSA registers {} vs ripple {}",
            csa.netlist().stats().registers,
            ripple.netlist().stats().registers
        );
        assert!(csa.netlist().stats().csa_stages > 40);
        // Functional equivalence on a pseudo-random burst.
        let mut sr = rtl::sim::BitSlicedSim::new(ripple.netlist());
        let mut sc = rtl::sim::BitSlicedSim::new(csa.netlist());
        let mut rng = testkit::Rng::new(0xC0FFEE);
        for t in 0..200 {
            let w = rng.signed(12);
            sr.step(ripple.align_input(w));
            sc.step(csa.align_input(w));
            assert_eq!(
                sr.lane_value(ripple.output(), 0),
                sc.lane_value(csa.output(), 0),
                "cycle {t}"
            );
        }
    }

    #[test]
    fn mini_design_is_small_and_lowpass() {
        let d = lowpass_mini().unwrap();
        assert_eq!(d.name(), "LP-MINI");
        assert_eq!(d.netlist().stats().registers, 16);
        assert!(
            d.netlist().stats().arithmetic() < lowpass().unwrap().netlist().stats().arithmetic()
        );
        let c = d.coefficients();
        assert!(magnitude_at(&c, 0.02) > 0.3);
        assert!(magnitude_at(&c, 0.4) < 0.05);
    }

    #[test]
    fn designs_never_overflow_internally() {
        // L1-scaling guarantee: drive with worst-case ±full-scale input
        // and check the output register never wraps, via range analysis.
        use rtl::range::{aligned_input_range, RangeAnalysis};
        for d in paper_designs().unwrap() {
            let ra = RangeAnalysis::analyze(d.netlist(), aligned_input_range(12, 16));
            let (lo, hi) = ra.value_range(d.output());
            assert!(lo >= -1.0 && hi < 1.0, "{}: output range [{lo}, {hi}]", d.name());
        }
    }
}
