use crate::build::{build_csa_fir, build_symmetric_fir, build_transposed_fir, BuiltFilter};
use crate::FilterError;
use csd::QuantizedCoefficient;
use dsp::firdesign::{BandKind, FirSpec};
use rtl::{Netlist, NodeId};

/// Parameters of one circuit-under-test.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSpec {
    /// Short name ("LP", "BP", "HP").
    pub name: String,
    /// Band shape and edges.
    pub band: BandKind,
    /// Number of taps (= registers in the built design).
    pub taps: usize,
    /// Input word width in bits (left-aligned into the datapath).
    pub input_bits: u32,
    /// Coefficient fractional precision in bits.
    pub coef_frac_bits: u32,
    /// Maximum CSD digits per coefficient (adder budget per multiplier).
    pub max_csd_digits: usize,
    /// Datapath width in bits.
    pub width: u32,
    /// Kaiser window beta of the prototype design.
    pub kaiser_beta: f64,
}

/// Datapath architecture of the accumulation chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Architecture {
    /// Ripple-carry accumulation (the paper's focus).
    RippleCarry,
    /// Carry-save accumulation: 3:2 compressor stages, two registers
    /// per tap, vector merge at the output — the paper's
    /// "higher-performance alternative".
    CarrySave,
    /// Folded direct form exploiting linear-phase coefficient symmetry:
    /// half-weight pre-adders on mirrored delay-line taps, one CSD
    /// multiplier per coefficient *pair* (requires a symmetric design).
    Symmetric,
}

/// How node ranges are claimed for sign trimming and fault-universe
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ScalingPolicy {
    /// Worst-case (L1-norm) interval analysis: no node can ever exceed
    /// its claimed range. The paper's designs use this — it is what
    /// leaves the excess headroom that breeds near-redundant faults.
    WorstCase,
    /// Statistical bounds: each node's claimed range is additionally
    /// capped at `k_rms` times its RMS response to a full-scale white
    /// input. Tighter ranges trim more sign cells (fewer near-redundant
    /// faults) but a signal beyond the claim corrupts the output — the
    /// paper's "more aggressive scaling techniques, when appropriate".
    Statistical {
        /// Multiple of the node's RMS used as the claimed bound.
        k_rms: f64,
    },
}

/// A fully elaborated design: float prototype, quantized coefficients,
/// and structural netlist.
#[derive(Debug, Clone)]
pub struct FilterDesign {
    spec: FilterSpec,
    prototype: Vec<f64>,
    quantized: Vec<QuantizedCoefficient>,
    built: BuiltFilter,
    scaling: ScalingPolicy,
    architecture: Architecture,
    claimed_ranges: rtl::range::RangeAnalysis,
}

impl FilterDesign {
    /// Designs, scales, quantizes and builds the filter.
    ///
    /// Conservative scaling: the prototype is scaled so the *quantized*
    /// coefficient set has L1 norm ≤ 1, guaranteeing (worst case) that no
    /// node of the transposed-form netlist can overflow. The scaling
    /// loop shrinks the prototype and re-quantizes until the bound holds.
    ///
    /// # Errors
    ///
    /// * [`FilterError::Design`] if the prototype design fails.
    /// * [`FilterError::InvalidSpec`] for inconsistent widths.
    /// * [`FilterError::ScalingDiverged`] if the L1 bound cannot be met.
    /// * [`FilterError::Rtl`] if netlist construction fails.
    pub fn elaborate(spec: FilterSpec) -> Result<FilterDesign, FilterError> {
        Self::elaborate_with(spec, ScalingPolicy::WorstCase)
    }

    /// Like [`FilterDesign::elaborate`] with an explicit scaling policy
    /// for the sign-trimming / fault-universe ranges.
    ///
    /// # Errors
    ///
    /// Same as [`FilterDesign::elaborate`]; additionally rejects a
    /// non-positive `k_rms`.
    pub fn elaborate_with(
        spec: FilterSpec,
        scaling: ScalingPolicy,
    ) -> Result<FilterDesign, FilterError> {
        Self::elaborate_full(spec, scaling, Architecture::RippleCarry)
    }

    /// Full elaboration control: scaling policy and accumulation
    /// architecture.
    ///
    /// # Errors
    ///
    /// Same as [`FilterDesign::elaborate_with`].
    pub fn elaborate_full(
        spec: FilterSpec,
        scaling: ScalingPolicy,
        architecture: Architecture,
    ) -> Result<FilterDesign, FilterError> {
        if let ScalingPolicy::Statistical { k_rms } = scaling {
            // partial_cmp so NaN is rejected along with non-positives.
            let positive = k_rms.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
            if !positive {
                return Err(FilterError::InvalidSpec {
                    reason: format!("k_rms {k_rms} must be positive"),
                });
            }
        }
        if spec.input_bits == 0 || spec.input_bits > spec.width {
            return Err(FilterError::InvalidSpec {
                reason: format!("input bits {} must be in 1..={}", spec.input_bits, spec.width),
            });
        }
        if spec.coef_frac_bits >= spec.width {
            return Err(FilterError::InvalidSpec {
                reason: format!(
                    "coefficient precision {} must be below the datapath width {}",
                    spec.coef_frac_bits, spec.width
                ),
            });
        }
        let prototype = FirSpec::new(spec.band, spec.taps)
            .kaiser_beta(spec.kaiser_beta)
            .l1_bound(0.995)
            .design()?;

        let mut scale = 1.0f64;
        let mut quantized = quantize_all(&prototype, scale, &spec);
        for _ in 0..16 {
            let l1: f64 = quantized.iter().map(|q| q.value.abs()).sum();
            if l1 <= 1.0 {
                break;
            }
            scale *= 0.999 / l1;
            quantized = quantize_all(&prototype, scale, &spec);
        }
        let l1: f64 = quantized.iter().map(|q| q.value.abs()).sum();
        if l1 > 1.0 {
            return Err(FilterError::ScalingDiverged { l1 });
        }

        let n_taps = quantized.len();
        if architecture == Architecture::Symmetric
            && !(0..n_taps).all(|k| quantized[k].raw == quantized[n_taps - 1 - k].raw)
        {
            return Err(FilterError::InvalidSpec {
                reason: "the folded form requires a symmetric (linear-phase) design".into(),
            });
        }
        let mut built = match architecture {
            Architecture::RippleCarry => build_transposed_fir(&quantized, spec.width)?,
            Architecture::CarrySave => build_csa_fir(&quantized, spec.width)?,
            Architecture::Symmetric => build_symmetric_fir(&quantized, spec.width)?,
        };
        // Sign-extension optimization: remove redundant sign cells (and
        // the top cells' carry logic) identified by the range analysis —
        // the paper's first step toward a testable design.
        let mut ranges = rtl::range::RangeAnalysis::analyze(
            &built.netlist,
            rtl::range::aligned_input_range(spec.input_bits, spec.width),
        );
        if let ScalingPolicy::Statistical { k_rms } = scaling {
            // Cap each ripple adder's claimed range at k_rms times its
            // RMS response to full-scale white input
            // (sigma_x = 1/sqrt(3)). Carry-save nodes are excluded:
            // their words are bitwise re-encodings whose individual
            // ranges are not bounded by the (linear) pair sum.
            let nodes: Vec<NodeId> = built
                .netlist
                .arithmetic_ids()
                .into_iter()
                .filter(|&id| {
                    matches!(
                        built.netlist.node(id).kind,
                        rtl::NodeKind::Add { .. } | rtl::NodeKind::Sub { .. }
                    )
                })
                .collect();
            let len = built.netlist.register_indices().len() + 2;
            let responses = rtl::linear::impulse_responses(&built.netlist, &nodes, len);
            let scale = 2f64.powi(spec.width as i32 - 1);
            for (id, h) in nodes.into_iter().zip(responses) {
                let rms = (h.iter().map(|c| c * c).sum::<f64>() / 3.0).sqrt();
                let bound = ((k_rms * rms * scale).ceil() as i64).max(1);
                ranges.tighten(id, -bound, bound);
            }
        }
        built.netlist = built.netlist.with_sign_trimming(&ranges);
        Ok(FilterDesign {
            spec,
            prototype,
            quantized,
            built,
            scaling,
            architecture,
            claimed_ranges: ranges,
        })
    }

    /// The design parameters.
    pub fn spec(&self) -> &FilterSpec {
        &self.spec
    }

    /// Short name of the design.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Number of taps.
    pub fn taps(&self) -> usize {
        self.spec.taps
    }

    /// The floating-point prototype coefficients (pre-quantization).
    pub fn prototype(&self) -> &[f64] {
        &self.prototype
    }

    /// The quantized CSD coefficients actually implemented.
    pub fn quantized(&self) -> &[QuantizedCoefficient] {
        &self.quantized
    }

    /// The implemented coefficient values as floats.
    pub fn coefficients(&self) -> Vec<f64> {
        self.quantized.iter().map(|q| q.value).collect()
    }

    /// The structural netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.built.netlist
    }

    /// The scaling policy the design was elaborated with.
    pub fn scaling(&self) -> ScalingPolicy {
        self.scaling
    }

    /// The accumulation architecture.
    pub fn architecture(&self) -> Architecture {
        self.architecture
    }

    /// The claimed node ranges (worst-case intervals, tightened by the
    /// statistical bound under [`ScalingPolicy::Statistical`]); these
    /// drive the sign trimming and must drive the fault universe.
    pub fn claimed_ranges(&self) -> &rtl::range::RangeAnalysis {
        &self.claimed_ranges
    }

    /// The input node (drive with words left-aligned via
    /// [`FilterDesign::align_input`]).
    pub fn input(&self) -> NodeId {
        self.built.input
    }

    /// The output node.
    pub fn output(&self) -> NodeId {
        self.built.output
    }

    /// The accumulation adder of tap `k`, if it has one.
    pub fn tap_accumulator(&self, k: usize) -> Option<NodeId> {
        self.built.taps.get(k).and_then(|t| t.accumulator)
    }

    /// Aligns a `input_bits`-wide raw word into the datapath (left
    /// justification, zero fill), e.g. a 12-bit generator word into the
    /// 16-bit filter input.
    pub fn align_input(&self, raw: i64) -> i64 {
        raw << (self.spec.width - self.spec.input_bits)
    }

    /// The ideal-arithmetic impulse response of the subfilter driving
    /// `node` (see [`rtl::linear::impulse_response`]); length covers the
    /// full pipeline plus one output delay.
    pub fn subfilter_impulse_response(&self, node: NodeId) -> Vec<f64> {
        rtl::linear::impulse_response(self.netlist(), node, self.spec.taps + 2)
    }

    /// Impulse response at the filter output (ideal arithmetic; equals
    /// the quantized coefficients delayed by the output register).
    pub fn impulse_response(&self) -> Vec<f64> {
        self.subfilter_impulse_response(self.output())
    }
}

fn quantize_all(prototype: &[f64], scale: f64, spec: &FilterSpec) -> Vec<QuantizedCoefficient> {
    prototype
        .iter()
        .map(|&c| csd::quantize(c * scale, spec.coef_frac_bits, spec.max_csd_digits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::response::magnitude_at;

    fn small_spec() -> FilterSpec {
        FilterSpec {
            name: "TEST".into(),
            band: BandKind::Lowpass { cutoff: 0.15 },
            taps: 15,
            input_bits: 12,
            coef_frac_bits: 14,
            max_csd_digits: 4,
            width: 16,
            kaiser_beta: 5.0,
        }
    }

    #[test]
    fn elaboration_produces_consistent_design() {
        let d = FilterDesign::elaborate(small_spec()).unwrap();
        assert_eq!(d.taps(), 15);
        assert_eq!(d.quantized().len(), 15);
        assert_eq!(d.netlist().stats().registers, 15);
        let l1: f64 = d.coefficients().iter().map(|c| c.abs()).sum();
        assert!(l1 <= 1.0, "L1 = {l1}");
    }

    #[test]
    fn quantized_response_tracks_prototype() {
        let d = FilterDesign::elaborate(small_spec()).unwrap();
        let c = d.coefficients();
        // Passband/stopband shape preserved after quantization.
        let pass = magnitude_at(&c, 0.02);
        let stop = magnitude_at(&c, 0.4);
        assert!(pass > 10.0 * stop, "pass {pass} stop {stop}");
    }

    #[test]
    fn impulse_response_equals_coefficients_with_delay() {
        let d = FilterDesign::elaborate(small_spec()).unwrap();
        let h = d.impulse_response();
        assert!(h[0].abs() < 1e-12, "output register delays by one");
        for (k, q) in d.quantized().iter().enumerate() {
            assert!((h[k + 1] - q.value).abs() < 1e-9, "tap {k}");
        }
    }

    #[test]
    fn align_input_left_justifies() {
        let d = FilterDesign::elaborate(small_spec()).unwrap();
        assert_eq!(d.align_input(1), 16);
        assert_eq!(d.align_input(-2048), -32768);
    }

    #[test]
    fn rejects_bad_spec() {
        let mut s = small_spec();
        s.input_bits = 20;
        assert!(matches!(FilterDesign::elaborate(s), Err(FilterError::InvalidSpec { .. })));
        let mut s2 = small_spec();
        s2.coef_frac_bits = 16;
        assert!(matches!(FilterDesign::elaborate(s2), Err(FilterError::InvalidSpec { .. })));
    }

    fn white_words(n: usize) -> Vec<i64> {
        let mut rng = testkit::Rng::new(0x5_DEEC_E66D);
        (0..n).map(|_| rng.signed(12)).collect()
    }

    #[test]
    fn statistical_scaling_trims_more_headroom() {
        // Use a narrowband design: its L1 (worst-case) bounds sit far
        // above the RMS excursions, so the statistical cap bites.
        let spec = FilterSpec {
            name: "narrow".into(),
            band: BandKind::Lowpass { cutoff: 0.05 },
            taps: 40,
            input_bits: 12,
            coef_frac_bits: 15,
            max_csd_digits: 4,
            width: 16,
            kaiser_beta: 5.5,
        };
        let wc = FilterDesign::elaborate(spec.clone()).unwrap();
        let stat =
            FilterDesign::elaborate_with(spec, ScalingPolicy::Statistical { k_rms: 2.5 }).unwrap();
        let trim_total = |d: &FilterDesign| -> u32 {
            d.netlist().arithmetic_ids().iter().map(|&id| d.netlist().msb_trim(id)).sum()
        };
        assert!(
            trim_total(&stat) < trim_total(&wc),
            "statistical scaling should trim at least one more sign cell"
        );
        assert_eq!(stat.scaling(), ScalingPolicy::Statistical { k_rms: 2.5 });
        assert_eq!(wc.scaling(), ScalingPolicy::WorstCase);
    }

    #[test]
    fn generous_statistical_bound_preserves_behaviour() {
        // With a huge k_rms the statistical cap never binds, so the
        // trimmed hardware behaves identically to the worst-case design.
        let wc = FilterDesign::elaborate(small_spec()).unwrap();
        let stat =
            FilterDesign::elaborate_with(small_spec(), ScalingPolicy::Statistical { k_rms: 100.0 })
                .unwrap();
        let inputs = white_words(300);
        let out_wc = faultsim_free_run(&wc, &inputs);
        let out_stat = faultsim_free_run(&stat, &inputs);
        assert_eq!(out_wc, out_stat);
    }

    #[test]
    fn reckless_statistical_bound_corrupts_output() {
        // k_rms far below the real excursions: trimmed sign cells lie,
        // and a full-scale white input exposes it.
        let wc = FilterDesign::elaborate(small_spec()).unwrap();
        let stat =
            FilterDesign::elaborate_with(small_spec(), ScalingPolicy::Statistical { k_rms: 0.3 })
                .unwrap();
        let inputs = white_words(500);
        let out_wc = faultsim_free_run(&wc, &inputs);
        let out_stat = faultsim_free_run(&stat, &inputs);
        assert_ne!(out_wc, out_stat, "over-aggressive trimming should corrupt the output");
    }

    #[test]
    fn rejects_nonpositive_k_rms() {
        assert!(matches!(
            FilterDesign::elaborate_with(small_spec(), ScalingPolicy::Statistical { k_rms: 0.0 }),
            Err(FilterError::InvalidSpec { .. })
        ));
    }

    /// Fault-free run through the bit-sliced simulator.
    fn faultsim_free_run(d: &FilterDesign, inputs: &[i64]) -> Vec<i64> {
        let mut sim = rtl::sim::BitSlicedSim::new(d.netlist());
        inputs
            .iter()
            .map(|&w| {
                sim.step(d.align_input(w));
                sim.lane_value(d.output(), 0)
            })
            .collect()
    }

    #[test]
    fn tap_accumulator_lookup() {
        let d = FilterDesign::elaborate(small_spec()).unwrap();
        // Middle taps of a 15-tap lowpass have nonzero coefficients.
        assert!(d.tap_accumulator(7).is_some());
        assert!(d.tap_accumulator(99).is_none());
    }
}
