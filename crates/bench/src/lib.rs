//! Shared experiment infrastructure: design construction, generator
//! registry, text tables and ASCII plots.
//!
//! The `experiments` binary in this crate regenerates every table and
//! figure of the paper (see `DESIGN.md`'s per-experiment index and
//! `EXPERIMENTS.md` for recorded results).

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod plot;
pub mod table;

use bist_core::campaign::{build_generator, CampaignSpec, MAX_THREADS};
use bist_core::session::{BistRun, BistSession, ResponseCheck, RunConfig};
use filters::FilterDesign;
use tpg::TestGenerator;

/// The paper's generator roster for the Section 8 experiments.
pub const SECTION8_GENERATORS: [&str; 4] = ["LFSR-1", "LFSR-D", "LFSR-M", "Ramp"];

/// Builds a 12-bit generator by registry name
/// ([`bist_core::campaign::build_generator`], `Mixed@<n>` included).
///
/// # Panics
///
/// Panics on an unknown name (callers pass compile-time names).
pub fn generator(name: &str) -> Box<dyn TestGenerator> {
    build_generator(name).unwrap_or_else(|e| panic!("{e}"))
}

/// Elaborates the three paper designs (LP, BP, HP). Building all three
/// takes well under a second.
pub fn paper_designs() -> Vec<FilterDesign> {
    filters::designs::paper_designs().expect("paper designs elaborate")
}

/// Runs one generator against an existing session, reporting into the
/// campaign registry and recording the run's artifact — the
/// experiments binary routes every BIST run through here so `--json`
/// sees the complete campaign.
///
/// # Panics
///
/// Panics on a [`bist_core::session::SessionError`] (the harness only
/// pairs registry generators with the 12-bit paper designs).
pub fn run_session(
    session: &BistSession<'_>,
    gen: &mut dyn TestGenerator,
    config: &RunConfig,
) -> BistRun {
    let config = config.clone().with_metrics(artifacts::campaign());
    let run = session.run(gen, &config).expect("registry generators match the 12-bit designs");
    artifacts::record(run.artifact.clone());
    run
}

/// Static lint summary for one experiment grid cell — the
/// generator-shaped testability (`L1xx`), spectral-compatibility
/// (`L2xx`), campaign-spec (`L3xx`) and response-compaction (`L4xx`)
/// passes, without a single simulated vector. Returns compact `E/W/I`
/// tallies like `"1E 2W 4I"` so the tables can carry a per-cell static
/// verdict next to the measured miss counts.
pub fn cell_lint(design: &FilterDesign, gen_name: &str, vectors: usize) -> String {
    cell_lint_mode(design, gen_name, vectors, ResponseCheck::Trace)
}

/// [`cell_lint`] for an explicit response-check mode, so
/// signature-mode tables carry their `L4xx` verdicts too.
pub fn cell_lint_mode(
    design: &FilterDesign,
    gen_name: &str,
    vectors: usize,
    mode: ResponseCheck,
) -> String {
    let mut diags = lint::lint_pairing(design, gen_name, lint::DEFAULT_BINS);
    let spec = CampaignSpec::new(design.name(), gen_name, vectors).with_mode(mode);
    diags.extend(lint::campaign::lint_spec(design, &spec, None));
    diags.extend(lint::aliasing::lint_aliasing(design, &spec));
    lint_tally(&diags)
}

/// The compact per-cell `E/W/I` tally (`"1E 2W 4I"`). Both output
/// paths — the text tables and the `--json` comparison objects — go
/// through this one formatter, so the two renderings of a cell's
/// verdict can never drift apart.
pub fn lint_tally(diags: &[obs::Diagnostic]) -> String {
    let (errors, warnings, infos) = obs::diag::severity_counts(diags);
    format!("{errors}E {warnings}W {infos}I")
}

/// The experiment harness's run configuration: `vectors` test patterns
/// with the defaults (16-bit MISR, trace-mode response checking,
/// default schedule), honoring a `BIST_THREADS` environment override
/// for the fault-simulation worker count (unset, `0`, unparsable or
/// above [`MAX_THREADS`] = one thread per core).
pub fn run_config(vectors: usize) -> RunConfig {
    run_config_mode(vectors, ResponseCheck::Trace)
}

/// [`run_config`] with an explicit response-check mode — what the
/// experiments binary builds under its `--signature` flag.
pub fn run_config_mode(vectors: usize, mode: ResponseCheck) -> RunConfig {
    let threads = std::env::var("BIST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t <= MAX_THREADS)
        .unwrap_or(0);
    RunConfig::new(vectors).with_threads(threads).with_response_check(mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_all_generators() {
        for name in SECTION8_GENERATORS.iter().chain(["LFSR-2", "Ideal"].iter()) {
            let mut g = generator(name);
            assert_eq!(g.width(), 12);
            g.next_word();
        }
        let mut m = build_generator("Mixed@4").expect("registry spells mixed as Mixed@<n>");
        assert_eq!(m.width(), 12);
        m.next_word();
    }

    #[test]
    fn unknown_generator_is_a_structured_error_naming_the_registry() {
        let message = match build_generator("nope") {
            Err(e) => e.to_string(),
            Ok(_) => panic!("'nope' must not build"),
        };
        assert!(message.contains("unknown generator 'nope'"), "{message}");
        assert!(message.contains("LFSR-D"), "lists the known names: {message}");
    }

    #[test]
    fn mixed_scheme_builds_by_name_too() {
        let mut m = build_generator("Mixed@2048").expect("registry spells mixed as Mixed@<n>");
        assert_eq!(m.width(), 12);
        m.next_word();
    }

    #[test]
    fn cell_lint_flags_the_incompatible_pairing_statically() {
        let designs = paper_designs();
        let lp = designs.iter().find(|d| d.name() == "LP").expect("LP elaborates");
        // The paper's incompatible cell: Type-1 LFSR energy sits in the
        // lowpass stopband, so the spectral pass reports an error.
        let bad = cell_lint(lp, "LFSR-1", 4096);
        assert!(!bad.starts_with("0E"), "LP x LFSR-1 must carry an error: {bad}");
        // The decorrelated generator is the paper's compatible pick.
        let good = cell_lint(lp, "LFSR-D", 4096);
        assert!(good.starts_with("0E"), "LP x LFSR-D must be error-free: {good}");
    }

    #[test]
    fn lint_tally_formats_the_shared_cell_verdict() {
        use obs::{Diagnostic, Location, Severity};
        assert_eq!(lint_tally(&[]), "0E 0W 0I");
        let diags = vec![
            Diagnostic::new("L201", Severity::Error, Location::Design, "incompatible"),
            Diagnostic::new("L101", Severity::Warn, Location::Design, "headroom"),
            Diagnostic::new("L102", Severity::Warn, Location::Design, "variance"),
            Diagnostic::new("L403", Severity::Info, Location::Design, "dropping"),
        ];
        assert_eq!(lint_tally(&diags), "1E 2W 1I");
        // cell_lint goes through the same formatter.
        let designs = paper_designs();
        let lp = designs.iter().find(|d| d.name() == "LP").expect("LP elaborates");
        let cell = cell_lint(lp, "LFSR-D", 4096);
        assert!(cell.contains("E ") && cell.contains("W ") && cell.ends_with('I'), "{cell}");
    }

    #[test]
    fn run_config_carries_the_requested_test_length() {
        let cfg = run_config(777);
        assert_eq!(cfg.vectors(), 777);
        assert_eq!(cfg.misr_width(), 16);
        assert_eq!(cfg.response_check(), ResponseCheck::Trace);
        let sig = run_config_mode(777, ResponseCheck::Signature);
        assert_eq!(sig.response_check(), ResponseCheck::Signature);
    }

    #[test]
    fn signature_cells_carry_their_compaction_verdict() {
        let designs = paper_designs();
        let lp = designs.iter().find(|d| d.name() == "LP").expect("LP elaborates");
        let trace = cell_lint(lp, "LFSR-D", 4096);
        let sig = cell_lint_mode(lp, "LFSR-D", 4096, ResponseCheck::Signature);
        // Signature mode adds the informational L403 dropping note but
        // no errors on the paper roster.
        assert!(sig.starts_with("0E"), "{sig}");
        assert_ne!(trace, sig, "the L4xx pass must show in the tally");
    }
}
