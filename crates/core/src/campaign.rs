//! Campaign specifications: a serializable, canonicalizable description
//! of one complete BIST experiment — which design, which generator, and
//! the [`RunConfig`] knobs — decoupled from any in-memory object.
//!
//! This is the unit of work the `bistd` campaign daemon schedules and
//! caches: a [`CampaignSpec`] travels over the wire as JSON, is
//! canonicalized to a deterministic key string
//! ([`CampaignSpec::canonical`]) for content addressing, and is
//! executed by [`CampaignSpec::run`] on a worker thread. Both sides of
//! the wire (and the inline `bench` harness) build designs and
//! generators through the same registry, so a cached artifact is
//! interchangeable with a fresh run.

use crate::session::{BistRun, BistSession, ResponseCheck, RunConfig, SatConfig, SessionError};
use atpg::TopOffConfig;
use faultsim::{CancelToken, StageSchedule};
use filters::FilterDesign;
use obs::JsonValue;
use std::fmt::Write as _;
use std::sync::OnceLock;
use tpg::TestGenerator;

/// Designs a campaign can name: the paper's three Table 1 circuits, the
/// two architecture variants of the LP design, and the 16-tap miniature
/// used by service smoke tests.
pub const KNOWN_DESIGNS: [&str; 6] = ["LP", "BP", "HP", "LP-SYM", "LP-CSA", "LP-MINI"];

/// The most fault-simulation workers a spec may pin
/// ([`CampaignSpec::threads`]). Each is an OS thread for every stage of
/// the run, and a pinned count above the host's cores buys nothing.
pub const MAX_THREADS: usize = 64;

/// Single-mode generators a campaign can name (12-bit, matching the
/// paper designs). The mixed scheme is spelled `Mixed@<n>`: LFSR-1 for
/// `n` vectors, then LFSR-M.
pub const KNOWN_GENERATORS: [&str; 6] = ["LFSR-1", "LFSR-2", "LFSR-D", "LFSR-M", "Ramp", "Ideal"];

/// One complete, self-contained experiment description.
///
/// `threads` is part of the spec (a submitter may pin worker
/// parallelism) and of the canonical form — even though results are
/// bit-identical at every thread count, the produced artifact records
/// the thread count it ran with, so specs differing in any field get
/// distinct cache keys and bit-identical replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Design name (see [`KNOWN_DESIGNS`]).
    pub design: String,
    /// Generator name (see [`KNOWN_GENERATORS`]) or `Mixed@<n>`.
    pub generator: String,
    /// Test length in vectors.
    pub vectors: usize,
    /// Signature-register width in bits.
    pub misr_width: u32,
    /// How responses are checked: `Trace` direct compare (the paper's
    /// oracle) or `Signature` MISR compaction with aliasing accounting.
    pub mode: ResponseCheck,
    /// Fault-dropping stage boundaries; `None` = the default schedule.
    pub boundaries: Option<Vec<u32>>,
    /// Fault-simulation worker threads (`0` = one per core; at most
    /// [`MAX_THREADS`]).
    pub threads: usize,
    /// Deterministic top-off stage (ATPG screen + justification +
    /// hybrid LFSR reseeding); `None` = disabled.
    pub topoff: Option<TopOffConfig>,
    /// SAT proof stage (CDCL redundancy pruning + optional
    /// design/model equivalence certificate); `None` = disabled.
    pub sat: Option<SatConfig>,
    /// Structural fault collapsing: analyze the netlist, simulate only
    /// equivalence-class representatives and expand verdicts back
    /// (results stay byte-identical); `false` = disabled.
    pub collapse: bool,
}

impl CampaignSpec {
    /// A spec with the session defaults: 16-bit MISR, trace-mode
    /// response checking, default stage schedule, one worker thread per
    /// core, every optional stage off. This is the one place a knob's
    /// default is written; [`RunConfig::new`] and
    /// [`CampaignSpec::from_json`] start from it.
    pub fn new(design: impl Into<String>, generator: impl Into<String>, vectors: usize) -> Self {
        CampaignSpec {
            design: design.into(),
            generator: generator.into(),
            vectors,
            misr_width: 16,
            mode: ResponseCheck::default(),
            boundaries: None,
            threads: 0,
            topoff: None,
            sat: None,
            collapse: false,
        }
    }

    /// The same spec in signature mode (builder-style convenience).
    pub fn with_mode(mut self, mode: ResponseCheck) -> Self {
        self.mode = mode;
        self
    }

    /// The same spec with the deterministic top-off stage enabled
    /// (builder-style convenience).
    pub fn with_topoff(mut self, cfg: TopOffConfig) -> Self {
        self.topoff = Some(cfg);
        self
    }

    /// The same spec with the SAT proof stage enabled (builder-style
    /// convenience).
    pub fn with_sat(mut self, cfg: SatConfig) -> Self {
        self.sat = Some(cfg);
        self
    }

    /// The same spec with structural fault collapsing enabled
    /// (builder-style convenience).
    pub fn with_collapse(mut self, collapse: bool) -> Self {
        self.collapse = collapse;
        self
    }

    /// Checks every field against the registries and basic bounds,
    /// without paying for elaboration.
    ///
    /// # Errors
    ///
    /// [`SessionError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), SessionError> {
        if !KNOWN_DESIGNS.contains(&self.design.as_str()) {
            return Err(unknown_design(&self.design));
        }
        if !KNOWN_GENERATORS.contains(&self.generator.as_str())
            && parse_mixed(&self.generator).is_none()
        {
            return Err(unknown_generator(&self.generator));
        }
        self.check_knobs()
    }

    /// The bounds checks of [`CampaignSpec::validate`] without the
    /// registry names, which [`BistSession::run`] never reads: it
    /// applies these same checks to its [`RunConfig`].
    pub(crate) fn check_knobs(&self) -> Result<(), SessionError> {
        if self.vectors == 0 {
            return Err(invalid("vectors must be positive"));
        }
        if u32::try_from(self.vectors).is_err() {
            return Err(invalid(format!(
                "vectors = {} exceeds the u32 cycle counter ({})",
                self.vectors,
                u32::MAX
            )));
        }
        if tpg::polynomials::primitive(self.misr_width).is_err() {
            return Err(invalid(format!(
                "misr_width = {} has no tabulated primitive polynomial",
                self.misr_width
            )));
        }
        if self.threads > MAX_THREADS {
            return Err(invalid(format!(
                "threads = {} exceeds the limit of {MAX_THREADS}",
                self.threads
            )));
        }
        if let Some(b) = &self.boundaries {
            if !b.windows(2).all(|w| w[0] < w[1]) {
                return Err(invalid("schedule boundaries must be strictly ascending"));
            }
        }
        if self.topoff.is_some_and(|t| t.block_len == 0) {
            return Err(invalid("topoff block_len must be positive"));
        }
        if self.sat.is_some_and(|s| s.max_conflicts == 0) {
            return Err(invalid("sat max_conflicts must be positive"));
        }
        Ok(())
    }

    /// The canonical key string content-addressed caches hash: every
    /// field in a fixed order, with the default schedule spelled out,
    /// so any two specs that run identically serialize identically.
    ///
    /// ```
    /// use bist_core::campaign::CampaignSpec;
    ///
    /// let spec = CampaignSpec::new("LP", "LFSR-D", 4096);
    /// assert_eq!(
    ///     spec.canonical(),
    ///     "design=LP;generator=LFSR-D;vectors=4096;misr=16;mode=trace;schedule=64,256,1024;threads=0;topoff=off"
    /// );
    /// ```
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "design={};generator={};vectors={};misr={};mode={};schedule=",
            self.design, self.generator, self.vectors, self.misr_width, self.mode
        );
        let default_boundaries = StageSchedule::new().into_boundaries();
        let boundaries = self.boundaries.as_ref().unwrap_or(&default_boundaries);
        let boundaries: Vec<String> = boundaries.iter().map(u32::to_string).collect();
        let _ = write!(out, "{};threads={}", boundaries.join(","), self.threads);
        match &self.topoff {
            None => out.push_str(";topoff=off"),
            Some(t) => {
                let _ = write!(out, ";topoff=block{},seeds{}", t.block_len, t.max_seeds);
            }
        }
        // Appended only when enabled, so every pre-SAT spec keeps its
        // exact historical cache key.
        if let Some(s) = &self.sat {
            let _ =
                write!(out, ";sat=conf{},equiv{}", s.max_conflicts, if s.equiv { 1 } else { 0 });
        }
        // Same rule for the collapse knob: the suffix appears only when
        // the stage is on, so older specs keep their cache keys even
        // though collapsed results are byte-identical anyway.
        if self.collapse {
            out.push_str(";collapse=on");
        }
        out
    }

    /// Renders the spec as a JSON object (the wire form).
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::object()
            .push("design", self.design.as_str())
            .push("generator", self.generator.as_str())
            .push("vectors", self.vectors)
            .push("misr_width", self.misr_width)
            .push("mode", self.mode.as_str());
        if let Some(b) = &self.boundaries {
            v = v.push("boundaries", b.clone());
        }
        v = v.push("threads", self.threads);
        if let Some(t) = &self.topoff {
            v = v.push(
                "topoff",
                JsonValue::object().push("block_len", t.block_len).push("max_seeds", t.max_seeds),
            );
        }
        if let Some(s) = &self.sat {
            v = v.push(
                "sat",
                JsonValue::object().push("max_conflicts", s.max_conflicts).push("equiv", s.equiv),
            );
        }
        if self.collapse {
            v = v.push("collapse", true);
        }
        v
    }

    /// Reads a spec back from its wire form. `design`, `generator` and
    /// `vectors` are required; every other knob starts from
    /// [`CampaignSpec::new`] and is overridden only when present and
    /// not `null`. Unknown fields (such as the retired `engine`) are
    /// ignored.
    ///
    /// # Errors
    ///
    /// [`SessionError::InvalidConfig`] on missing/mistyped fields (the
    /// result is *not* yet validated against the registries; call
    /// [`CampaignSpec::validate`] for that).
    pub fn from_json(v: &JsonValue) -> Result<CampaignSpec, SessionError> {
        // Missing or null means "not given", so older peers and cache
        // spills that spell an absent knob as null keep parsing.
        let field = |name: &str| v.get(name).filter(|x| !matches!(x, JsonValue::Null));
        let required = |name: &str| {
            field(name).ok_or_else(|| invalid(format!("campaign spec is missing '{name}'")))
        };
        let text = |name: &str| {
            required(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("'{name}' must be a string")))
        };
        let number = |x: &JsonValue, name: &str| {
            x.as_u64().ok_or_else(|| invalid(format!("'{name}' must be a non-negative integer")))
        };
        let mut spec = CampaignSpec::new(
            text("design")?,
            text("generator")?,
            number(required("vectors")?, "vectors")? as usize,
        );
        let as_u32 = |x: &JsonValue| x.as_u64().and_then(|n| u32::try_from(n).ok());
        if let Some(w) = field("misr_width") {
            spec.misr_width =
                as_u32(w).ok_or_else(|| invalid("'misr_width' must be a u32 bit count"))?;
        }
        if let Some(m) = field("mode") {
            let name = m.as_str().ok_or_else(|| invalid("'mode' must be a string"))?;
            spec.mode = ResponseCheck::parse(name)
                .ok_or_else(|| invalid(format!("unknown response-check mode '{name}'")))?;
        }
        if let Some(b) = field("boundaries") {
            let items = b
                .as_array()
                .ok_or_else(|| invalid("'boundaries' must be an array of cycle counts"))?;
            let cycles = items.iter().map(as_u32).collect::<Option<_>>();
            spec.boundaries = Some(
                cycles.ok_or_else(|| invalid("'boundaries' entries must be u32 cycle counts"))?,
            );
        }
        if let Some(t) = field("threads") {
            spec.threads = number(t, "threads")? as usize;
        }
        if let Some(t) = field("topoff") {
            let sub = |name: &str| t.get(name).and_then(as_u32);
            let (Some(block_len), Some(max_seeds)) = (sub("block_len"), sub("max_seeds")) else {
                return Err(invalid(
                    "'topoff' must be an object with u32 'block_len' and 'max_seeds'",
                ));
            };
            spec.topoff = Some(TopOffConfig { block_len, max_seeds });
        }
        if let Some(s) = field("sat") {
            let (Some(max_conflicts), Some(equiv)) = (
                s.get("max_conflicts").and_then(JsonValue::as_u64),
                s.get("equiv").and_then(JsonValue::as_bool),
            ) else {
                return Err(invalid(
                    "'sat' must be an object with u64 'max_conflicts' and bool 'equiv'",
                ));
            };
            spec.sat = Some(SatConfig { max_conflicts, equiv });
        }
        if let Some(c) = field("collapse") {
            spec.collapse = c.as_bool().ok_or_else(|| invalid("'collapse' must be a boolean"))?;
        }
        Ok(spec)
    }

    /// Builds the named generator.
    ///
    /// # Errors
    ///
    /// [`SessionError::InvalidConfig`] for an unknown name, or the
    /// wrapped [`tpg::TpgError`] from construction.
    pub fn build_generator(&self) -> Result<Box<dyn TestGenerator>, SessionError> {
        build_generator(&self.generator)
    }

    /// The [`RunConfig`] this spec describes: a copy of the spec with
    /// an optional cancellation token attached.
    pub fn run_config(&self, cancel: Option<CancelToken>) -> RunConfig {
        RunConfig { spec: self.clone(), metrics: None, cancel, lint: Vec::new() }
    }

    /// Validates and runs the whole campaign on the design's
    /// process-wide session ([`shared_session`]), checking `cancel`
    /// (if given) at phase and stage boundaries.
    ///
    /// # Errors
    ///
    /// Any [`SessionError`]: invalid spec, elaboration failure, or
    /// [`SessionError::Cancelled`].
    pub fn run(&self, cancel: Option<CancelToken>) -> Result<BistRun, SessionError> {
        self.run_linted(cancel, Vec::new())
    }

    /// Like [`CampaignSpec::run`], but attaches admission-time lint
    /// diagnostics to the run's artifact (see
    /// [`RunConfig::with_lint`]). The diagnostics are observational:
    /// they never change what is simulated.
    ///
    /// # Errors
    ///
    /// Any [`SessionError`]: invalid spec, elaboration failure, or
    /// [`SessionError::Cancelled`].
    pub fn run_linted(
        &self,
        cancel: Option<CancelToken>,
        lint: Vec<obs::Diagnostic>,
    ) -> Result<BistRun, SessionError> {
        self.validate()?;
        let session = shared_session(&self.design)?;
        if let Some(token) = &cancel {
            if token.is_cancelled() {
                return Err(SessionError::Cancelled {
                    deadline_exceeded: token.deadline_exceeded(),
                });
            }
        }
        let mut generator = self.build_generator()?;
        session.run(&mut *generator, &self.run_config(cancel).with_lint(lint))
    }
}

/// A [`SessionError::InvalidConfig`] with the given reason.
fn invalid(reason: impl Into<String>) -> SessionError {
    SessionError::InvalidConfig { reason: reason.into() }
}

fn unknown_design(name: &str) -> SessionError {
    invalid(format!("unknown design '{name}' (known: {})", KNOWN_DESIGNS.join(", ")))
}

fn unknown_generator(name: &str) -> SessionError {
    invalid(format!(
        "unknown generator '{name}' (known: {}, or Mixed@<n>)",
        KNOWN_GENERATORS.join(", ")
    ))
}

/// Elaborates a design by registry name (see [`KNOWN_DESIGNS`]).
///
/// # Errors
///
/// [`SessionError::InvalidConfig`] for an unknown name, or the wrapped
/// [`filters::FilterError`] from elaboration.
pub fn build_design(name: &str) -> Result<FilterDesign, SessionError> {
    let design = match name {
        "LP" => filters::designs::lowpass()?,
        "BP" => filters::designs::bandpass()?,
        "HP" => filters::designs::highpass()?,
        "LP-SYM" => filters::designs::lowpass_symmetric()?,
        "LP-CSA" => filters::designs::lowpass_carry_save()?,
        "LP-MINI" => filters::designs::lowpass_mini()?,
        other => return Err(unknown_design(other)),
    };
    Ok(design)
}

/// The process-wide [`BistSession`] of a registry design (see
/// [`KNOWN_DESIGNS`]). The first call for a name elaborates the design
/// and builds its session; every later call, from any thread, gets the
/// same session, with whatever tables its runs have built since (see
/// [`BistSession::justifier`]). Both stay alive until the process
/// exits: the memo holds at most one design and one session per
/// registry name, six of each. A failed build is remembered too.
///
/// # Errors
///
/// [`SessionError::InvalidConfig`] for an unknown name, or the error
/// elaboration or [`BistSession::new`] returned.
pub fn shared_session(name: &str) -> Result<&'static BistSession<'static>, SessionError> {
    type Slots<T> = [OnceLock<Result<T, SessionError>>; KNOWN_DESIGNS.len()];
    static DESIGNS: Slots<FilterDesign> = [const { OnceLock::new() }; KNOWN_DESIGNS.len()];
    static SESSIONS: Slots<BistSession<'static>> = [const { OnceLock::new() }; KNOWN_DESIGNS.len()];
    let index =
        KNOWN_DESIGNS.iter().position(|&d| d == name).ok_or_else(|| unknown_design(name))?;
    let design =
        DESIGNS[index].get_or_init(|| build_design(name)).as_ref().map_err(Clone::clone)?;
    SESSIONS[index].get_or_init(|| BistSession::new(design)).as_ref().map_err(Clone::clone)
}

/// Builds a 12-bit generator by registry name (see
/// [`KNOWN_GENERATORS`]), including the `Mixed@<n>` scheme.
///
/// # Errors
///
/// [`SessionError::InvalidConfig`] for an unknown name, or the wrapped
/// [`tpg::TpgError`] from construction.
pub fn build_generator(name: &str) -> Result<Box<dyn TestGenerator>, SessionError> {
    use tpg::ShiftDirection::LsbToMsb;
    let generator: Box<dyn TestGenerator> = match name {
        "LFSR-1" => Box::new(tpg::Lfsr1::new(12, LsbToMsb)?),
        "LFSR-2" => Box::new(tpg::Lfsr2::new(12, tpg::polynomials::PAPER_TYPE2_POLY)?),
        "LFSR-D" => Box::new(tpg::Decorrelated::maximal(12, LsbToMsb)?),
        "LFSR-M" => Box::new(tpg::MaxVariance::maximal(12)?),
        "Ramp" => Box::new(tpg::Ramp::new(12)?),
        "Ideal" => Box::new(tpg::IdealWhite::new(12)?),
        other => match parse_mixed(other) {
            Some(switch_after) => Box::new(tpg::Mixed::lfsr1_then_maxvar(12, switch_after)?),
            None => return Err(unknown_generator(other)),
        },
    };
    Ok(generator)
}

/// Parses `Mixed@<n>` into its switch-over vector count. Static
/// analyzers use this to decompose a mixed scheme into its phases
/// (LFSR-1 for `n` vectors, then LFSR-M).
pub fn parse_mixed(name: &str) -> Option<u64> {
    name.strip_prefix("Mixed@")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_is_deterministic_and_field_sensitive() {
        let base = CampaignSpec::new("LP", "LFSR-D", 4096);
        assert_eq!(base.canonical(), base.canonical());
        // The default schedule is spelled out, so None == explicit default.
        let explicit = CampaignSpec { boundaries: Some(vec![64, 256, 1024]), ..base.clone() };
        assert_eq!(base.canonical(), explicit.canonical());
        // Every other single-field change shows in the canonical form.
        for changed in [
            CampaignSpec { design: "HP".into(), ..base.clone() },
            CampaignSpec { generator: "Ramp".into(), ..base.clone() },
            CampaignSpec { vectors: 4095, ..base.clone() },
            CampaignSpec { misr_width: 12, ..base.clone() },
            CampaignSpec { mode: ResponseCheck::Signature, ..base.clone() },
            CampaignSpec { boundaries: Some(vec![64]), ..base.clone() },
            CampaignSpec { threads: 2, ..base.clone() },
            base.clone().with_topoff(TopOffConfig::default()),
            base.clone().with_sat(SatConfig::default()),
            base.clone().with_collapse(true),
        ] {
            assert_ne!(base.canonical(), changed.canonical(), "{changed:?}");
        }
        // Different top-off knobs get different cache keys too.
        let a = base.clone().with_topoff(TopOffConfig { block_len: 64, max_seeds: 8 });
        let b = base.clone().with_topoff(TopOffConfig { block_len: 256, max_seeds: 8 });
        assert_ne!(a.canonical(), b.canonical());
        assert!(a.canonical().ends_with(";topoff=block64,seeds8"), "{}", a.canonical());
        // And different SAT knobs: the suffix appears only when enabled,
        // so every pre-SAT spec keeps its exact historical cache key.
        assert!(base.canonical().ends_with(";topoff=off"), "{}", base.canonical());
        let c = base.clone().with_sat(SatConfig { max_conflicts: 500, equiv: false });
        let d = base.clone().with_sat(SatConfig { max_conflicts: 500, equiv: true });
        assert_ne!(c.canonical(), d.canonical());
        assert!(c.canonical().ends_with(";topoff=off;sat=conf500,equiv0"), "{}", c.canonical());
        let both = a.with_sat(SatConfig { max_conflicts: 20_000, equiv: true });
        assert!(
            both.canonical().ends_with(";topoff=block64,seeds8;sat=conf20000,equiv1"),
            "{}",
            both.canonical()
        );
        // The collapse suffix follows the same only-when-on rule and
        // sits after every stage knob.
        let all = both.with_collapse(true);
        assert!(
            all.canonical().ends_with(";sat=conf20000,equiv1;collapse=on"),
            "{}",
            all.canonical()
        );
        assert!(!base.canonical().contains("collapse"), "{}", base.canonical());
    }

    #[test]
    fn json_round_trips_with_and_without_optionals() {
        let full = CampaignSpec {
            design: "BP".into(),
            generator: "Mixed@2048".into(),
            vectors: 8192,
            misr_width: 12,
            mode: ResponseCheck::Signature,
            boundaries: Some(vec![16, 64]),
            threads: 4,
            topoff: Some(TopOffConfig { block_len: 128, max_seeds: 4 }),
            sat: Some(SatConfig { max_conflicts: 5000, equiv: true }),
            collapse: true,
        };
        assert_eq!(CampaignSpec::from_json(&full.to_json()).unwrap(), full);
        assert!(full.to_json().to_json().contains("\"collapse\":true"));
        assert!(full
            .to_json()
            .to_json()
            .contains("\"topoff\":{\"block_len\":128,\"max_seeds\":4}"));
        assert!(full
            .to_json()
            .to_json()
            .contains("\"sat\":{\"max_conflicts\":5000,\"equiv\":true}"));
        let minimal =
            JsonValue::parse("{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64}")
                .unwrap();
        let spec = CampaignSpec::from_json(&minimal).unwrap();
        assert_eq!(spec, CampaignSpec::new("LP", "LFSR-1", 64));
        assert_eq!(spec.misr_width, 16);
        assert_eq!(spec.mode, ResponseCheck::Trace);
        assert_eq!(spec.topoff, None);
        assert_eq!(spec.sat, None);
        assert!(!spec.collapse);
        assert!(!spec.to_json().to_json().contains("topoff"), "absent knob stays off the wire");
        assert!(!spec.to_json().to_json().contains("sat"), "absent knob stays off the wire");
        assert!(!spec.to_json().to_json().contains("collapse"), "absent knob stays off the wire");
        assert!(!spec.to_json().to_json().contains("engine"), "no engine on the wire");
        // A pre-collapse peer may spell the knob as an explicit null.
        let nulled = JsonValue::parse(
            "{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\"collapse\":null}",
        )
        .unwrap();
        assert!(!CampaignSpec::from_json(&nulled).unwrap().collapse);
        // Older peers and cache spills may still carry the retired
        // engine knob: it is ignored like any unknown field, so the
        // spec and its cache key equal the bare spec's.
        for engine in ["null", "\"walker\"", "\"kernel\""] {
            let text = format!(
                "{{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\"engine\":{engine}}}"
            );
            let parsed = CampaignSpec::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, spec, "{text}");
            assert_eq!(parsed.canonical(), spec.canonical(), "{text}");
        }
    }

    #[test]
    fn from_json_rejects_missing_and_mistyped_fields() {
        for (text, needle) in [
            ("{\"generator\":\"LFSR-1\",\"vectors\":64}", "missing 'design'"),
            ("{\"design\":3,\"generator\":\"LFSR-1\",\"vectors\":64}", "must be a string"),
            ("{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":-4}", "non-negative integer"),
            (
                "{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\"boundaries\":7}",
                "array",
            ),
            (
                "{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\"mode\":\"crc\"}",
                "unknown response-check mode 'crc'",
            ),
            (
                "{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\"topoff\":7}",
                "'topoff' must be an object",
            ),
            (
                "{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\
                 \"topoff\":{\"block_len\":64}}",
                "'topoff' must be an object",
            ),
            (
                "{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\"sat\":7}",
                "'sat' must be an object",
            ),
            (
                "{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\
                 \"sat\":{\"max_conflicts\":100}}",
                "'sat' must be an object",
            ),
            (
                "{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\"collapse\":7}",
                "'collapse' must be a boolean",
            ),
            (
                "{\"design\":\"LP\",\"generator\":\"LFSR-1\",\"vectors\":64,\
                 \"misr_width\":4294967312}",
                "'misr_width' must be a u32",
            ),
            ("{\"design\":\"LP\",\"generator\":\"LFSR-1\"}", "campaign spec is missing 'vectors'"),
        ] {
            let v = JsonValue::parse(text).unwrap();
            let err = CampaignSpec::from_json(&v).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn validate_names_the_offending_field() {
        assert!(CampaignSpec::new("LP", "LFSR-D", 64).validate().is_ok());
        assert!(CampaignSpec::new("LP", "Mixed@2048", 64).validate().is_ok());
        let err = CampaignSpec::new("XX", "LFSR-D", 64).validate().unwrap_err();
        assert!(err.to_string().contains("unknown design 'XX'"), "{err}");
        let err = CampaignSpec::new("LP", "nope", 64).validate().unwrap_err();
        assert!(err.to_string().contains("unknown generator 'nope'"), "{err}");
        let err = CampaignSpec::new("LP", "Mixed@x", 64).validate().unwrap_err();
        assert!(err.to_string().contains("unknown generator"), "{err}");
        let err = CampaignSpec::new("LP", "LFSR-D", 0).validate().unwrap_err();
        assert!(err.to_string().contains("vectors"), "{err}");
        // Past the simulator's u32 cycle counter: rejected at admission.
        let err = CampaignSpec::new("LP", "LFSR-D", u32::MAX as usize + 65).validate().unwrap_err();
        assert!(matches!(err, SessionError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("vectors"), "{err}");
        assert!(CampaignSpec::new("LP", "LFSR-D", u32::MAX as usize).validate().is_ok());
        // A pinned worker count is bounded; a huge one must not reach
        // the scheduler's thread arithmetic.
        for (threads, ok) in [(0, true), (4, true), (MAX_THREADS, true), (MAX_THREADS + 1, false)]
            .into_iter()
            .chain([(1000, false), (usize::MAX, false)])
        {
            let spec = CampaignSpec { threads, ..CampaignSpec::new("LP", "LFSR-D", 128) };
            match spec.validate() {
                Err(SessionError::InvalidConfig { reason }) => {
                    assert!(!ok && reason.contains("threads"), "{threads}: {reason}")
                }
                other => assert!(ok && other.is_ok(), "{threads}: {other:?}"),
            }
        }
        let bad = CampaignSpec {
            boundaries: Some(vec![64, 64]),
            ..CampaignSpec::new("LP", "LFSR-D", 128)
        };
        assert!(bad.validate().unwrap_err().to_string().contains("ascending"));
        let bad = CampaignSpec::new("LP", "LFSR-D", 128)
            .with_topoff(TopOffConfig { block_len: 0, max_seeds: 4 });
        assert!(bad.validate().unwrap_err().to_string().contains("block_len"), "{bad:?}");
        let ok = CampaignSpec::new("LP", "LFSR-D", 128).with_topoff(TopOffConfig::default());
        assert!(ok.validate().is_ok());
        let bad = CampaignSpec::new("LP", "LFSR-D", 128)
            .with_sat(SatConfig { max_conflicts: 0, equiv: false });
        assert!(bad.validate().unwrap_err().to_string().contains("max_conflicts"), "{bad:?}");
        let ok = CampaignSpec::new("LP", "LFSR-D", 128).with_sat(SatConfig::default());
        assert!(ok.validate().is_ok());
        // Only widths with a tabulated primitive polynomial are admitted.
        for (width, ok) in [(63, false), (0, false), (3, false), (25, false), (4, true), (24, true)]
        {
            let spec = CampaignSpec { misr_width: width, ..CampaignSpec::new("LP", "LFSR-D", 128) };
            match spec.validate() {
                Err(SessionError::InvalidConfig { reason }) => {
                    assert!(!ok && reason.contains("misr_width"))
                }
                other => assert!(ok && other.is_ok(), "{width}: {other:?}"),
            }
        }
    }

    #[test]
    fn registry_builds_every_known_name() {
        for name in KNOWN_GENERATORS {
            let mut g = build_generator(name).unwrap();
            assert_eq!(g.width(), 12, "{name}");
            g.next_word();
        }
        let mut m = build_generator("Mixed@4").unwrap();
        m.next_word();
        assert!(build_generator("bogus").is_err());
        // Designs: just the cheap ones here (variants covered e2e).
        for name in ["LP", "BP", "HP", "LP-MINI"] {
            assert_eq!(build_design(name).unwrap().name(), name);
        }
        assert!(build_design("bogus").is_err());
    }

    #[test]
    fn spec_run_executes_end_to_end_and_honors_cancel() {
        let spec = CampaignSpec { threads: 1, ..CampaignSpec::new("LP", "LFSR-D", 32) };
        let run = spec.run(None).unwrap();
        assert_eq!(run.artifact.vectors, 32);
        assert_eq!(run.artifact.design, "LP");
        assert_eq!(run.artifact.generator, "LFSR-D");

        let token = CancelToken::new();
        token.cancel();
        let err = spec.run(Some(token)).unwrap_err();
        assert!(matches!(err, SessionError::Cancelled { .. }), "{err}");

        let bad = CampaignSpec::new("nope", "LFSR-D", 32);
        assert!(bad.run(None).is_err());
    }

    #[test]
    fn run_linted_attaches_diagnostics_to_the_artifact() {
        let spec = CampaignSpec { threads: 1, ..CampaignSpec::new("LP-MINI", "LFSR-D", 32) };
        let diags = vec![obs::Diagnostic::new(
            "L301",
            obs::Severity::Warn,
            obs::Location::Field { name: "vectors".into() },
            "degenerate vector count",
        )];
        let run = spec.run_linted(None, diags.clone()).unwrap();
        assert_eq!(run.artifact.lint, diags);
        // Plain run() is the unlinted shorthand with identical results.
        let plain = spec.run(None).unwrap();
        assert!(plain.artifact.lint.is_empty());
        assert_eq!(plain.signature, run.signature);
    }

    #[test]
    fn run_config_carries_every_spec_field() {
        let spec = CampaignSpec {
            misr_width: 12,
            boundaries: Some(vec![8, 32]),
            threads: 3,
            ..CampaignSpec::new("LP", "LFSR-D", 777)
        }
        .with_mode(ResponseCheck::Signature)
        .with_topoff(TopOffConfig { block_len: 64, max_seeds: 2 })
        .with_sat(SatConfig { max_conflicts: 999, equiv: false })
        .with_collapse(true);
        let config = spec.run_config(Some(CancelToken::new()));
        assert_eq!(config.spec, spec);
        assert!(config.cancel().is_some());
        // The getters read the carried spec.
        assert_eq!((config.vectors(), config.misr_width(), config.threads()), (777, 12, 3));
        assert_eq!(config.response_check(), ResponseCheck::Signature);
        assert_eq!(config.schedule(), StageSchedule::with_boundaries(vec![8, 32]));
        assert_eq!(config.top_off(), spec.topoff.as_ref());
        assert_eq!(config.sat_prune(), spec.sat.as_ref());
        assert!(config.collapse());
        // Without the knobs the config leaves every stage off.
        let plain = CampaignSpec::new("LP", "LFSR-D", 64).run_config(None);
        assert_eq!((plain.top_off(), plain.sat_prune(), plain.collapse()), (None, None, false));
    }
}
