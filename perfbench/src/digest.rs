//! The verdict gate: a digest of each campaign's simulated outcome and
//! the committed digests every run must reproduce exactly.
//!
//! `perfbench/expected/digests.txt` holds one line per campaign,
//! `<canonical spec key> <digest>`. A campaign whose digest differs, or
//! that has no committed line, is a failed operation; the error shows
//! the line to commit after reviewing it.

use bist_core::session::BistRun;
use obs::JsonValue;
use std::collections::BTreeMap;
use std::fmt;

const COMMITTED: &str = include_str!("../expected/digests.txt");

/// A top-off stage's verdict partition of the residue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Faults the simulation left undetected.
    pub residue: usize,
    /// Residual faults proven unactivatable.
    pub untestable: usize,
    /// Residual faults the verified top-off plan detects.
    pub detected: usize,
    /// Residual faults nobody could classify.
    pub unresolved: usize,
    /// Residual faults the SAT verdict pass proved redundant.
    pub redundant: usize,
}

/// A campaign's deterministic outcome. Host timings are not part of it;
/// everything here repeats bit for bit on every run and thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// Detected faults.
    pub detected: usize,
    /// Missed faults.
    pub missed: usize,
    /// Compare-detected faults whose signature aliases the good one.
    pub aliased: usize,
    /// The good machine's MISR signature.
    pub signature: u64,
    /// The top-off partition, when the stage ran.
    pub topoff: Option<Partition>,
    /// Faults the SAT stage proved redundant, when it ran.
    pub sat_redundant: Option<usize>,
    /// FNV-1a hash of every fault's detection cycle; `None` where only
    /// an artifact is at hand (daemon replies carry no per-fault
    /// cycles).
    pub cycles: Option<u64>,
}

impl Digest {
    /// The digest of a finished session run.
    pub fn of_run(run: &BistRun) -> Digest {
        let a = &run.artifact;
        Digest {
            detected: a.detected,
            missed: a.missed,
            aliased: a.aliased,
            signature: run.signature,
            topoff: a.topoff.as_ref().map(|t| Partition {
                residue: t.residue,
                untestable: t.untestable,
                detected: t.detected,
                unresolved: t.unresolved,
                redundant: t.redundant,
            }),
            sat_redundant: a.sat.as_ref().map(|s| s.redundant_proven),
            cycles: Some(cycles_hash(run.result.detection_cycles())),
        }
    }

    /// The digest of a run artifact's JSON form (a daemon reply).
    pub fn of_artifact(artifact: &JsonValue) -> Result<Digest, String> {
        let topoff = match artifact.get("topoff") {
            None | Some(JsonValue::Null) => None,
            Some(t) => Some(Partition {
                residue: count(t, "residue")?,
                untestable: count(t, "untestable")?,
                detected: count(t, "detected")?,
                unresolved: count(t, "unresolved")?,
                // Written only when non-zero.
                redundant: count(t, "redundant").unwrap_or(0),
            }),
        };
        let sat_redundant = match artifact.get("sat") {
            None | Some(JsonValue::Null) => None,
            Some(s) => Some(count(s, "redundant_proven")?),
        };
        Ok(Digest {
            detected: count(artifact, "detected")?,
            missed: count(artifact, "missed")?,
            aliased: count(artifact, "aliased")?,
            signature: number(artifact, "signature")?,
            topoff,
            sat_redundant,
            cycles: None,
        })
    }

    /// Whether two digests describe the same outcome; the cycle hashes
    /// are compared only when both sides carry one.
    pub fn agrees(&self, other: &Digest) -> bool {
        let cycles = match (self.cycles, other.cycles) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        cycles
            && Digest { cycles: None, ..self.clone() } == Digest { cycles: None, ..other.clone() }
    }

    /// Parses the [`fmt::Display`] form back.
    pub fn parse(text: &str) -> Result<Digest, String> {
        let mut fields = BTreeMap::new();
        for part in text.split_whitespace() {
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("digest field '{part}' lacks '='"))?;
            fields.insert(key, value);
        }
        let field = |key: &str| fields.get(key).copied().ok_or(format!("digest lacks '{key}'"));
        let optional = |key: &str| field(key).map(|v| (v != "-").then_some(v));
        let topoff = match optional("topoff")? {
            None => None,
            Some(text) => {
                let parts = text.split('/').map(parse_usize).collect::<Result<Vec<_>, _>>()?;
                let [residue, untestable, detected, unresolved, redundant] = parts[..] else {
                    return Err(format!("topoff '{text}' needs five '/'-separated counts"));
                };
                Some(Partition { residue, untestable, detected, unresolved, redundant })
            }
        };
        Ok(Digest {
            detected: parse_usize(field("detected")?)?,
            missed: parse_usize(field("missed")?)?,
            aliased: parse_usize(field("aliased")?)?,
            signature: parse_hex(field("signature")?)?,
            topoff,
            sat_redundant: optional("sat_redundant")?.map(parse_usize).transpose()?,
            cycles: optional("cycles")?.map(parse_hex).transpose()?,
        })
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "detected={} missed={} aliased={} signature={:#x}",
            self.detected, self.missed, self.aliased, self.signature
        )?;
        match &self.topoff {
            None => f.write_str(" topoff=-")?,
            Some(p) => write!(
                f,
                " topoff={}/{}/{}/{}/{}",
                p.residue, p.untestable, p.detected, p.unresolved, p.redundant
            )?,
        }
        match self.sat_redundant {
            None => f.write_str(" sat_redundant=-")?,
            Some(n) => write!(f, " sat_redundant={n}")?,
        }
        match self.cycles {
            None => f.write_str(" cycles=-"),
            Some(h) => write!(f, " cycles={h:#018x}"),
        }
    }
}

fn number(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key).and_then(JsonValue::as_u64).ok_or(format!("artifact lacks a count '{key}'"))
}

fn count(v: &JsonValue, key: &str) -> Result<usize, String> {
    number(v, key).map(|n| n as usize)
}

fn parse_usize(text: &str) -> Result<usize, String> {
    text.parse().map_err(|_| format!("'{text}' is not a count"))
}

fn parse_hex(text: &str) -> Result<u64, String> {
    u64::from_str_radix(text.trim_start_matches("0x"), 16)
        .map_err(|_| format!("'{text}' is not a hex number"))
}

/// FNV-1a over every fault's detection cycle (`cycle + 1`, or 0 for a
/// missed fault, as little-endian `u32`s).
pub fn cycles_hash(cycles: &[Option<u32>]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for cycle in cycles {
        for byte in cycle.map_or(0, |c| c.wrapping_add(1)).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Committed digests keyed by canonical campaign spec.
#[derive(Debug)]
pub struct Expected(BTreeMap<String, Digest>);

impl Expected {
    /// The digests committed with the benchmark.
    pub fn committed() -> Result<Expected, String> {
        Self::parse(COMMITTED)
    }

    /// Parses `<key> <digest>` lines; blank lines and `#` comments are
    /// skipped.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let (key, digest) =
                line.split_once(' ').ok_or(format!("digest line '{line}' has no digest"))?;
            map.insert(key.to_string(), Digest::parse(digest)?);
        }
        Ok(Expected(map))
    }

    /// The committed digest for `key`, if any.
    #[cfg(test)]
    pub fn get(&self, key: &str) -> Option<&Digest> {
        self.0.get(key)
    }

    /// Checks `got` against the committed digest for `key`.
    pub fn check(&self, key: &str, got: &Digest) -> Result<(), String> {
        match self.0.get(key) {
            Some(want) if want.agrees(got) => Ok(()),
            Some(want) => {
                Err(format!("verdict mismatch for {key}\n  expected {want}\n  got      {got}"))
            }
            None => Err(format!("no committed digest; after review, commit:\n{key} {got}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_core::campaign::CampaignSpec;
    use bist_core::session::ResponseCheck;

    #[test]
    fn digests_round_trip_through_text() {
        let full = Digest {
            detected: 13_000,
            missed: 42,
            aliased: 1,
            signature: 0x5503,
            topoff: Some(Partition {
                residue: 42,
                untestable: 3,
                detected: 38,
                unresolved: 0,
                redundant: 1,
            }),
            sat_redundant: Some(4),
            cycles: Some(0xdead_beef),
        };
        assert_eq!(Digest::parse(&full.to_string()).unwrap(), full);
        let bare = Digest { topoff: None, sat_redundant: None, cycles: None, ..full };
        assert_eq!(Digest::parse(&bare.to_string()).unwrap(), bare);
        assert!(Digest::parse("detected=1").is_err());
    }

    #[test]
    fn the_gate_catches_a_flipped_verdict() {
        let spec = CampaignSpec::new("LP-MINI", "LFSR-D", 256);
        let run = spec.clone().with_mode(ResponseCheck::Trace).run(None).unwrap();
        let digest = Digest::of_run(&run);
        let expected = Expected::parse(&format!("{} {digest}", spec.canonical())).unwrap();
        expected.check(&spec.canonical(), &digest).unwrap();

        // One fault's verdict flips from detected to missed: the counts
        // and the cycle hash both move.
        let mut cycles = run.result.detection_cycles().to_vec();
        let flipped = cycles.iter().position(Option::is_some).unwrap();
        cycles[flipped] = None;
        let wrong = Digest {
            detected: digest.detected - 1,
            missed: digest.missed + 1,
            cycles: Some(cycles_hash(&cycles)),
            ..digest
        };
        assert!(expected.check(&spec.canonical(), &wrong).is_err());
        // A detection moved to another cycle changes only the hash.
        cycles[flipped] = Some(run.result.detection_cycles()[flipped].unwrap() + 1);
        let moved = Digest { cycles: Some(cycles_hash(&cycles)), ..digest };
        assert!(expected.check(&spec.canonical(), &moved).is_err());
        // An artifact-only digest (no hash) still has to match the counts.
        let from_json = Digest::of_artifact(&run.artifact.to_json()).unwrap();
        expected.check(&spec.canonical(), &from_json).unwrap();
        let wrong_json = Digest { signature: from_json.signature ^ 1, ..from_json };
        assert!(expected.check(&spec.canonical(), &wrong_json).is_err());
        // And a campaign nobody committed is refused, not waved through.
        assert!(expected.check("design=LP-MINI;other", &digest).is_err());
    }

    /// The committed digests agree with the findings EXPERIMENTS.md
    /// records for the same cells.
    #[test]
    fn committed_digests_match_the_recorded_experiments() {
        let expected = Expected::committed().unwrap();
        let lookup = |spec: &CampaignSpec| {
            expected
                .get(&spec.canonical())
                .unwrap_or_else(|| panic!("{}", spec.canonical()))
                .clone()
        };
        // LP × LFSR-D in signature mode: 73 missed, 2 aliased.
        let sig = crate::workload::Workload::SigLp.cells();
        let lp = lookup(&sig[0]);
        assert_eq!((lp.missed, lp.aliased), (73, 2));
        // Trace mode misses the same 73 (Table 4).
        let grid = crate::workload::Workload::TraceGrid.cells();
        let lp_d = grid.iter().find(|c| c.design == "LP" && c.generator == "LFSR-D").unwrap();
        assert_eq!(lookup(lp_d).missed, 73);
        // Top-off leaves nothing unresolved; LP-CSA proves 4 redundant.
        for cell in crate::workload::Workload::ProofTopoff.cells() {
            let d = lookup(&cell);
            match d.topoff {
                Some(p) => assert_eq!(p.unresolved, 0, "{}", cell.canonical()),
                None => assert_eq!(d.sat_redundant, Some(4), "{}", cell.canonical()),
            }
        }
    }
}
