//! Golden roster of campaign cache keys.
//!
//! `CampaignSpec::canonical` is the content address of every artifact
//! the `bistd` result cache stores, in memory and on disk. A change to
//! its spelling silently orphans every cached entry (and, worse, could
//! let two different campaigns share one key), so the exact strings are
//! pinned here: every built-in design × every named generator (plus
//! one mixed scheme) × both response-check modes, then one line per
//! campaign knob and one with every knob set at once. Refactors of the
//! spec, the wire form or the run configuration must leave this file
//! byte-identical.
//!
//! Regenerate with `BLESS=1 cargo test -p bist-core --test canonical_keys`.

use bist_core::campaign::{CampaignSpec, KNOWN_DESIGNS, KNOWN_GENERATORS};
use bist_core::session::ResponseCheck;
use bist_core::{SatConfig, TopOffConfig};
use std::fmt::Write as _;

fn roster() -> String {
    let mut out = String::new();
    for design in KNOWN_DESIGNS {
        for generator in KNOWN_GENERATORS.into_iter().chain(["Mixed@2048"]) {
            for mode in [ResponseCheck::Trace, ResponseCheck::Signature] {
                let spec = CampaignSpec::new(design, generator, 4096).with_mode(mode);
                let _ = writeln!(out, "{}", spec.canonical());
            }
        }
    }
    let base = || CampaignSpec::new("LP-MINI", "LFSR-D", 1024);
    let topoff = TopOffConfig { block_len: 64, max_seeds: 8 };
    let sat = SatConfig { max_conflicts: 20_000, equiv: true };
    let knobs = [
        CampaignSpec { misr_width: 12, ..base() },
        CampaignSpec { boundaries: Some(vec![16, 128, 512]), ..base() },
        CampaignSpec { threads: 2, ..base() },
        base().with_topoff(topoff),
        base().with_sat(sat),
        base().with_sat(SatConfig { equiv: false, ..sat }),
        base().with_collapse(true),
        CampaignSpec {
            misr_width: 12,
            boundaries: Some(vec![16, 128, 512]),
            threads: 2,
            ..base().with_mode(ResponseCheck::Signature)
        }
        .with_topoff(topoff)
        .with_sat(sat)
        .with_collapse(true),
    ];
    for spec in knobs {
        let _ = writeln!(out, "{}", spec.canonical());
    }
    out
}

#[test]
fn canonical_keys_are_byte_stable() {
    let actual = roster();
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/canonical_keys.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {}: {e} (run with BLESS=1)", path.display())
    });
    assert_eq!(
        actual,
        expected,
        "campaign cache keys drifted from {}; every cached artifact is addressed by \
         these strings, so re-bless with BLESS=1 only for an intended key change",
        path.display()
    );
}
