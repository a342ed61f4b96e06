//! Golden-file snapshot tests for `bistlint --json`.
//!
//! The JSON report is a machine interface (the daemon and CI both parse
//! it), so its bytes are pinned here: any intentional change to codes,
//! messages, ordering, or serialization must re-bless the snapshots.
//!
//! Regenerate with `BLESS=1 cargo test -p bist-lint --test golden`.
//!
//! The roster gate lives here too: the three paper designs are free of
//! error-severity findings under their recommended generator, and the
//! paper's known-bad pairing is flagged.

use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Runs the real binary and returns its stdout. Design-only runs (no
/// `--gen`) keep the snapshot independent of generator heuristics.
fn bistlint_json(design: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bistlint"))
        .args(["--json", "--design", design])
        .output()
        .expect("bistlint runs");
    assert!(out.status.success(), "bistlint --design {design} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

fn check_golden(design: &str, file: &str) {
    let actual = bistlint_json(design);
    let path = golden_path(file);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {}: {e} (run with BLESS=1)", path.display())
    });
    assert_eq!(
        actual,
        expected,
        "bistlint --json --design {design} drifted from {}; \
         re-bless with BLESS=1 if the change is intentional",
        path.display()
    );
}

/// The exit code of the real binary on one design × generator pairing
/// (0 = no error-severity finding, 1 = errors found).
fn bistlint_exit(design: &str, generator: &str) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bistlint"))
        .args(["--design", design, "--gen", generator])
        .output()
        .expect("bistlint runs")
        .status
        .code()
}

#[test]
fn roster_is_clean_and_the_incompatible_pairing_is_flagged() {
    for design in ["LP", "BP", "HP"] {
        assert_eq!(
            bistlint_exit(design, "LFSR-D"),
            Some(0),
            "bistlint found errors on {design} x LFSR-D"
        );
    }
    assert_eq!(
        bistlint_exit("LP", "LFSR-1"),
        Some(1),
        "bistlint failed to flag the incompatible LP x LFSR-1 pairing"
    );
}

#[test]
fn lp_mini_report_is_byte_stable() {
    check_golden("LP-MINI", "LP-MINI.json");
}

#[test]
fn lp_report_is_byte_stable() {
    check_golden("LP", "LP.json");
}

#[test]
fn json_report_parses_and_carries_the_summary() {
    let report = obs::JsonValue::parse(&bistlint_json("LP-MINI")).expect("valid JSON");
    assert_eq!(report.get("design").and_then(obs::JsonValue::as_str), Some("LP-MINI"));
    assert_eq!(report.get("schema").and_then(obs::JsonValue::as_u64), Some(1));
    let summary = report.get("summary").expect("summary object");
    assert_eq!(summary.get("errors").and_then(obs::JsonValue::as_u64), Some(0));
}
