#!/usr/bin/env bash
# Tier-1 gate: the workspace must build, lint and test fully offline.
# Every dependency is a workspace path dependency, and every randomized
# suite runs on the workspace's own seeded driver (crates/testkit).
set -euo pipefail
cd "$(dirname "$0")/.."

# No test or code path may hide behind a Cargo feature, where an offline
# `cargo test` never builds it: no workspace manifest declares
# [features], and nothing under crates/, tests/ or examples/ gates code
# on a feature or names the registry property-testing crate (its name is
# split below so that this script does not match itself).
if grep -l '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
    echo "the manifests above declare [features]"
    exit 1
fi
if grep -rlE 'cfg\(feature|prop''test' crates tests examples; then
    echo "the files above gate code on a feature or use the registry property-testing crate"
    exit 1
fi

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings \
    -D clippy::needless_pass_by_value -D clippy::redundant_clone
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
cargo build --release --offline
cargo test -q --offline

# The benchmark is a separate workspace with path dependencies on the
# crates; its own tests catch a crate change that breaks it.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Every benchmark run checks its verdicts against the committed digests
# (perfbench/expected/digests.txt) and exits non-zero on a mismatch, so a
# kernel change that moves a verdict fails here, not only in the
# benchmark pipeline. proof-topoff is the one workload whose digests hold
# SAT outcomes (redundant counts, top-off partitions), so a prover change
# that moves a verdict fails here too. daemon-mix checks every hot reply
# against its digest and every cache hit byte for byte against the first
# reply for its key, which covers the daemon's submit and cache paths; it
# runs at four seeds, because each seed draws its own generators and test
# lengths. The benchmark is built once, and each run is bounded by
# `timeout`, so a hung run fails the gate instead of stalling it.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
perfbench=perfbench/target/release/bist-perfbench
run_digest() {
    timeout 600 "$perfbench" --workload "$1" --seed "$2" --seconds 1 --trace 0 > /dev/null
}
for workload in sig-lp trace-grid proof-topoff; do
    run_digest "$workload" 1
done
for seed in 1 2 3 4; do
    run_digest daemon-mix "$seed"
done
