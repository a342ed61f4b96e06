#!/usr/bin/env bash
# Tier-1 gate: the workspace must build, lint and test fully offline.
# Every dependency is a workspace path dependency; the registry dep
# (proptest) is commented out in the manifests and only needed for the
# opt-in `proptest` feature.
set -euo pipefail
cd "$(dirname "$0")/.."

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
# that moves a verdict fails here too.
for workload in sig-lp trace-grid proof-topoff; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done

# Static-analysis gate: the three paper designs must be free of
# error-severity lint findings under their recommended generators,
# and the paper's known-bad pairing must be flagged (exit 1).
for design in LP BP HP; do
    ./target/release/bistlint --design "$design" --gen LFSR-D > /dev/null \
        || { echo "bistlint found errors on $design x LFSR-D"; exit 1; }
done
if ./target/release/bistlint --design LP --gen LFSR-1 > /dev/null 2>&1; then
    echo "bistlint failed to flag the incompatible LP x LFSR-1 pairing"
    exit 1
fi
echo "bistlint gate: roster clean, incompatible pairing flagged OK"

# Daemon smoke test: a bistd on a Unix socket must serve a campaign,
# answer the identical resubmission from its result cache, and drain
# cleanly on shutdown.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
sock="$smoke_dir/bistd.sock"
./target/release/bistd --unix "$sock" --workers 1 > "$smoke_dir/bistd.log" &
bistd_pid=$!
for _ in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.1
done
[ -S "$sock" ] || { echo "bistd never created its socket"; cat "$smoke_dir/bistd.log"; exit 1; }
smoke_run() {
    ./target/release/bistctl --server "unix:$sock" run \
        --design LP-MINI --gen LFSR-D --vectors 64
}
cold="$(smoke_run)"
warm="$(smoke_run)"
echo "$cold" | grep -q '"cached":false' || { echo "cold run unexpectedly cached: $cold"; exit 1; }
echo "$warm" | grep -q '"cached":true' || { echo "warm run missed the cache: $warm"; exit 1; }
# A default spec keeps its historical cache key byte for byte.
key='"key":"design=LP-MINI;generator=LFSR-D;vectors=64;misr=16;mode=trace;schedule=64,256,1024;threads=0;topoff=off"'
echo "$cold" | grep -qF "$key" || { echo "cold run has the wrong cache key: $cold"; exit 1; }
./target/release/bistctl --server "unix:$sock" shutdown > /dev/null
wait "$bistd_pid"
echo "bistd smoke test: cache hit + graceful shutdown OK"
