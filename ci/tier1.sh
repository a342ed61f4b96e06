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
# reply for its key, which covers the daemon's submit and cache paths.
for workload in sig-lp trace-grid proof-topoff daemon-mix; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done

# Daemon smoke test, once over a Unix socket and once over TCP: a bistd
# must serve a campaign, answer the identical resubmission from its
# result cache, and drain cleanly on shutdown.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
smoke_checks() {
    local server="$1" pid="$2" cold warm key
    cold="$(./target/release/bistctl --server "$server" run \
        --design LP-MINI --gen LFSR-D --vectors 64)"
    warm="$(./target/release/bistctl --server "$server" run \
        --design LP-MINI --gen LFSR-D --vectors 64)"
    echo "$cold" | grep -q '"cached":false' || { echo "cold run over $server unexpectedly cached: $cold"; exit 1; }
    echo "$warm" | grep -q '"cached":true' || { echo "warm run over $server missed the cache: $warm"; exit 1; }
    # A default spec keeps its historical cache key byte for byte.
    key='"key":"design=LP-MINI;generator=LFSR-D;vectors=64;misr=16;mode=trace;schedule=64,256,1024;threads=0;topoff=off"'
    echo "$cold" | grep -qF "$key" || { echo "cold run over $server has the wrong cache key: $cold"; exit 1; }
    ./target/release/bistctl --server "$server" shutdown > /dev/null
    wait "$pid"
    echo "bistd smoke test over $server: cache hit + graceful shutdown OK"
}

sock="$smoke_dir/bistd.sock"
./target/release/bistd --unix "$sock" --workers 1 > "$smoke_dir/unix.log" &
unix_pid=$!
for _ in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.1
done
[ -S "$sock" ] || { echo "bistd never created its socket"; cat "$smoke_dir/unix.log"; exit 1; }
smoke_checks "unix:$sock" "$unix_pid"

# Port 0 binds an ephemeral port; the daemon logs the address it got.
./target/release/bistd --tcp 127.0.0.1:0 --workers 1 > "$smoke_dir/tcp.log" &
tcp_pid=$!
tcp_addr=""
for _ in $(seq 1 50); do
    tcp_addr="$(sed -n 's/^bistd: listening on tcp //p' "$smoke_dir/tcp.log")"
    [ -n "$tcp_addr" ] && break
    sleep 0.1
done
[ -n "$tcp_addr" ] || { echo "bistd never reported its tcp address"; cat "$smoke_dir/tcp.log"; exit 1; }
smoke_checks "$tcp_addr" "$tcp_pid"
