#!/usr/bin/env bash
# Builds the benchmark harness and the product's worker binary from source
# into one target directory, then runs the harness with the given arguments.
# This is the `command` of BENCHMARK.json; see README.md next to it.
set -euo pipefail
cd "$(dirname "$0")/.."

# One target directory for both builds, so that the harness finds
# `p2mdie-worker` next to itself (how the product resolves it).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml 1>&2
cargo build --release --offline --quiet -p p2mdie-core --bin p2mdie-worker 1>&2
# Cargo has just checked the worker against its sources and relinks it only
# when they changed. Stamp it as current, or the harness's guard against a
# worker older than itself (for binaries run by hand) would misfire whenever
# only the harness had to be relinked.
touch "$CARGO_TARGET_DIR/release/p2mdie-worker"

exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
