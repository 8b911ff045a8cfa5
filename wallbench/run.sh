#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash wallbench/run.sh --workload <ingest|feedback-closed|serve-update> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build goes to $CARGO_TARGET_DIR
# (default: wallbench/target) and its messages to standard error, so the
# last line of standard output is the benchmark's JSON result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/qd-wallbench" "$@"
