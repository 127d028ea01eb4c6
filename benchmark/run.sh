#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repo root.
#
#   benchmark/run.sh [--seed N]             every workload, every metric by name
#   benchmark/run.sh --aa [--seed N]        the same twice, compared against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           what the benchmark driver runs: one
#                                           JSON result as the last stdout line
#   add --smoke for tiny inputs (seconds, no run-length floor)
#
# Build output goes to stderr; a failed build exits non-zero and prints no result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
# Share the root workspace's target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/hupc-benchmark" "$@"
