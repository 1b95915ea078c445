#!/usr/bin/env bash
# The benchmark's one command. Builds `fw-worker` (root workspace, release)
# and the benchmark package, then hands every argument to `fw-benchmark`:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --all [--seed <n>] [--seconds <s>] [--runs <r>]
#   benchmark/run.sh --smoke
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds, so the second reuses the first's
# crates. A relative CARGO_TARGET_DIR is taken relative to the root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p fw-dist --bin fw-worker
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$(cd "$CARGO_TARGET_DIR/release" && pwd)"

export FW_WORKER_BIN="$bin/fw-worker"
exec "$bin/fw-benchmark" "$@"
