#!/usr/bin/env bash
# Builds `perf` in release mode and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload gapped-exits --seed 7 --seconds 20 --trace 0
#
# The benchmark is a Cargo workspace of its own, so the [profile.*]
# tables of the repository's root manifest would not reach its build.
# Passing that manifest as a Cargo config file applies them (Cargo takes
# the tables that are also config keys, such as [profile.*] and [patch],
# and ignores the rest), so the benchmark times the code as the
# repository builds it.
set -euo pipefail
here="$(dirname "$0")"
exec cargo run --release --quiet --offline --config "$here/../Cargo.toml" \
    --manifest-path "$here/Cargo.toml" --bin perf -- "$@"
