#!/usr/bin/env bash
# The tier-1 gate, run exactly as CI/the roadmap defines it. Fully
# offline: every dependency is a path dependency (see vendor/), so no
# network access is needed or attempted.
#
#   scripts/check.sh          # build + tests + perfbench tests and full-size
#                             # goldens + clippy + fmt + bench goldens
#                             # + export smokes
#   scripts/check.sh --fast   # skip the release build, perfbench, goldens and smokes
#   scripts/check.sh --bless  # rewrite tests/golden/ from this tree, then stop
set -euo pipefail
cd "$(dirname "$0")/.."

# Every bench bin but `aggregate` (which merges other bins' reports)
# has its `--quick --json` report pinned under tests/golden/<bin>.json.
# Two more goldens pin what those reports do not show: table4's time
# series (per-sample warmth and exit gauges) and the full-size fig. 6,
# whose 24-64 core points --quick skips.
golden_bins() {
  for f in crates/bench/src/bin/*.rs; do
    b="$(basename "$f" .rs)"
    [[ "$b" == aggregate ]] || echo "$b"
  done
}

write_goldens() { # <dir>
  mkdir -p "$1"
  for b in $(golden_bins); do
    extra=()
    [[ "$b" == table4 ]] && extra=(--timeseries "$1/table4.timeseries.csv")
    "./target/release/$b" --quick --json "$1/$b.json" "${extra[@]}" >/dev/null
  done
  ./target/release/fig6 --json "$1/fig6.full.json" >/dev/null
}

if [[ "${1:-}" == "--bless" ]]; then
  # Only for a change that is meant to move modelled output: see
  # README.md "Golden outputs".
  cargo build --release -p cg-bench
  rm -f tests/golden/*.json tests/golden/*.csv
  write_goldens tests/golden
  echo "== rewrote tests/golden/; review git diff and run cargo test (paper_gate) =="
  exit 0
fi

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

if [[ $fast -eq 0 ]]; then
  echo "== cargo build --release =="
  cargo build --release --workspace
fi

echo "== cargo test -q =="
cargo test -q --workspace

if [[ $fast -eq 0 ]]; then
  # perfbench is a workspace of its own that drives the crates through
  # their public API, so a workspace build alone cannot catch an API
  # edit that breaks the benchmark.
  echo "== perfbench tests =="
  cargo test --release --offline --config Cargo.toml --manifest-path perfbench/Cargo.toml

  # Those tests check the smoke-size goldens only. One full-size pass
  # per workload, at its default seed and at held-out seed 7, checks
  # the full-size goldens: `perf` fails on any modelled-output drift.
  echo "== perfbench full-size goldens (every workload, default seed and seed 7) =="
  for w in gapped-compute gapped-exits redis-sriov fleet-overload; do
    for seed in "" 7; do
      if ! out="$(bash perfbench/run.sh --workload "$w" ${seed:+--seed "$seed"} \
        --seconds 1 --trace 0)"; then
        echo "$out" >&2
        echo "perfbench $w (seed ${seed:-default}): outputs moved from perfbench/golden/" >&2
        exit 1
      fi
    done
  done
fi

if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
  echo "== cargo clippy (deny warnings) =="
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "== clippy not installed; skipping =="
fi

if cargo fmt --version >/dev/null 2>&1; then
  echo "== cargo fmt --check =="
  cargo fmt --all --check
else
  echo "== rustfmt not installed; skipping =="
fi

if [[ $fast -eq 0 ]]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  echo "== bench goldens (every bin's --quick --json, table4's time series, full fig6; byte for byte) =="
  write_goldens "$tmp/golden"
  if ! diff -rq tests/golden "$tmp/golden"; then
    echo "bench output moved from tests/golden/; see README.md \"Golden outputs\"" >&2
    exit 1
  fi

  # The goldens pin the --json reports; these two smokes cover the
  # --trace-out, --timeseries and --attrib exports they do not.
  echo "== telemetry export smoke (same-seed runs must be byte-identical) =="
  for run in a b; do
    ./target/release/table3 \
      --json "$tmp/$run.json" \
      --trace-out "$tmp/$run.trace.json" \
      --timeseries "$tmp/$run.csv" >/dev/null
  done
  cmp "$tmp/a.json" "$tmp/b.json"
  cmp "$tmp/a.trace.json" "$tmp/b.trace.json"
  cmp "$tmp/a.csv" "$tmp/b.csv"
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys
for p in sys.argv[1:]:
    json.load(open(p))' "$tmp/a.json" "$tmp/a.trace.json"
  fi

  echo "== io_fastpath smoke (I/O-plane runs must be byte-identical) =="
  for run in ia ib; do
    ./target/release/io_fastpath --quick --json "$tmp/$run.json" \
      --attrib --trace-out "$tmp/$run.trace.json" >/dev/null
  done
  cmp "$tmp/ia.json" "$tmp/ib.json"
  cmp "$tmp/ia.trace.json" "$tmp/ib.trace.json"

  echo "== causal trace smoke (parseable, balanced spans, matched flows) =="
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmp/ia.trace.json" <<'PY'
import collections, json, sys

doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
phases = collections.Counter(e["ph"] for e in events)
# Spans export as complete "X" events: every begin carries its end, so
# stray "B"/"E" pairs mean an open span leaked into the export.
assert phases.get("B", 0) == phases.get("E", 0) == 0, phases
assert phases.get("X", 0) > 0, phases
# Flow arrows come in (s, f) pairs sharing one id.
starts = collections.Counter(e["id"] for e in events if e["ph"] == "s")
finishes = collections.Counter(e["id"] for e in events if e["ph"] == "f")
assert starts and starts == finishes, (starts, finishes)
assert all(c == 1 for c in starts.values()), starts
# At least one request must stitch across >= 3 execution contexts.
lanes = collections.defaultdict(set)
for e in events:
    if e["ph"] == "X" and "args" in e and "trace" in e["args"]:
        lanes[e["args"]["trace"]].add((e["pid"], e["tid"]))
best = max((len(v) for v in lanes.values()), default=0)
assert best >= 3, f"best request spans {best} contexts"
print(f"trace OK: {phases['X']} spans, {sum(starts.values())} flows, "
      f"best request crosses {best} contexts")
PY
  else
    echo "python3 not installed; skipping trace validation"
  fi

  echo "== cargo doc (deny warnings; vendored stand-ins excluded) =="
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet \
    --exclude rand --exclude proptest --exclude serde
fi

echo "== all checks passed =="
