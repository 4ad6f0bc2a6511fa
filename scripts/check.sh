#!/usr/bin/env bash
# The tier-1 gate, run exactly as CI/the roadmap defines it. Fully
# offline: every dependency is a path dependency (see vendor/), so no
# network access is needed or attempted.
#
#   scripts/check.sh          # build + tests + perfbench tests + clippy + fmt
#   scripts/check.sh --fast   # skip the release build and perfbench (debug tests only)
set -euo pipefail
cd "$(dirname "$0")/.."

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
  echo "== telemetry export smoke (same-seed runs must be byte-identical) =="
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
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

  echo "== fault_sweep smoke (same seed + same plan must be byte-identical) =="
  for run in fa fb; do
    ./target/release/fault_sweep --quick --json "$tmp/$run.json" >/dev/null
  done
  cmp "$tmp/fa.json" "$tmp/fb.json"

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

  echo "== ivc_pingpong smoke (channel + fault runs must be byte-identical) =="
  for run in va vb; do
    ./target/release/ivc_pingpong --quick --json "$tmp/$run.json" >/dev/null
  done
  cmp "$tmp/va.json" "$tmp/vb.json"

  echo "== churn smoke (elastic churn runs must be byte-identical) =="
  for run in ca cb; do
    ./target/release/churn --quick --json "$tmp/$run.json" >/dev/null
  done
  cmp "$tmp/ca.json" "$tmp/cb.json"

  echo "== migrate smoke (live-migration runs must be byte-identical) =="
  for run in ma mb; do
    ./target/release/migrate --quick --json "$tmp/$run.json" >/dev/null
  done
  cmp "$tmp/ma.json" "$tmp/mb.json"

  echo "== fleet smoke (serving-plane runs must be byte-identical) =="
  for run in fa fb; do
    ./target/release/fleet --quick --json "$tmp/$run.json" >/dev/null
  done
  cmp "$tmp/fa.json" "$tmp/fb.json"

  echo "== cargo doc (deny warnings; vendored stand-ins excluded) =="
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet \
    --exclude rand --exclude proptest --exclude serde
fi

echo "== all checks passed =="
