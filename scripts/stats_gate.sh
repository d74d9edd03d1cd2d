#!/usr/bin/env bash
# Stats-regression gate: every scheme's smoke-scale StatsSnapshot must
# match the golden snapshots checked in under results/golden/ (counters
# exactly, derived rates within ±2 %).
#
# After the real gate passes, two self-checks each perturb a counter in a
# copy of the goldens — one from the CPU, one from the protection scheme —
# and assert the gate *fails* against it, so a broken comparator can never
# report green.
#
# Intentional stat changes are regenerated with ONE command:
#
#     ./target/release/exp gate --regen      # then commit results/golden/
#
# Usage: scripts/stats_gate.sh [scale]
#          scale  paper|quick|smoke   (default: smoke, the checked-in set)

set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-smoke}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p aep-bench --bin exp

echo "==> exp gate --scale $scale"
./target/release/exp gate --scale "$scale"

# self_check FILE KEY: sets counter KEY to 999999999 in a copy of the
# goldens' FILE and requires the gate to fail with a counter mismatch.
self_check() {
  local file="$1" key="$2"
  echo "==> self-check: a golden with $key perturbed in $file must FAIL the gate"
  rm -rf "$tmp/golden"
  cp -r results/golden "$tmp/golden"
  sed -i "s/\(\"$key\": { \"kind\": \"counter\", \"value\": \)\([0-9]*\)/\1999999999/" \
    "$tmp/golden/$file"
  if cmp -s "results/golden/$file" "$tmp/golden/$file"; then
    echo "==> stats gate self-check FAILED: $key not found in $file" >&2
    exit 1
  fi
  if ./target/release/exp gate --scale "$scale" --golden "$tmp/golden" > "$tmp/out.txt" 2>&1; then
    echo "==> stats gate self-check FAILED: perturbed golden passed" >&2
    cat "$tmp/out.txt" >&2
    exit 1
  fi
  grep -q "counter mismatch" "$tmp/out.txt" || {
    echo "==> stats gate self-check FAILED: no counter-mismatch finding" >&2
    cat "$tmp/out.txt" >&2
    exit 1
  }
}

# The committed-instruction counter of the first golden: an
# architectural count, so the gate must flag it as a hard failure.
self_check "$(basename "$(ls results/golden/${scale}_*.snap.json | head -n 1)")" \
  cpu.pipeline.committed
# A scheme-layer counter: the shared ECC array's forced evictions.
self_check "${scale}_gap_proposed_1048576.snap.json" scheme.ecc_array.entries_evicted

echo "==> stats gate: all schemes match golden snapshots ($scale)"
