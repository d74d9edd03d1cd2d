#!/usr/bin/env bash
# CI gate for the spatial multi-bit strike models: one smoke-scale
# campaign per model, then assert the SDC orderings the fault physics
# demands (same seed, so these are exact, not statistical):
#
#   single        every scheme ends with SDC = 0 — SECDED corrects the
#                 flip and parity at least detects it (burst ≥ single).
#   burst:2       parity-only SDC > 0: an even number of flips in one
#                 word is invisible to a single parity bit.
#   col:4 il=1    parity-only SDC > 0 (4-bit column cluster lands in
#                 one physical word).
#   col:4 il=4    total SDC = 0: degree-4 interleaving splits the
#                 cluster into 4 words × 1 bit each, back inside every
#                 code's correction budget (interleaved ≤ flat).
#   accum:scrub   org (SECDED, no cleaning) SDC > 0 via *miscorrection*:
#                 three latent flips alias a valid syndrome and the
#                 decoder "corrects" a fourth bit. il=4 → SDC 0.
#
# Finishes with the campaign-throughput floor check vs BENCH_faults.json,
# then its negative leg: the same check against a temp copy of the
# floor file with its record ×10 must exit 1 with a throughput
# regression.
#
# Usage: scripts/faults_models.sh [scale] [jobs]
#          scale  paper|quick|smoke   (default: smoke)
#          jobs   worker count        (default: 4)

set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-smoke}"
jobs="${2:-4}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p aep-bench --bin exp

run_model() { # slug interleave outfile
  local slug="$1" il="$2" out="$3"
  ./target/release/exp faults --model "$slug" --interleave "$il" \
    --scale "$scale" --jobs "$jobs" --no-cache --csv \
    > "$out" 2> /dev/null
}

sdc_of() { # csvfile scheme -> integer SDC count
  awk -F, -v s="$2" '$1 == s { printf "%d", $6 }' "$1"
}

sdc_total() { # csvfile -> integer SDC summed over all schemes
  awk -F, 'NR > 1 { t += $6 } END { printf "%d", t }' "$1"
}

echo "==> campaigns: single, burst:2, col:4 (il 1 and 4), accum:scrub ($scale)"
run_model single      1 "$tmp/single.csv"
run_model burst:2     1 "$tmp/burst2.csv"
run_model col:4       1 "$tmp/col4_il1.csv"
run_model col:4       4 "$tmp/col4_il4.csv"
run_model accum:scrub 1 "$tmp/accum_il1.csv"
run_model accum:scrub 4 "$tmp/accum_il4.csv"

fail=0
expect() { # description condition...
  local desc="$1"; shift
  if [ "$@" ]; then
    echo "    ok: $desc"
  else
    echo "    FAILED: $desc" >&2
    fail=1
  fi
}

echo "==> SDC ordering checks"
expect "single-bit strikes never silently corrupt (total SDC = 0)" \
  "$(sdc_total "$tmp/single.csv")" -eq 0
expect "burst:2 defeats parity-only (SDC > 0, so burst >= single)" \
  "$(sdc_of "$tmp/burst2.csv" parity-only)" -gt 0
expect "col:4 flat layout defeats parity-only (SDC > 0)" \
  "$(sdc_of "$tmp/col4_il1.csv" parity-only)" -gt 0
expect "col:4 under degree-4 interleave is fully suppressed (total SDC = 0)" \
  "$(sdc_total "$tmp/col4_il4.csv")" -eq 0
expect "accum:scrub miscorrects SECDED (org SDC > 0)" \
  "$(sdc_of "$tmp/accum_il1.csv" org)" -gt 0
expect "accum:scrub under degree-4 interleave is fully suppressed (total SDC = 0)" \
  "$(sdc_total "$tmp/accum_il4.csv")" -eq 0

if [ "$fail" -ne 0 ]; then
  echo "==> faults-models gate FAILED" >&2
  for f in "$tmp"/*.csv; do
    echo "--- $f" >&2
    cat "$f" >&2
  done
  exit 1
fi
echo "==> faults-models gate: all SDC orderings hold"

# The report goes to the temp dir: the committed BENCH_faults.json is
# the floor, not this run's record.
echo "==> campaign-throughput floor check (BENCH_faults.json)"
./target/release/exp faults-bench --scale "$scale" --trials 20000 \
  --jobs "$jobs" --out "$tmp" --check-floor BENCH_faults.json

echo "==> negative leg: the floor record x10 must FAIL the floor check"
awk -F': ' '/"min_trials_per_mcycle"/ { printf "%s: %.4f\n", $1, $2 * 10; next } { print }' \
  BENCH_faults.json > "$tmp/inflated.json"
status=0
./target/release/exp faults-bench --scale "$scale" --trials 2000 \
  --jobs "$jobs" --out "$tmp/negative" --check-floor "$tmp/inflated.json" \
  > "$tmp/negative.log" 2>&1 || status=$?
if [ "$status" -ne 1 ] || ! grep -q "campaign throughput regression" "$tmp/negative.log"; then
  echo "    FAILED: an inflated floor exited $status without a throughput regression" >&2
  cat "$tmp/negative.log" >&2
  exit 1
fi
echo "==> negative leg: the inflated floor failed the check, as it must"
