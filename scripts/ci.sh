#!/usr/bin/env bash
# Offline CI legs: formatting, lints, the full test suite, the
# determinism check against results/DIGESTS and the stats-regression
# gate, with per-step elapsed time. The GitHub workflow
# (.github/workflows/ci.yml) runs these same steps as parallel jobs;
# this script is the one-shot local equivalent.
#
# Everything runs with --offline semantics — the workspace has no
# registry dependencies (see the root Cargo.toml), so this script works
# on a machine with no network access at all.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

timings=()

step() {
  local label="$1"
  shift
  echo "==> $label"
  local start elapsed
  start=$(date +%s)
  "$@"
  elapsed=$(( $(date +%s) - start ))
  echo "==> $label: done in ${elapsed}s"
  timings+=("$(printf '%5ss  %s' "$elapsed" "$label")")
}

step "cargo fmt --check" cargo fmt --check
step "cargo clippy --workspace -- -D warnings" \
  cargo clippy --workspace --all-targets -- -D warnings
step "criterion benches compile" \
  cargo build -p aep-bench --features criterion-benches --benches
step "perfbench builds" \
  cargo build --release --offline --manifest-path perfbench/Cargo.toml
step "cargo test -q --workspace" cargo test -q --workspace
step "cargo test --release (mem, cpu, sim, workloads)" \
  cargo test --release -q -p aep-mem -p aep-cpu -p aep-sim -p aep-workloads
step "determinism (results/DIGESTS)" scripts/check_determinism.sh 4
step "stats gate (smoke)" scripts/stats_gate.sh smoke
step "differential check (smoke)" scripts/differential_check.sh smoke
step "workload diversity gate" \
  ./target/release/exp workloads report --check
step "faults models gate (smoke)" scripts/faults_models.sh smoke
step "serve smoke" scripts/serve_smoke.sh smoke

echo "==> ci: all green; per-step timing:"
for t in "${timings[@]}"; do
  echo "    $t"
done
