#!/usr/bin/env bash
# Offline CI legs: formatting, lints, the full test suite, the
# determinism check against results/DIGESTS and the stats-regression
# gate, with per-step elapsed time; fails if any step leaves the working
# tree different from how it found it. The GitHub workflow
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

# No step may change the working tree: a step that rewrites a committed
# file (a floor record, a golden) fails the run at the end.
tree_before="$(git status --porcelain)"

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
# Broken or private intra-doc links fail the build of the API docs.
step "cargo doc -D warnings" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
step "criterion benches compile" \
  cargo build -p aep-bench --features criterion-benches --benches
# perfbench/ is its own workspace with a committed Cargo.lock that may
# only change together with the benchmark: --locked fails the step when
# a new dependency edge would rewrite it.
step "perfbench builds" \
  cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
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

tree_after="$(git status --porcelain)"
if [ "$tree_after" != "$tree_before" ]; then
  echo "==> ci: FAILED: the steps changed the working tree (git status --porcelain):" >&2
  diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
  exit 1
fi

echo "==> ci: all green; per-step timing:"
for t in "${timings[@]}"; do
  echo "    $t"
done
