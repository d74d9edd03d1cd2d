#!/usr/bin/env bash
# Verifies the parallel experiment engine is deterministic: `exp all`,
# the Monte Carlo fault campaign (`exp faults`), the observability
# snapshot (`exp run --stats-json`), the design-space explorer
# (`exp explore grid`), and the differential checker's fuzzing campaign
# (`exp check`) must all be byte-identical between --jobs 1 and --jobs N.
# A sixth leg checks the lane-parallel batch engine (`exp lanes`) against
# per-lane serial runs (`exp lanes --serial`) the same way. A seventh
# leg covers the workload-diversity generators: the coverage report
# (`exp workloads report`) must be byte-identical across job counts, and
# trace replay / Zipf streams must produce identical lane snapshots
# batched vs serial. An eighth leg re-checks the fault campaign under a
# spatial multi-bit strike model (`--model burst:2`), whose draws
# consume RNG the single-bit model never touches. A ninth leg runs the
# explorer over the related-work challenger scheme axes (silent-store
# ECC, reuse-predicted copy-back): their store-value modelling and
# predictor state must not perturb worker-count invariance. A tenth leg
# covers the extension tables planned through the lab (`exp seeds`,
# `exp sensitivity`), whose runs fan out across --jobs like the figures'.
# An eleventh leg runs the fault campaign over the challenger line-up
# (`exp faults --challengers --model burst:2`): the silent-store scheme
# keeps one forked machine per chunk while every other scheme runs its
# chunks as lanes over one shared machine per worker, so this one output
# covers both campaign drivers. A twelfth leg runs `exp all` twice with
# the run cache on, in a fresh working directory: the cold pass fills the
# cache, the warm pass must evaluate nothing, and both must print the
# --no-cache bytes, so a disk-tier answer is compared with a fresh one.
#
# Usage: scripts/check_determinism.sh [scale] [jobs]
#          scale  paper|quick|smoke   (default: smoke)
#          jobs   worker count for the parallel run (default: 4)

set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-smoke}"
jobs="${2:-4}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p aep-bench --bin exp

echo "==> exp all --scale $scale --jobs 1 --no-cache"
./target/release/exp all --scale "$scale" --jobs 1 --no-cache \
  > "$tmp/serial.txt" 2> /dev/null

echo "==> exp all --scale $scale --jobs $jobs --no-cache"
./target/release/exp all --scale "$scale" --jobs "$jobs" --no-cache \
  > "$tmp/parallel.txt" 2> /dev/null

if cmp -s "$tmp/serial.txt" "$tmp/parallel.txt"; then
  echo "==> determinism: byte-identical (--jobs 1 vs --jobs $jobs, $scale)"
else
  echo "==> determinism FAILED: outputs differ" >&2
  diff "$tmp/serial.txt" "$tmp/parallel.txt" | head -n 40 >&2
  exit 1
fi

exp="$PWD/target/release/exp"
mkdir "$tmp/cached"
for pass in cold warm; do
  echo "==> exp all --scale $scale --jobs $jobs ($pass run cache)"
  (cd "$tmp/cached" && "$exp" all --scale "$scale" --jobs "$jobs") \
    > "$tmp/cached_$pass.txt" 2> "$tmp/cached_$pass.err"
  if cmp -s "$tmp/serial.txt" "$tmp/cached_$pass.txt"; then
    echo "==> $pass-cache determinism: byte-identical to --no-cache ($scale)"
  else
    echo "==> $pass-cache determinism FAILED: outputs differ from --no-cache" >&2
    diff "$tmp/serial.txt" "$tmp/cached_$pass.txt" | head -n 40 >&2
    exit 1
  fi
done
batch="$(grep '^\[lab\] batch:' "$tmp/cached_warm.err" | head -n 1)"
if [[ "$batch" == *", 0 evaluated" ]]; then
  echo "==> warm cache simulated nothing: $batch"
else
  echo "==> warm cache FAILED: expected 0 evaluated, got '$batch'" >&2
  exit 1
fi

for table in seeds sensitivity; do
  echo "==> exp $table --scale $scale --jobs 1 vs --jobs $jobs --no-cache"
  ./target/release/exp "$table" --scale "$scale" --jobs 1 --no-cache \
    > "$tmp/${table}_serial.txt" 2> /dev/null
  ./target/release/exp "$table" --scale "$scale" --jobs "$jobs" --no-cache \
    > "$tmp/${table}_parallel.txt" 2> /dev/null
  if cmp -s "$tmp/${table}_serial.txt" "$tmp/${table}_parallel.txt"; then
    echo "==> $table determinism: byte-identical (--jobs 1 vs --jobs $jobs, $scale)"
  else
    echo "==> $table determinism FAILED: outputs differ" >&2
    diff "$tmp/${table}_serial.txt" "$tmp/${table}_parallel.txt" | head -n 40 >&2
    exit 1
  fi
done

echo "==> exp faults --scale $scale --jobs 1 --no-cache"
./target/release/exp faults --scale "$scale" --jobs 1 --no-cache \
  > "$tmp/faults_serial.txt" 2> /dev/null

echo "==> exp faults --scale $scale --jobs $jobs --no-cache"
./target/release/exp faults --scale "$scale" --jobs "$jobs" --no-cache \
  > "$tmp/faults_parallel.txt" 2> /dev/null

if cmp -s "$tmp/faults_serial.txt" "$tmp/faults_parallel.txt"; then
  echo "==> faults determinism: byte-identical (--jobs 1 vs --jobs $jobs, $scale)"
else
  echo "==> faults determinism FAILED: outputs differ" >&2
  diff "$tmp/faults_serial.txt" "$tmp/faults_parallel.txt" | head -n 40 >&2
  exit 1
fi

# Spatial models draw strike geometry from the chunk RNG; chunk
# determinism must hold for them exactly as for the single-bit model.
echo "==> exp faults --model burst:2 --scale $scale --jobs 1 --no-cache"
./target/release/exp faults --model burst:2 --scale "$scale" --jobs 1 --no-cache \
  > "$tmp/faults_burst_serial.txt" 2> /dev/null

echo "==> exp faults --model burst:2 --scale $scale --jobs $jobs --no-cache"
./target/release/exp faults --model burst:2 --scale "$scale" --jobs "$jobs" --no-cache \
  > "$tmp/faults_burst_parallel.txt" 2> /dev/null

if cmp -s "$tmp/faults_burst_serial.txt" "$tmp/faults_burst_parallel.txt"; then
  echo "==> faults burst:2 determinism: byte-identical (--jobs 1 vs --jobs $jobs, $scale)"
else
  echo "==> faults burst:2 determinism FAILED: outputs differ" >&2
  diff "$tmp/faults_burst_serial.txt" "$tmp/faults_burst_parallel.txt" | head -n 40 >&2
  exit 1
fi

# Both campaign drivers in one output: the silent-store scheme runs per
# chunk, the rest share one trajectory per contiguous group of chunks.
echo "==> exp faults --challengers --model burst:2 --scale $scale --jobs 1 --no-cache"
./target/release/exp faults --challengers --model burst:2 --scale "$scale" --jobs 1 --no-cache \
  > "$tmp/faults_chal_serial.txt" 2> /dev/null

echo "==> exp faults --challengers --model burst:2 --scale $scale --jobs $jobs --no-cache"
./target/release/exp faults --challengers --model burst:2 --scale "$scale" --jobs "$jobs" --no-cache \
  > "$tmp/faults_chal_parallel.txt" 2> /dev/null

if cmp -s "$tmp/faults_chal_serial.txt" "$tmp/faults_chal_parallel.txt"; then
  echo "==> faults challengers burst:2 determinism: byte-identical (--jobs 1 vs --jobs $jobs, $scale)"
else
  echo "==> faults challengers burst:2 determinism FAILED: outputs differ" >&2
  diff "$tmp/faults_chal_serial.txt" "$tmp/faults_chal_parallel.txt" | head -n 40 >&2
  exit 1
fi

echo "==> exp run --scale $scale --stats-json --jobs 1"
./target/release/exp run --scale "$scale" --stats-json --jobs 1 \
  > "$tmp/snap_serial.json" 2> /dev/null

echo "==> exp run --scale $scale --stats-json --jobs $jobs"
./target/release/exp run --scale "$scale" --stats-json --jobs "$jobs" \
  > "$tmp/snap_parallel.json" 2> /dev/null

if cmp -s "$tmp/snap_serial.json" "$tmp/snap_parallel.json"; then
  echo "==> snapshot determinism: byte-identical (--jobs 1 vs --jobs $jobs, $scale)"
else
  echo "==> snapshot determinism FAILED: snapshots differ" >&2
  diff "$tmp/snap_serial.json" "$tmp/snap_parallel.json" | head -n 40 >&2
  exit 1
fi

# The explorer's frontier reports must be a pure function of the design
# space — same bytes for any worker count. --no-cache keeps both runs
# honest (every point freshly simulated, nothing recalled).
axes='scheme=uniform,proposed;interval=256K,1M;bench=gzip,gap'

echo "==> exp explore grid --scale $scale --jobs 1 --no-cache"
./target/release/exp explore grid --scale "$scale" --axes "$axes" \
  --jobs 1 --no-cache --out "$tmp/dse_serial" > /dev/null 2> /dev/null

echo "==> exp explore grid --scale $scale --jobs $jobs --no-cache"
./target/release/exp explore grid --scale "$scale" --axes "$axes" \
  --jobs "$jobs" --no-cache --out "$tmp/dse_parallel" > /dev/null 2> /dev/null

if cmp -s "$tmp/dse_serial/grid_${scale}_frontier.json" \
          "$tmp/dse_parallel/grid_${scale}_frontier.json" \
   && cmp -s "$tmp/dse_serial/grid_${scale}.dse" \
             "$tmp/dse_parallel/grid_${scale}.dse"; then
  echo "==> explore determinism: byte-identical (--jobs 1 vs --jobs $jobs, $scale)"
else
  echo "==> explore determinism FAILED: frontier reports differ" >&2
  diff "$tmp/dse_serial/grid_${scale}_frontier.json" \
       "$tmp/dse_parallel/grid_${scale}_frontier.json" | head -n 40 >&2
  exit 1
fi

# The challenger schemes add state the incumbent axes never exercise —
# AddressStable store values for silent-store detection, per-line reuse
# predictors for early copy-back. Their frontier must be just as much a
# pure function of the space as the incumbents'.
chal_axes='scheme=silent,reuse:4;interval=1M;bench=gzip'

echo "==> exp explore grid (challengers) --scale $scale --jobs 1 --no-cache"
./target/release/exp explore grid --scale "$scale" --axes "$chal_axes" \
  --jobs 1 --no-cache --out "$tmp/chal_serial" > /dev/null 2> /dev/null

echo "==> exp explore grid (challengers) --scale $scale --jobs $jobs --no-cache"
./target/release/exp explore grid --scale "$scale" --axes "$chal_axes" \
  --jobs "$jobs" --no-cache --out "$tmp/chal_parallel" > /dev/null 2> /dev/null

if cmp -s "$tmp/chal_serial/grid_${scale}_frontier.json" \
          "$tmp/chal_parallel/grid_${scale}_frontier.json" \
   && cmp -s "$tmp/chal_serial/grid_${scale}.dse" \
             "$tmp/chal_parallel/grid_${scale}.dse"; then
  echo "==> challenger explore determinism: byte-identical (--jobs 1 vs --jobs $jobs, $scale)"
else
  echo "==> challenger explore determinism FAILED: frontier reports differ" >&2
  diff "$tmp/chal_serial/grid_${scale}_frontier.json" \
       "$tmp/chal_parallel/grid_${scale}_frontier.json" | head -n 40 >&2
  exit 1
fi

# The coverage-guided fuzzer batches genome generation so that mutation
# decisions depend only on batch-boundary snapshots, never on worker
# scheduling. Same seed, any --jobs → same genomes, same report.
echo "==> exp check --scale smoke --fuzz-iters 200 --seed 7 --jobs 1"
./target/release/exp check --scale smoke --fuzz-iters 200 --seed 7 \
  --jobs 1 --out "$tmp/check_serial" > "$tmp/check_serial.txt" 2> /dev/null

echo "==> exp check --scale smoke --fuzz-iters 200 --seed 7 --jobs $jobs"
./target/release/exp check --scale smoke --fuzz-iters 200 --seed 7 \
  --jobs "$jobs" --out "$tmp/check_parallel" > "$tmp/check_parallel.txt" 2> /dev/null

if cmp -s "$tmp/check_serial.txt" "$tmp/check_parallel.txt"; then
  echo "==> check determinism: byte-identical (--jobs 1 vs --jobs $jobs)"
else
  echo "==> check determinism FAILED: fuzz reports differ" >&2
  diff "$tmp/check_serial.txt" "$tmp/check_parallel.txt" | head -n 40 >&2
  exit 1
fi

# The lane-parallel batch engine steps N configurations in lockstep over
# one shared trajectory; its per-lane stats snapshots must be
# byte-identical to N independent serial runs.
echo "==> exp lanes --scale $scale"
./target/release/exp lanes --scale "$scale" \
  > "$tmp/lanes_batch.txt" 2> /dev/null

echo "==> exp lanes --scale $scale --serial"
./target/release/exp lanes --scale "$scale" --serial \
  > "$tmp/lanes_serial.txt" 2> /dev/null

if cmp -s "$tmp/lanes_batch.txt" "$tmp/lanes_serial.txt"; then
  echo "==> lanes determinism: byte-identical (batch vs serial, $scale)"
else
  echo "==> lanes determinism FAILED: lane stats differ from serial runs" >&2
  diff "$tmp/lanes_batch.txt" "$tmp/lanes_serial.txt" | head -n 40 >&2
  exit 1
fi

# The workload-diversity generators (Zipf, adversarial, trace replay)
# are chunk-deterministic: the coverage report is a pure function of
# (workload set, seed) at any --jobs, and their streams batch on shadow
# lanes without perturbing a single byte of the per-lane snapshots.
echo "==> exp workloads report --jobs 1 vs --jobs $jobs"
./target/release/exp workloads report --out - --jobs 1 \
  > "$tmp/workloads_serial.txt" 2> /dev/null
./target/release/exp workloads report --out - --jobs "$jobs" \
  > "$tmp/workloads_parallel.txt" 2> /dev/null

if cmp -s "$tmp/workloads_serial.txt" "$tmp/workloads_parallel.txt"; then
  echo "==> workloads determinism: byte-identical (--jobs 1 vs --jobs $jobs)"
else
  echo "==> workloads determinism FAILED: coverage reports differ" >&2
  diff "$tmp/workloads_serial.txt" "$tmp/workloads_parallel.txt" | head -n 40 >&2
  exit 1
fi

for bench in "zipf:k1024:e1200:c4" "trace:storm_burst"; do
  echo "==> exp lanes --scale $scale --bench $bench (batch vs serial)"
  ./target/release/exp lanes --scale "$scale" --bench "$bench" \
    > "$tmp/div_batch.txt" 2> /dev/null
  ./target/release/exp lanes --scale "$scale" --bench "$bench" --serial \
    > "$tmp/div_serial.txt" 2> /dev/null
  if cmp -s "$tmp/div_batch.txt" "$tmp/div_serial.txt"; then
    echo "==> $bench lanes determinism: byte-identical (batch vs serial)"
  else
    echo "==> $bench lanes determinism FAILED: snapshots differ" >&2
    diff "$tmp/div_batch.txt" "$tmp/div_serial.txt" | head -n 40 >&2
    exit 1
  fi
done
