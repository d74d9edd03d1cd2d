#!/usr/bin/env bash
# Checks every deterministic output of `exp` against the committed
# manifest results/DIGESTS, one `<sha256>  <output>  <exp args...>` line
# each; <output> is `-` for stdout or a file written under --out.
#
# Each distinct command that takes --jobs runs at --jobs 1 and at
# --jobs N, and both must match the committed digest, so a change that
# moves a result the same way at every job count fails too; a command
# that does not take it runs once. Whether a command takes --jobs, and
# --out for its files, is read from `exp <command words> help`, where the
# command words are the leading arguments that do not start with --.
# `exp lanes ... --serial` must share its batched line's digest, and the
# copies kept under results/ must match theirs. `exp all --scale smoke` through a fresh run cache, cold
# then warm (evaluating nothing), must match the --no-cache line; the
# same comparison against a manifest with that digest flipped must fail.
#
# `--regen` rewrites DIGESTS from --jobs N runs, copies the kept outputs
# into results/ and runs `exp gate --regen`: one command regenerates
# every file under results/.
#
# Usage: scripts/check_determinism.sh [--regen] [jobs]
#          jobs  worker count for the parallel run (default: 4)

set -euo pipefail
cd "$(dirname "$0")/.."

regen=0
[[ "${1:-}" == --regen ]] && { regen=1; shift; }
jobs="${1:-4}"
manifest=results/DIGESTS
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p aep-bench --bin exp
exp="$PWD/target/release/exp"

digest() { sha256sum < "$1" | cut -d' ' -f1; }
fail() { echo "==> FAILED: $*" >&2; status=1; }

# kept OUTPUT ARGS: the copy of this output committed under results/.
kept() {
  case "$2" in
    "all --scale quick --no-cache") [[ "$1" == - ]] && echo results/all_quick.txt || echo "results/$1" ;;
    "explore grid --scale quick "*) echo "results/dse/challengers_quick_${1#grid_quick_}" ;;
  esac
}

# takes FLAG ARGS...: whether the command ARGS name declares FLAG.
takes() {
  local flag="$1" words=() help
  shift
  while (( $# )) && [[ "$1" != --* ]]; do words+=("$1"); shift; done
  help="$("$exp" "${words[@]}" help)"
  grep -qE -- "^  $flag( |\$)" <<< "$help"
}

# run DIR JOBS ARGS...: stdout to DIR/-, files under DIR (or ARGS' --out);
# JOBS is - for a command that does not take --jobs.
run() {
  local dir="$1" j="$2" jobs=() out=()
  shift 2
  mkdir -p "$dir"
  [[ "$j" == - ]] || jobs=(--jobs "$j")
  [[ " $* " == *" --out "* ]] || ! takes --out "$@" || out=(--out "$dir")
  "$exp" "$@" "${jobs[@]}" "${out[@]}" > "$dir/-" 2> "$dir/stderr" < /dev/null \
    || { cat "$dir/stderr" >&2; return 1; }
}

# verify MANIFEST DIR ARGS: each line of ARGS matches its output in DIR.
verify() {
  local sum out args status=0
  while read -r sum out args; do
    [[ "$sum" == \#* || "$args" != "$3" ]] && continue
    [[ -f "$2/$out" && "$(digest "$2/$out")" == "$sum" ]] || fail "$out of exp $args: digest differs"
  done < "$1"
  return "$status"
}

mapfile -t commands < <(grep -v '^#' "$manifest" | cut -d' ' -f5- | awk '!seen[$0]++')
(( regen )) && passes=("$jobs") || passes=(1 "$jobs")
status=0
declare -A dir sums
for i in "${!commands[@]}"; do
  read -ra argv <<< "${commands[$i]}"
  js=("${passes[@]}")
  takes --jobs "${argv[@]}" || js=(-)
  for j in "${js[@]}"; do
    echo "==> exp ${commands[$i]}$([[ "$j" == - ]] || echo " --jobs $j")"
    dir["${commands[$i]}"]="$tmp/$i.$j"
    run "$tmp/$i.$j" "$j" "${argv[@]}"
    (( regen )) || verify "$manifest" "$tmp/$i.$j" "${commands[$i]}" || status=1
  done
done

if (( regen )); then
  while IFS= read -r line; do
    read -r sum out args <<< "$line"
    [[ "$sum" == \#* ]] && { echo "$line"; continue; }
    echo "$(digest "${dir[$args]}/$out")  $out  $args"
    copy="$(kept "$out" "$args")"
    [[ -z "$copy" ]] || cp "${dir[$args]}/$out" "$copy"
  done < "$manifest" > "$tmp/DIGESTS"
  mv "$tmp/DIGESTS" "$manifest"
  "$exp" gate --regen
fi

while read -r sum out args; do
  sums["$out $args"]="$sum"
  copy="$(kept "$out" "$args")"
  [[ -z "$copy" || "$(digest "$copy")" == "$sum" ]] || fail "committed $copy differs from its line"
  [[ "$args" != *" --serial" || "${sums["- ${args% --serial}"]:-}" == "$sum" ]] \
    || fail "exp $args differs from its batched line"
done < <(grep -v '^#' "$manifest")

smoke="all --scale smoke --no-cache"
mkdir "$tmp/cached"
for pass in cold warm; do
  echo "==> exp all --scale smoke --jobs $jobs ($pass run cache)"
  (cd "$tmp/cached" && "$exp" all --scale smoke --jobs "$jobs") > "$tmp/cached/-" 2> "$tmp/$pass.err"
  verify "$manifest" "$tmp/cached" "$smoke" || status=1
done
batch="$(grep -m1 '^\[lab\] batch:' "$tmp/warm.err")"
[[ "$batch" == *", 0 evaluated" ]] || fail "the warm cache evaluated runs: $batch"

echo "==> negative leg: the smoke \`exp all\` digest flipped must FAIL the comparison"
sed "/  -  $smoke\$/{s/^0/1/;t;s/^./0/}" "$manifest" > "$tmp/flipped"
if cmp -s "$manifest" "$tmp/flipped" || verify "$tmp/flipped" "$tmp/cached" "$smoke"; then
  fail "negative leg: a flipped digest passed"
else
  echo "==> negative leg: the flipped digest failed, as it must"
fi

(( status )) && { echo "==> determinism FAILED (if the change is intended: $0 --regen)" >&2; exit 1; }
echo "==> determinism: every output matches $manifest at --jobs ${passes[*]}"
