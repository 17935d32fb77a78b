#!/usr/bin/env bash
# Same-outputs check: the 15 seeded table, figure and ablation benches and
# all five examples must print the same results on this checkout as on
# <base-ref>.
#
# Builds <base-ref> in a temporary git worktree, runs every bench on both
# trees under CCDB_SCALE=0.1 CCDB_NO_CACHE=1 (each side with its own
# TMPDIR and working directory), then every example: the SQL path through
# Database::Execute (examples/movie_query, and examples/crowd_shell reading
# the statements in scripts/crowd_shell_session.txt) and the library path
# (examples/quickstart, cross_domain and data_cleaning: ExtractAll,
# RunCrowdTask and the response-quality checker). Last comes the cached
# pass: table2_nearest_neighbors runs twice more in a fresh directory with
# the space cache on, so the first run builds and saves its perceptual
# space and the second loads it; the check fails unless the second run
# printed "[space] loaded cached". It masks the wall-clock fields and the
# cache path and diffs the two sides. The masked fields are:
#   - "[space] built in <t>s" (every bench);
#   - the path in "[space] loaded cached <path>" (the cached pass);
#   - the seconds columns of ablation_space, ablation_temporal and
#     ablation_tsvm, and ablation_tsvm's "Slowdown factor";
#   - ablation_durability's timing tables (mean ms, overhead) and its
#     journal path;
#   - crowd_shell's "(N rows, X ms)" time.
# Table padding follows the widest cell, which a masked time can change, so
# table lines are compared with their padding collapsed.
#
# Usage: scripts/check_same_outputs.sh <base-ref>
# Writes base.txt, head.txt (both masked) and diff.txt to $OUT_DIR (default
# same_outputs/); exits 1 on any difference. Takes about a minute per side
# on 4 cores once both trees are built.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REF="${1:?usage: scripts/check_same_outputs.sh <base-ref>}"
OUT_DIR="${OUT_DIR:-same_outputs}"
BENCHES=(
  table1_direct_crowdsourcing table2_nearest_neighbors table3_small_samples
  table4_error_detection table5_restaurants table6_boardgames
  figure3_accuracy_over_time figure4_accuracy_over_money
  ablation_aggregation ablation_durability ablation_faults ablation_hybrid
  ablation_space ablation_temporal ablation_tsvm
)
EXAMPLES=(movie_query crowd_shell quickstart cross_domain data_cleaning)
CACHED_BENCH=table2_nearest_neighbors
SHELL_SESSION="$(pwd)/scripts/crowd_shell_session.txt"

WORK="$(mktemp -d)"
cleanup() {
  git worktree remove --force "${WORK}/base" >/dev/null 2>&1 || true
  git worktree prune
  rm -rf "${WORK}"
}
trap cleanup EXIT

git worktree add --detach "${WORK}/base" "${BASE_REF}" >/dev/null

build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$2" -j "$(nproc)" --target "${BENCHES[@]}" "${EXAMPLES[@]}" \
    >/dev/null
}

run_benches() {  # <build dir> <side>
  local dir="${WORK}/run_$2"
  mkdir -p "${dir}/tmp"
  for bench in "${BENCHES[@]}"; do
    echo "=== ${bench}"
    (cd "${dir}" && TMPDIR="${dir}/tmp" CCDB_SCALE=0.1 CCDB_NO_CACHE=1 \
      "$1/bench/${bench}" 2>&1) || echo "=== ${bench} exited $?"
  done
  for example in "${EXAMPLES[@]}"; do
    local input=/dev/null
    [[ "${example}" == crowd_shell ]] && input="${SHELL_SESSION}"
    echo "=== ${example}"
    (cd "${dir}" && TMPDIR="${dir}/tmp" \
      "$1/examples/${example}" < "${input}" 2>&1) ||
      echo "=== ${example} exited $?"
  done
  local cached="${WORK}/cached_$2"
  mkdir -p "${cached}/tmp"
  for pass in save load; do
    echo "=== ${CACHED_BENCH} cache-${pass}"
    (cd "${cached}" && TMPDIR="${cached}/tmp" CCDB_SCALE=0.1 \
      "$1/bench/${CACHED_BENCH}" 2>&1) ||
      echo "=== ${CACHED_BENCH} cache-${pass} exited $?"
  done
}

mask() {
  python3 -c '
import re
import sys

bench = ""
for line in sys.stdin:
    if line.startswith("=== "):
        bench = line.split()[1]
    line = re.sub(r"\[space\] built in [0-9.]+s", "[space] built in <t>s", line)
    line = re.sub(r"\[space\] loaded cached \S+", "[space] loaded cached <path>",
                  line)
    if bench in ("ablation_space", "ablation_temporal"):
        line = re.sub(r"\| [0-9]+\.[0-9]+s ", "| <t>s ", line)
    elif bench == "ablation_tsvm":
        line = re.sub(r"\| [0-9]+\.[0-9]+ (m?s) ", r"| <t> \1 ", line)
        line = re.sub(r"Slowdown factor: [0-9]+x", "Slowdown factor: <x>x", line)
    elif bench == "ablation_durability":
        line = re.sub(r"\| [0-9]+\.[0-9]+ +\| (-|[-+]?[0-9]+\.[0-9]+%) ",
                      "| <ms> | <overhead> ", line)
        line = re.sub(r"recovery journal \S+:", "recovery journal <path>:", line)
    elif bench == "crowd_shell":
        line = re.sub(r"rows, [0-9]+\.[0-9]+ ms\)", "rows, <t> ms)", line)
    if line.startswith("|"):
        line = re.sub(r" +\|", " |", line)
    elif re.fullmatch(r"\+[-+]*\n?", line):
        line = re.sub(r"-+", "-", line)
    sys.stdout.write(line)
'
}

# The checkout gets its own build tree, so both sides share one
# configuration whatever build/ was configured with.
echo "building ${BASE_REF} and the checkout" >&2
build "${WORK}/base" "${WORK}/base/build"
build . build-same-outputs

mkdir -p "${OUT_DIR}"
echo "running the benches on ${BASE_REF}" >&2
run_benches "${WORK}/base/build" base | mask > "${OUT_DIR}/base.txt"
echo "running the benches on the checkout" >&2
run_benches "$(pwd)/build-same-outputs" head | mask > "${OUT_DIR}/head.txt"

for side in base head; do
  if ! sed -n "/^=== ${CACHED_BENCH} cache-load\$/,\$p" "${OUT_DIR}/${side}.txt" |
      grep -q '^\[space\] loaded cached'; then
    echo "${side}: the cached pass did not load its saved space" >&2
    exit 1
  fi
done

if diff -u "${OUT_DIR}/base.txt" "${OUT_DIR}/head.txt" > "${OUT_DIR}/diff.txt"; then
  echo "same outputs as ${BASE_REF} ($(wc -l < "${OUT_DIR}/head.txt") lines)"
else
  cat "${OUT_DIR}/diff.txt"
  echo "outputs differ from ${BASE_REF}; see ${OUT_DIR}/diff.txt" >&2
  exit 1
fi
