#!/usr/bin/env bash
# Builds the Release tree, runs the micro benchmarks in JSON mode, and
# distills the paper-scale before/after pairs into BENCH_perf.json at the
# repo root (machine-readable speedups for the vectorized numeric core),
# with the host class: core count, build type and CCDB_NATIVE_ARCH.
# Usage: scripts/run_bench.sh [benchmark filter regex]
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-}"

if cmake --preset default >/dev/null 2>&1; then
  cmake --build --preset default -j "$(nproc)" --target micro_benchmarks
else
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$(nproc)" --target micro_benchmarks
fi

RAW="build/bench_raw.json"
ARGS=(--benchmark_format=json --benchmark_out="${RAW}" --benchmark_min_time=0.2)
if [[ -n "${FILTER}" ]]; then
  ARGS+=(--benchmark_filter="${FILTER}")
fi
build/bench/micro_benchmarks "${ARGS[@]}"

# Host class of the numbers: cores, and the build's type and ISA flag.
NPROC="$(nproc)"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
NATIVE_ARCH="$(sed -n 's/^CCDB_NATIVE_ARCH:[A-Z]*=//p' build/CMakeCache.txt)"

python3 - "${RAW}" BENCH_perf.json "${NPROC}" "${BUILD_TYPE}" "${NATIVE_ARCH}" <<'EOF'
import json
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
host = {"nproc": int(sys.argv[3]), "build_type": sys.argv[4],
        "ccdb_native_arch": sys.argv[5]}
with open(raw_path) as f:
    raw = json.load(f)

times = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    times[b["name"]] = {
        "real_time_ns": b["real_time"],
        "cpu_time_ns": b["cpu_time"],
        "iterations": b["iterations"],
        "items_per_second": b.get("items_per_second"),
    }

# before/after pairs: the first benchmark re-implements the replaced
# algorithm (the seed's scalar loops, the one-row quad sweep, or the SGD
# pass without look-ahead), its partner runs the shipped path.
PAIRS = {
    "dot_rows": ("BM_DotRowsScalar", "BM_DotRowsBatched"),
    "dot_quad_sweep": ("BM_DotQuadSweepOneRow", "BM_DotQuadSweep"),
    "sgd_epoch_shuffled": ("BM_SgdEpochShuffledPlain", "BM_SgdEpochShuffled"),
    "rbf_kernel_row": ("BM_RbfKernelRowScalar", "BM_RbfKernelRowNormTrick"),
    "rbf_predict_all": ("BM_RbfPredictAllScalar", "BM_RbfPredictAllBatched"),
    "knn_query": ("BM_KnnQueryScalar", "BM_KnnQueryBlocked"),
    "knn_coherence": ("BM_KnnCoherenceScalar", "BM_KnnCoherenceParallel"),
}

speedups = {}
for key, (before, after) in PAIRS.items():
    if before not in times or after not in times:
        continue
    b, a = times[before]["real_time_ns"], times[after]["real_time_ns"]
    speedups[key] = {
        "before_benchmark": before,
        "after_benchmark": after,
        "before_ns": b,
        "after_ns": a,
        "speedup": round(b / a, 3) if a > 0 else None,
    }

result = {
    "generated_by": "scripts/run_bench.sh",
    "config": {
        "items": 10000,
        "dims": 40,
        "support_vectors": 400,
        "coherence_queries": 48,
        "knn_k": 10,
        "quad_sweep": {"rows": 746, "items": 10562, "dims": 32},
        "sgd_epoch_shuffled": {"items": 100000, "users": 15000,
                               "ratings": 590724, "dims": 32},
        "host": host,
        "context": raw.get("context", {}),
    },
    "speedups": speedups,
    "benchmarks": times,
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for key, s in speedups.items():
    print(f"  {key}: {s['speedup']}x ({s['before_ns']:.0f} ns -> {s['after_ns']:.0f} ns)")
EOF
