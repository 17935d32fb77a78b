#!/usr/bin/env bash
# Builds the Release tree, runs each micro benchmark five times in JSON
# mode, and distills the paper-scale before/after pairs into
# BENCH_perf.json at the repo root (machine-readable speedups for the
# vectorized numeric core), with the host class: core count, build type
# and CCDB_NATIVE_ARCH.
#
# A shared host slows single runs down by different amounts, so one run
# per benchmark makes a ratio that moves between recordings. Here the
# repetitions of all benchmarks are interleaved in random order, each
# benchmark is recorded by its minimum over the repetitions (its least
# disturbed run) with the spread of the rest, and each pair's speedup is
# the ratio of the two minima. The load average before and after the run
# is recorded beside them.
# Usage: scripts/run_bench.sh [benchmark filter regex]
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-}"
REPS=5

if cmake --preset default >/dev/null 2>&1; then
  cmake --build --preset default -j "$(nproc)" --target micro_benchmarks
else
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$(nproc)" --target micro_benchmarks
fi

RAW="build/bench_raw.json"
ARGS=(--benchmark_format=json --benchmark_out="${RAW}"
      --benchmark_min_time=0.2 --benchmark_repetitions="${REPS}"
      --benchmark_enable_random_interleaving=true)
if [[ -n "${FILTER}" ]]; then
  ARGS+=(--benchmark_filter="${FILTER}")
fi
LOAD_BEFORE="$(cat /proc/loadavg 2>/dev/null || true)"
build/bench/micro_benchmarks "${ARGS[@]}"
LOAD_AFTER="$(cat /proc/loadavg 2>/dev/null || true)"

# Host class of the numbers: cores, and the build's type and ISA flag.
NPROC="$(nproc)"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
NATIVE_ARCH="$(sed -n 's/^CCDB_NATIVE_ARCH:[A-Z]*=//p' build/CMakeCache.txt)"

python3 - "${RAW}" BENCH_perf.json "${NPROC}" "${BUILD_TYPE}" "${NATIVE_ARCH}" \
  "${REPS}" "${LOAD_BEFORE}" "${LOAD_AFTER}" <<'EOF'
import json
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
host = {"nproc": int(sys.argv[3]), "build_type": sys.argv[4],
        "ccdb_native_arch": sys.argv[5]}
reps = int(sys.argv[6])


def load_average(text):
    """The 1, 5 and 15 minute load averages of a /proc/loadavg line."""
    fields = text.split()
    return [float(f) for f in fields[:3]] if len(fields) >= 3 else None


with open(raw_path) as f:
    raw = json.load(f)

# Each repetition is one "iteration" entry; the aggregates (mean, median,
# stddev, cv) are recomputed below from the repetitions themselves.
runs = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    runs.setdefault(b["run_name"], []).append(b)

times = {}
for name, reps_of in runs.items():
    real = sorted(r["real_time"] for r in reps_of)
    fastest = min(reps_of, key=lambda r: r["real_time"])
    times[name] = {
        "repetitions": len(real),
        "min_real_time_ns": real[0],
        "median_real_time_ns": real[len(real) // 2],
        "max_real_time_ns": real[-1],
        # (max - min) / min over the repetitions.
        "spread": round((real[-1] - real[0]) / real[0], 4) if real[0] else None,
        "cpu_time_ns": fastest["cpu_time"],
        "iterations": fastest["iterations"],
        "items_per_second": fastest.get("items_per_second"),
    }

# before/after pairs: the first benchmark re-implements the replaced
# algorithm (the seed's scalar loops, the one-row quad sweep, the SGD
# pass without look-ahead, or labels from exact decision values), its
# partner runs the shipped path.
PAIRS = {
    "dot_rows": ("BM_DotRowsScalar", "BM_DotRowsBatched"),
    "dot_quad_sweep": ("BM_DotQuadSweepOneRow", "BM_DotQuadSweep"),
    "sgd_epoch_shuffled": ("BM_SgdEpochShuffledPlain", "BM_SgdEpochShuffled"),
    "rbf_kernel_row": ("BM_RbfKernelRowScalar", "BM_RbfKernelRowNormTrick"),
    "rbf_predict_all": ("BM_RbfPredictAllScalar", "BM_RbfPredictAllBatched"),
    "knn_query": ("BM_KnnQueryScalar", "BM_KnnQueryBlocked"),
    "knn_coherence": ("BM_KnnCoherenceScalar", "BM_KnnCoherenceParallel"),
    "extract_labels_d32": ("BM_ExtractLabelsExact/d:32",
                           "BM_ExtractLabels/d:32"),
    "extract_labels_d100": ("BM_ExtractLabelsExact/d:100",
                            "BM_ExtractLabels/d:100"),
}

speedups = {}
for key, (before, after) in PAIRS.items():
    if before not in times or after not in times:
        continue
    b, a = times[before], times[after]
    speedups[key] = {
        "before_benchmark": before,
        "after_benchmark": after,
        "before_min_ns": b["min_real_time_ns"],
        "after_min_ns": a["min_real_time_ns"],
        "before_spread": b["spread"],
        "after_spread": a["spread"],
        "speedup": (round(b["min_real_time_ns"] / a["min_real_time_ns"], 3)
                    if a["min_real_time_ns"] > 0 else None),
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
        "extract_labels": {"items": 10562, "gold": 1000, "flip_pct": 10,
                           "cost": 10, "dims": [32, 100],
                           "slice_rows": 256},
        "repetitions": reps,
        "statistic": "minimum over interleaved repetitions",
        "load_average": {"before": load_average(sys.argv[7]),
                         "after": load_average(sys.argv[8])},
        "host": host,
        "context": raw.get("context", {}),
    },
    "speedups": speedups,
    "benchmarks": times,
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print(f"wrote {out_path} ({reps} repetitions per benchmark)")
for key, s in speedups.items():
    print(f"  {key}: {s['speedup']}x ({s['before_min_ns']:.0f} ns -> "
          f"{s['after_min_ns']:.0f} ns; spread {s['before_spread']:.1%} / "
          f"{s['after_spread']:.1%})")
EOF
