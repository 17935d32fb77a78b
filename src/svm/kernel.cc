#include "svm/kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/vec.h"

namespace ccdb::svm {
namespace {

/// Items per block of the batched expansion sweep: large enough that one
/// block amortizes a task dispatch, small enough that cancellation lands
/// within a few milliseconds of work.
constexpr std::size_t kExpansionBlockItems = 256;

/// Flop threshold (items × support vectors × dims) below which the
/// parallel fan-out costs more than it saves.
constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 20;

/// The RBF exponent −γ‖x − z‖² from a raw dot via the norm trick, with
/// the reassembled distance clamped at 0 against cancellation. Every
/// batched path goes through this one expression, so their kernel values
/// agree bit for bit.
inline double RbfExponent(double gamma, double row_sq_norm, double x_sq_norm,
                          double dot) {
  return -gamma * std::max(0.0, row_sq_norm + x_sq_norm - 2.0 * dot);
}

/// One quad group of the expansion sweep in a single pass over its dots:
/// for each support vector s, the four items' dots quad_dots[s*4 + g]
/// become kernel values (norm trick, ExpNonPositiveQuad), which are folded
/// into out4[g] = Σ_s coefficients[s]·K(sv_s, x_g) − rho at once. The fold
/// keeps Dot's order per item — accumulator s mod 4 over full strides,
/// then the tail, then ((acc0 + acc1) + (acc2 + acc3)) + tail — so each
/// out4[g] is bit-identical to the single-item path, EvalKernelBatch then
/// Dot.
void FoldQuadGroup(double gamma, std::span<const double> quad_dots,
                   std::span<const double> sv_sq_norms,
                   const double (&x_sq_norms)[4],
                   std::span<const double> coefficients, double rho,
                   std::span<double> out4) {
  const auto kernel = [&](std::size_t s, double (&k)[4]) {
    for (std::size_t g = 0; g < 4; ++g) {
      k[g] = RbfExponent(gamma, sv_sq_norms[s], x_sq_norms[g],
                         quad_dots[s * 4 + g]);
    }
    ExpNonPositiveQuad(k);
  };
  const std::size_t num_svs = coefficients.size();
  double acc[4][4] = {};  // acc[s mod 4][g]
  double tail[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t s = 0;
  for (; s + 4 <= num_svs; s += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      double k[4];
      kernel(s + j, k);
      for (std::size_t g = 0; g < 4; ++g) {
        acc[j][g] += coefficients[s + j] * k[g];
      }
    }
  }
  for (; s < num_svs; ++s) {
    double k[4];
    kernel(s, k);
    for (std::size_t g = 0; g < 4; ++g) tail[g] += coefficients[s] * k[g];
  }
  for (std::size_t g = 0; g < 4; ++g) {
    out4[g] = ((acc[0][g] + acc[1][g]) + (acc[2][g] + acc[3][g])) + tail[g] -
              rho;
  }
}

/// Turns one quad's dots quad[4·(j − j0) + g] = rows_lane[g] · rows_j into
/// kernel values in place, with EvalKernelBatch's expressions.
void FinishGramQuad(double gamma, std::span<const double> row_sq_norms,
                    const std::size_t (&lane)[4], std::size_t j0,
                    std::span<double> quad) {
  double lane_sq_norms[4];
  for (std::size_t g = 0; g < 4; ++g) lane_sq_norms[g] = row_sq_norms[lane[g]];
  for (std::size_t j = 0; 4 * j < quad.size(); ++j) {
    for (std::size_t g = 0; g < 4; ++g) {
      quad[4 * j + g] = RbfExponent(gamma, row_sq_norms[j0 + j],
                                    lane_sq_norms[g], quad[4 * j + g]);
    }
  }
  ExpNonPositiveInPlace(quad);
}

/// The single-item value f(x) = Σ_s coefficients[s]·K(sv_s, x) − rho:
/// one EvalKernelBatch row, then Dot. FoldQuadGroup reproduces it bit for
/// bit. `kernel_row` is scratch of one entry per support vector.
double RowValue(const KernelConfig& config, const Matrix& support_vectors,
                std::span<const double> sv_sq_norms,
                std::span<const double> coefficients, double rho,
                std::span<const double> x, std::span<double> kernel_row) {
  EvalKernelBatch(config, support_vectors.Data(), support_vectors.rows(),
                  support_vectors.cols(), sv_sq_norms, x, SquaredNorm(x),
                  kernel_row);
  return Dot(coefficients, kernel_row) - rho;
}

/// Runs run_block(lo, hi) over the kExpansionBlockItems-item blocks of the
/// points, on the shared pool when the sweep (items × support vectors ×
/// dims) crosses kParallelFlopThreshold. Probes `stop` before each block
/// and returns false when it fired. Block bounds do not depend on the
/// thread count, so serial and parallel sweeps write the same outputs.
template <typename RunBlock>
bool SweepBlocks(const Matrix& points, std::size_t num_svs,
                 const StopCondition& stop, const RunBlock& run_block) {
  const std::size_t num_items = points.rows();
  if (num_items == 0) return !stop.ShouldStop();
  std::atomic<bool> stopped{false};
  const auto block = [&](std::size_t b) {
    if (stopped.load(std::memory_order_relaxed) || stop.ShouldStop()) {
      stopped.store(true, std::memory_order_relaxed);
      return;
    }
    // Scratch is allocated per block; blocks are coarse enough that the
    // allocation is noise against the O(block·svs·dims) sweep.
    const std::size_t lo = b * kExpansionBlockItems;
    run_block(lo, std::min(num_items, lo + kExpansionBlockItems));
  };
  const std::size_t num_blocks =
      (num_items + kExpansionBlockItems - 1) / kExpansionBlockItems;
  const std::size_t flops =
      num_items * num_svs * std::max<std::size_t>(points.cols(), 1);
  ThreadPool& pool = SharedThreadPool();
  if (num_blocks > 1 && pool.num_threads() > 1 &&
      flops >= kParallelFlopThreshold) {
    pool.ParallelFor(0, num_blocks, block);
  } else {
    for (std::size_t b = 0; b < num_blocks; ++b) {
      block(b);
      if (stopped.load(std::memory_order_relaxed)) break;
    }
  }
  return !stopped.load(std::memory_order_relaxed);
}

// ------------------------------------------------------ the sign filter
//
// |f̃ − f| ≤ E(x) = A + B·‖x‖² with, over the support vectors s,
//   A = Σ |coef_s|·(γ·c_d·u·‖sv_s‖² + c_k·u),  B = γ·c_d·u·Σ |coef_s|,
// u = 2^-24 the float unit roundoff (DESIGN §9 derives it term by term).
// c_d = dims + 32 bounds the squared distance's float error (the dot's
// chain, the conversions, the norm trick's two sums; the double path's
// error is under 2^-15 of a unit there) in units of u·(‖x‖² + ‖sv‖²);
// c_k = 16 bounds in units of u the rest of one kernel value's error
// (ExpNonPositiveOctet's 4u, the exponent's product and γ's conversion
// 0.74u, the double path's exp and both double folds under 1u, underflow
// far below). The limits below keep every float conversion defined, every
// float sum finite, and the O(dims·u) second-order terms inside c_d.

constexpr double kFloatRoundoff = 0x1p-24;
constexpr double kKernelErrorRoundoffs = 16.0;   // c_k
constexpr double kDistanceErrorSlack = 32.0;     // c_d − dims
constexpr double kFilterMaxSqNorm = 0x1p100;
constexpr double kFilterMaxCoefSum = 0x1p1000;  // no double fold overflows
constexpr double kFilterMaxGamma = 0x1p64;
constexpr std::size_t kFilterMaxDims = 4096;
constexpr std::size_t kFilterMaxSvs = std::size_t{1} << 28;

/// What a call of the sign sweep computes once: the float copy of the
/// support vectors and of their squared norms, −γ in float, and the
/// bound's A (bound_base) and B (bound_slope).
struct SignFilter {
  std::vector<float> svs;
  std::vector<float> sv_sq_norms;
  float neg_gamma = 0.0f;
  double bound_base = 0.0;
  double bound_slope = 0.0;
};

/// The filter for a model, or nullopt when the model is outside the
/// bound's limits (see EvalKernelExpansionLabels).
std::optional<SignFilter> MakeSignFilter(
    const KernelConfig& config, const Matrix& support_vectors,
    std::span<const double> sv_sq_norms,
    std::span<const double> coefficients) {
  const std::size_t num_svs = support_vectors.rows();
  const std::size_t dims = support_vectors.cols();
  const double gamma = config.gamma;
  if (!(gamma >= 0.0 && gamma <= kFilterMaxGamma) || dims > kFilterMaxDims ||
      num_svs > kFilterMaxSvs) {
    return std::nullopt;
  }
  const double distance_term =
      gamma * (static_cast<double>(dims) + kDistanceErrorSlack) *
      kFloatRoundoff;
  double coef_sum = 0.0;
  double base = 0.0;
  for (std::size_t s = 0; s < num_svs; ++s) {
    if (!(sv_sq_norms[s] <= kFilterMaxSqNorm)) return std::nullopt;
    const double magnitude = std::abs(coefficients[s]);
    coef_sum += magnitude;
    base += magnitude * (distance_term * sv_sq_norms[s] +
                         kKernelErrorRoundoffs * kFloatRoundoff);
  }
  if (!(coef_sum <= kFilterMaxCoefSum) || !std::isfinite(base)) {
    return std::nullopt;
  }
  SignFilter filter;
  filter.svs.resize(num_svs * dims);
  std::transform(support_vectors.Data().begin(), support_vectors.Data().end(),
                 filter.svs.begin(),
                 [](double v) { return static_cast<float>(v); });
  filter.sv_sq_norms.resize(num_svs);
  std::transform(sv_sq_norms.begin(), sv_sq_norms.end(),
                 filter.sv_sq_norms.begin(),
                 [](double v) { return static_cast<float>(v); });
  filter.neg_gamma = static_cast<float>(-gamma);
  filter.bound_base = base;
  filter.bound_slope = distance_term * coef_sum;
  return filter;
}

/// One octet of the sign sweep in a single pass over its dots: for each
/// support vector s, the eight items' float dots octet_dots[s*8 + g]
/// become float kernel values (the norm trick in float, clamped at 0, and
/// ExpNonPositiveOctet), which are folded in double into
/// out8[g] = Σ_s coefficients[s]·K̃(sv_s, x_g) − rho.
void FoldOctet(float neg_gamma, std::span<const float> octet_dots,
               std::span<const float> sv_sq_norms,
               const float (&x_sq_norms)[8],
               std::span<const double> coefficients, double rho,
               double (&out8)[8]) {
  double acc[8] = {};
  for (std::size_t s = 0; s < coefficients.size(); ++s) {
    float k[8];
    for (std::size_t g = 0; g < 8; ++g) {
      k[g] = neg_gamma * std::max(0.0f, (sv_sq_norms[s] + x_sq_norms[g]) -
                                            2.0f * octet_dots[s * 8 + g]);
    }
    ExpNonPositiveOctet(k);
    for (std::size_t g = 0; g < 8; ++g) {
      acc[g] += coefficients[s] * static_cast<double>(k[g]);
    }
  }
  for (std::size_t g = 0; g < 8; ++g) out8[g] = acc[g] - rho;
}

}  // namespace

double EvalKernel(const KernelConfig& config, std::span<const double> x,
                  std::span<const double> z) {
  return std::exp(-config.gamma * SquaredDistance(x, z));
}

KernelConfig ResolveKernel(const KernelConfig& config, std::size_t dims) {
  KernelConfig resolved = config;
  if (resolved.gamma <= 0.0) {
    CCDB_CHECK_GT(dims, 0u);
    resolved.gamma = 1.0 / static_cast<double>(dims);
  }
  return resolved;
}

void EvalKernelBatch(const KernelConfig& config, std::span<const double> rows,
                     std::size_t num_rows, std::size_t cols,
                     std::span<const double> row_sq_norms,
                     std::span<const double> x, double x_sq_norm,
                     std::span<double> out) {
  CCDB_CHECK_EQ(out.size(), num_rows);
  CCDB_CHECK_EQ(row_sq_norms.size(), num_rows);
  DotBatch(rows, num_rows, cols, x, out);
  for (std::size_t r = 0; r < num_rows; ++r) {
    out[r] = RbfExponent(config.gamma, row_sq_norms[r], x_sq_norm, out[r]);
  }
  ExpNonPositiveInPlace(out);
}

void EvalKernelGram(const KernelConfig& config, std::span<const double> rows,
                    std::size_t num_rows, std::size_t cols,
                    std::span<const double> row_sq_norms,
                    std::span<const std::int8_t> signs,
                    std::span<double> out) {
  const std::size_t n = num_rows;
  CCDB_CHECK_EQ(rows.size(), n * cols);
  CCDB_CHECK_EQ(out.size(), n * n);
  CCDB_CHECK(signs.empty() || signs.size() == n);
  CCDB_CHECK_EQ(row_sq_norms.size(), n);
  constexpr std::size_t kTile = kGramTileRows;
  static_assert(kTile % 4 == 0);
  // The tile buffer keeps each quad's DotBatchQuad output where it lands:
  // quad q of the tile's rows holds tile[(q·kTile + j − j0)·4 + g] =
  // out_{i0+4q+g, j}. A quad that runs past the last row repeats that row
  // in its spare lanes, which are computed and never stored.
  std::vector<double> interleaved(4 * cols);
  std::vector<double> tile(kTile * kTile);
  const auto row = [&](std::size_t r) { return rows.subspan(r * cols, cols); };
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t height = std::min(n - i0, kTile);
    for (std::size_t j0 = i0; j0 < n; j0 += kTile) {
      const std::size_t width = std::min(n - j0, kTile);
      for (std::size_t q = 0; 4 * q < height; ++q) {
        std::size_t lane[4];
        for (std::size_t g = 0; g < 4; ++g) {
          lane[g] = i0 + std::min(4 * q + g, height - 1);
        }
        InterleaveQuad(row(lane[0]), row(lane[1]), row(lane[2]), row(lane[3]),
                       interleaved);
        const std::span<double> quad =
            std::span(tile).subspan(4 * q * kTile, 4 * width);
        DotBatchQuad(rows.subspan(j0 * cols, width * cols), width, cols,
                     interleaved, quad);
        FinishGramQuad(config.gamma, row_sq_norms, lane, j0, quad);
        if (signs.empty()) continue;
        double lane_sign[4];
        for (std::size_t g = 0; g < 4; ++g) {
          lane_sign[g] = static_cast<double>(signs[lane[g]]);
        }
        for (std::size_t j = 0; j < width; ++j) {
          const double sign_j = static_cast<double>(signs[j0 + j]);
          for (std::size_t g = 0; g < 4; ++g) {
            quad[4 * j + g] = lane_sign[g] * sign_j * quad[4 * j + g];
          }
        }
      }
      // The mirror, out_ji, takes each quad's four lanes as they lie; the
      // tile itself, out_ij, reads them at a stride of 4. A tile on the
      // diagonal holds both triangles, so the first store covers it.
      for (std::size_t j = 0; j < width; ++j) {
        double* to = out.data() + (j0 + j) * n + i0;
        for (std::size_t i = 0; i < height; i += 4) {
          std::copy_n(tile.begin() + i * kTile + 4 * j,
                      std::min<std::size_t>(4, height - i), to + i);
        }
      }
      if (j0 == i0) continue;
      for (std::size_t i = 0; i < height; ++i) {
        const double* from = tile.data() + (i / 4) * 4 * kTile + i % 4;
        double* to = out.data() + (i0 + i) * n + j0;
        for (std::size_t j = 0; j < width; ++j) to[j] = from[4 * j];
      }
    }
  }
}

bool EvalKernelExpansion(const KernelConfig& config,
                         const Matrix& support_vectors,
                         std::span<const double> sv_sq_norms,
                         std::span<const double> coefficients, double rho,
                         const Matrix& points, const StopCondition& stop,
                         std::span<double> out) {
  const std::size_t num_svs = support_vectors.rows();
  const std::size_t dims = support_vectors.cols();
  CCDB_CHECK_EQ(coefficients.size(), num_svs);
  CCDB_CHECK_EQ(sv_sq_norms.size(), num_svs);
  CCDB_CHECK_EQ(out.size(), points.rows());
  if (points.rows() > 0) CCDB_CHECK_EQ(points.cols(), dims);

  const auto sv_data = support_vectors.Data();
  // One block: items in groups of four share each support-vector row load
  // (one DotBatchQuad sweep per group), then FoldQuadGroup finishes and
  // folds the group's dots in one pass. The sub-four tail falls back to
  // the single-item value — same bits, the quad lanes reproduce the
  // scalar summation order exactly.
  return SweepBlocks(points, num_svs, stop, [&](std::size_t lo,
                                                std::size_t hi) {
    std::vector<double> interleaved(4 * dims);
    std::vector<double> quad_dots(4 * num_svs);
    std::vector<double> kernel_row(num_svs);
    std::size_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      InterleaveQuad(points.Row(i), points.Row(i + 1), points.Row(i + 2),
                     points.Row(i + 3), interleaved);
      DotBatchQuad(sv_data, num_svs, dims, interleaved, quad_dots);
      double x_sq_norms[4];
      for (std::size_t g = 0; g < 4; ++g) {
        x_sq_norms[g] = SquaredNorm(points.Row(i + g));
      }
      FoldQuadGroup(config.gamma, quad_dots, sv_sq_norms, x_sq_norms,
                    coefficients, rho, out.subspan(i, 4));
    }
    for (; i < hi; ++i) {
      out[i] = RowValue(config, support_vectors, sv_sq_norms, coefficients,
                        rho, points.Row(i), kernel_row);
    }
  });
}

bool EvalKernelExpansionLabels(const KernelConfig& config,
                               const Matrix& support_vectors,
                               std::span<const double> sv_sq_norms,
                               std::span<const double> coefficients,
                               double rho, const Matrix& points,
                               const StopCondition& stop,
                               std::span<bool> out) {
  const std::size_t num_svs = support_vectors.rows();
  const std::size_t dims = support_vectors.cols();
  CCDB_CHECK_EQ(coefficients.size(), num_svs);
  CCDB_CHECK_EQ(sv_sq_norms.size(), num_svs);
  CCDB_CHECK_EQ(out.size(), points.rows());
  if (points.rows() > 0) CCDB_CHECK_EQ(points.cols(), dims);

  const std::optional<SignFilter> filter =
      MakeSignFilter(config, support_vectors, sv_sq_norms, coefficients);
  if (!filter.has_value()) {
    std::vector<double> values(points.rows());
    if (!EvalKernelExpansion(config, support_vectors, sv_sq_norms,
                             coefficients, rho, points, stop, values)) {
      return false;
    }
    for (std::size_t i = 0; i < values.size(); ++i) out[i] = values[i] >= 0.0;
    return true;
  }
  // One block: octets of items, each converted to float lane-interleaved
  // (an item the filter skips, and the lanes past a short last octet, are
  // zeros), one DotBatchOctet sweep and one FoldOctet pass; then every
  // item whose |f̃| clears its bound takes f̃'s sign, and the rest take
  // the exact single-item value.
  return SweepBlocks(points, num_svs, stop, [&](std::size_t lo,
                                                std::size_t hi) {
    std::vector<float> octet(8 * dims);
    std::vector<float> octet_dots(8 * num_svs);
    std::vector<double> kernel_row(num_svs);
    for (std::size_t i = lo; i < hi; i += 8) {
      const std::size_t width = std::min<std::size_t>(8, hi - i);
      double x_sq_norms[8] = {};
      float x_sq_norms_f[8] = {};
      bool filtered[8] = {};
      std::fill(octet.begin(), octet.end(), 0.0f);
      for (std::size_t g = 0; g < width; ++g) {
        const auto x = points.Row(i + g);
        x_sq_norms[g] = SquaredNorm(x);
        filtered[g] = x_sq_norms[g] <= kFilterMaxSqNorm;
        if (!filtered[g]) continue;
        x_sq_norms_f[g] = static_cast<float>(x_sq_norms[g]);
        for (std::size_t c = 0; c < dims; ++c) {
          octet[c * 8 + g] = static_cast<float>(x[c]);
        }
      }
      DotBatchOctet(filter->svs, num_svs, dims, octet, octet_dots);
      double approx[8];
      FoldOctet(filter->neg_gamma, octet_dots, filter->sv_sq_norms,
                x_sq_norms_f, coefficients, rho, approx);
      for (std::size_t g = 0; g < width; ++g) {
        const double bound =
            filter->bound_base + filter->bound_slope * x_sq_norms[g];
        out[i + g] = filtered[g] && std::abs(approx[g]) > bound
                         ? approx[g] > 0.0
                         : RowValue(config, support_vectors, sv_sq_norms,
                                    coefficients, rho, points.Row(i + g),
                                    kernel_row) >= 0.0;
      }
    }
  });
}

}  // namespace ccdb::svm
