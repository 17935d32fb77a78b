#include "svm/kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
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

/// The terms of f(x) = Σ_s coefficients[s]·K(sv_s, x) − rho, as
/// EvalKernelExpansion takes them.
struct Expansion {
  const KernelConfig& config;
  const Matrix& support_vectors;
  std::span<const double> sv_sq_norms;
  std::span<const double> coefficients;
  double rho;
};

/// Exact values f(points_i) for the items of one block, with the block's
/// scratch. Four items at a time share each support-vector row load (one
/// DotBatchQuad sweep), then FoldQuadGroup finishes and folds their dots
/// in one pass; one item at a time is one EvalKernelBatch row, then Dot.
/// The quad lanes reproduce the single item's summation order exactly, so
/// a value has the same bits either way.
class ExactValues {
 public:
  ExactValues(const Expansion& f, const Matrix& points)
      : f_(f),
        points_(points),
        interleaved_(4 * points.cols()),
        quad_dots_(4 * f.support_vectors.rows()),
        kernel_row_(f.support_vectors.rows()) {}

  /// out4[g] = f(points_{items[g]}).
  void Quad(const std::size_t (&items)[4], std::span<double> out4) {
    const Matrix& svs = f_.support_vectors;
    InterleaveQuad(points_.Row(items[0]), points_.Row(items[1]),
                   points_.Row(items[2]), points_.Row(items[3]),
                   interleaved_);
    DotBatchQuad(svs.Data(), svs.rows(), svs.cols(), interleaved_,
                 quad_dots_);
    double x_sq_norms[4];
    for (std::size_t g = 0; g < 4; ++g) {
      x_sq_norms[g] = SquaredNorm(points_.Row(items[g]));
    }
    FoldQuadGroup(f_.config.gamma, quad_dots_, f_.sv_sq_norms, x_sq_norms,
                  f_.coefficients, f_.rho, out4);
  }

  /// f(points_i).
  double One(std::size_t i) {
    const Matrix& svs = f_.support_vectors;
    const auto x = points_.Row(i);
    EvalKernelBatch(f_.config, svs.Data(), svs.rows(), svs.cols(),
                    f_.sv_sq_norms, x, SquaredNorm(x), kernel_row_);
    return Dot(f_.coefficients, kernel_row_) - f_.rho;
  }

 private:
  Expansion f_;
  const Matrix& points_;
  std::vector<double> interleaved_;
  std::vector<double> quad_dots_;
  std::vector<double> kernel_row_;
};

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

/// Items per group of the sign sweep and of LabelPoints' float image: two
/// octets of 8-float (256-bit) lanes. It divides kExpansionBlockItems, so
/// a block holds whole groups.
constexpr std::size_t kGroupItems = 16;
static_assert(kExpansionBlockItems % kGroupItems == 0);

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

// Eight float item lanes as a GCC/Clang vector extension. Lanes never pass
// through a function boundary by value (only through memcpy), so the
// portable build (no AVX) compiles under -Werror=psabi.
typedef float Octet __attribute__((vector_size(32)));

/// Float dots of three support-vector rows of n values against one group
/// of sixteen items (group[c*16 + g] = x_g[c]): out[r*16 + g] = row_r · x_g
/// for the first `rows` of the three; a remainder of one or two rows
/// passes the first row again in the missing places. Twelve accumulator
/// chains, one per (row, octet, column slot), even columns in slot 0 and
/// odd ones in slot 1: a pair of columns loads four octets and broadcasts
/// six row values for twelve FMAs, five loads per six FMAs, where one
/// octet per pass loads four per three.
inline void DotGroupCore3(const float* r0, const float* r1, const float* r2,
                          const float* group, std::size_t n, float* out,
                          std::size_t rows) {
  Octet a00{}, a01{}, a10{}, a11{}, a20{}, a21{};  // a<row><octet>, even c
  Octet b00{}, b01{}, b10{}, b11{}, b20{}, b21{};  // b<row><octet>, odd c
  const auto load = [group](Octet& lanes, std::size_t at) {
    std::memcpy(&lanes, group + at, sizeof(lanes));
  };
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) {
    Octet x0{}, x1{}, y0{}, y1{};
    load(x0, c * kGroupItems);
    load(x1, c * kGroupItems + 8);
    load(y0, (c + 1) * kGroupItems);
    load(y1, (c + 1) * kGroupItems + 8);
    a00 += r0[c] * x0;
    a01 += r0[c] * x1;
    a10 += r1[c] * x0;
    a11 += r1[c] * x1;
    a20 += r2[c] * x0;
    a21 += r2[c] * x1;
    b00 += r0[c + 1] * y0;
    b01 += r0[c + 1] * y1;
    b10 += r1[c + 1] * y0;
    b11 += r1[c + 1] * y1;
    b20 += r2[c + 1] * y0;
    b21 += r2[c + 1] * y1;
  }
  if (c < n) {
    Octet x0{}, x1{};
    load(x0, c * kGroupItems);
    load(x1, c * kGroupItems + 8);
    a00 += r0[c] * x0;
    a01 += r0[c] * x1;
    a10 += r1[c] * x0;
    a11 += r1[c] * x1;
    a20 += r2[c] * x0;
    a21 += r2[c] * x1;
  }
  const Octet sums[6] = {a00 + b00, a01 + b01, a10 + b10,
                         a11 + b11, a20 + b20, a21 + b21};
  std::memcpy(out, sums, rows * 2 * sizeof(Octet));
}

/// out[s*16 + g] = sv_s · x_g in float for every support vector of the
/// filter against one group of sixteen items, three support vectors per
/// DotGroupCore3 pass.
void DotGroup(const SignFilter& filter, std::size_t dims, const float* group,
              std::span<float> out) {
  const std::size_t num_svs = filter.sv_sq_norms.size();
  for (std::size_t s = 0; s < num_svs; s += 3) {
    const float* row = filter.svs.data() + s * dims;
    const std::size_t left = std::min<std::size_t>(3, num_svs - s);
    DotGroupCore3(row, left > 1 ? row + dims : row,
                  left > 2 ? row + 2 * dims : row, group, dims,
                  out.data() + s * kGroupItems, left);
  }
}

/// One group of the sign sweep in a single pass over its dots: for each
/// support vector s, the sixteen float dots group_dots[s*16 + g] become
/// float kernel values (the norm trick in float, clamped at 0, and one
/// ExpNonPositiveOctet per octet), which are folded in double into
/// out16[g] = Σ_s coefficients[s]·K̃(sv_s, x_g) − rho.
void FoldGroup(const SignFilter& filter, std::span<const float> group_dots,
               const float (&x_sq_norms)[kGroupItems],
               std::span<const double> coefficients, double rho,
               double (&out16)[kGroupItems]) {
  double acc[kGroupItems] = {};
  for (std::size_t s = 0; s < coefficients.size(); ++s) {
    const float* dots = group_dots.data() + s * kGroupItems;
    float k[2][8];
    for (std::size_t h = 0; h < 2; ++h) {
      for (std::size_t g = 0; g < 8; ++g) {
        k[h][g] = filter.neg_gamma *
                  std::max(0.0f, (filter.sv_sq_norms[s] +
                                  x_sq_norms[8 * h + g]) -
                                     2.0f * dots[8 * h + g]);
      }
    }
    ExpNonPositiveOctet(k[0]);
    ExpNonPositiveOctet(k[1]);
    for (std::size_t h = 0; h < 2; ++h) {
      for (std::size_t g = 0; g < 8; ++g) {
        acc[8 * h + g] += coefficients[s] * static_cast<double>(k[h][g]);
      }
    }
  }
  for (std::size_t g = 0; g < kGroupItems; ++g) out16[g] = acc[g] - rho;
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

  // One block: items in groups of four, then the sub-four tail one by one.
  const Expansion f{config, support_vectors, sv_sq_norms, coefficients, rho};
  return SweepBlocks(points, num_svs, stop, [&](std::size_t lo,
                                                std::size_t hi) {
    ExactValues exact(f, points);
    std::size_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      exact.Quad({i, i + 1, i + 2, i + 3}, out.subspan(i, 4));
    }
    for (; i < hi; ++i) out[i] = exact.One(i);
  });
}

// LabelPoints stores its points in groups of sixteen, back to back: group
// k holds items 16k … 16k + 15 lane-interleaved, coords_[16k·cols + c·16 +
// g] = x_{16k+g}[c], so one column of a group is two octets of lanes. An
// item the filter skips (‖x‖² not finite or above 2^100) and the lanes
// past the last item are zeros; sq_norms_ holds every item's ‖x‖².
LabelPoints::LabelPoints(const Matrix& points)
    : rows_(points.rows()),
      cols_(points.cols()),
      coords_((rows_ + kGroupItems - 1) / kGroupItems * kGroupItems * cols_),
      sq_norms_(rows_) {
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto x = points.Row(i);
    sq_norms_[i] = SquaredNorm(x);
    if (!(sq_norms_[i] <= kFilterMaxSqNorm)) continue;
    float* lane = coords_.data() + (i - i % kGroupItems) * cols_ +
                  i % kGroupItems;
    for (std::size_t c = 0; c < cols_; ++c) {
      lane[c * kGroupItems] = static_cast<float>(x[c]);
    }
  }
}

bool EvalKernelExpansionLabels(const KernelConfig& config,
                               const Matrix& support_vectors,
                               std::span<const double> sv_sq_norms,
                               std::span<const double> coefficients,
                               double rho, const Matrix& points,
                               const LabelPoints& prepared,
                               const StopCondition& stop,
                               std::span<bool> out) {
  const std::size_t num_svs = support_vectors.rows();
  const std::size_t dims = support_vectors.cols();
  CCDB_CHECK_EQ(coefficients.size(), num_svs);
  CCDB_CHECK_EQ(sv_sq_norms.size(), num_svs);
  CCDB_CHECK_EQ(out.size(), points.rows());
  CCDB_CHECK_EQ(prepared.rows(), points.rows());
  CCDB_CHECK_EQ(prepared.cols(), points.cols());
  if (points.rows() > 0) CCDB_CHECK_EQ(points.cols(), dims);

  const Expansion f{config, support_vectors, sv_sq_norms, coefficients, rho};
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
  // One block: per group of sixteen prepared items, one DotGroup sweep and
  // one FoldGroup pass, after which every item whose |f̃| clears its bound
  // takes f̃'s sign; the block's other items then take exact values, four
  // at a time.
  const std::span<const float> coords = prepared.coords_;
  const std::span<const double> x_sq_norms = prepared.sq_norms_;
  return SweepBlocks(points, num_svs, stop, [&](std::size_t lo,
                                                std::size_t hi) {
    std::vector<float> group_dots(kGroupItems * num_svs);
    std::vector<std::size_t> undecided;
    for (std::size_t i = lo; i < hi; i += kGroupItems) {
      const std::size_t width = std::min(kGroupItems, hi - i);
      DotGroup(*filter, dims, coords.data() + i * dims, group_dots);
      float group_sq_norms[kGroupItems] = {};
      for (std::size_t g = 0; g < width; ++g) {
        if (x_sq_norms[i + g] <= kFilterMaxSqNorm) {
          group_sq_norms[g] = static_cast<float>(x_sq_norms[i + g]);
        }
      }
      double approx[kGroupItems];
      FoldGroup(*filter, group_dots, group_sq_norms, coefficients, rho,
                approx);
      for (std::size_t g = 0; g < width; ++g) {
        const double sq_norm = x_sq_norms[i + g];
        if (sq_norm <= kFilterMaxSqNorm &&
            std::abs(approx[g]) >
                filter->bound_base + filter->bound_slope * sq_norm) {
          out[i + g] = approx[g] > 0.0;
        } else {
          undecided.push_back(i + g);
        }
      }
    }
    if (undecided.empty()) return;
    ExactValues exact(f, points);
    std::size_t u = 0;
    for (; u + 4 <= undecided.size(); u += 4) {
      const std::size_t items[4] = {undecided[u], undecided[u + 1],
                                    undecided[u + 2], undecided[u + 3]};
      double values[4];
      exact.Quad(items, values);
      for (std::size_t g = 0; g < 4; ++g) out[items[g]] = values[g] >= 0.0;
    }
    for (; u < undecided.size(); ++u) {
      out[undecided[u]] = exact.One(undecided[u]) >= 0.0;
    }
  });
}

}  // namespace ccdb::svm
