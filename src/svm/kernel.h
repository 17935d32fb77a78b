#ifndef CCDB_SVM_KERNEL_H_
#define CCDB_SVM_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "common/matrix.h"

namespace ccdb::svm {

/// The RBF kernel K(x, z) = exp(−γ‖x−z‖²), the one kernel of the
/// extractors (paper Sec. 3.4, 4.2). `gamma <= 0` means "auto": 1 / dims,
/// resolved at training time.
struct KernelConfig {
  double gamma = 0.0;
};

/// Evaluates K(x, z) for equal-length vectors. The reference evaluator:
/// it differences x − z directly and calls std::exp. Parity tests hold the
/// batched paths below to it; the library itself never calls it.
double EvalKernel(const KernelConfig& config, std::span<const double> x,
                  std::span<const double> z);

/// Returns a copy of `config` with gamma resolved to 1/dims if it was auto.
KernelConfig ResolveKernel(const KernelConfig& config, std::size_t dims);

/// Evaluates K(rows_r, x) for every row of a row-major matrix block in one
/// GEMV-like sweep: a single DotBatch pass, then the squared distance is
/// reassembled via the norm trick
///   ‖x − z‖² = ‖x‖² + ‖z‖² − 2·x·z
/// from the precomputed `row_sq_norms` (‖rows_r‖², see RowSquaredNorms)
/// and `x_sq_norm` (‖x‖²); cancellation can leave the reassembled value a
/// few ulps negative, which is clamped to 0. The exponent −γ‖x − z‖² then
/// goes through ExpNonPositiveInPlace (common/vec.h), within 1 ulp of
/// std::exp; gamma must be resolved (≥ 0), so the exponent is ≤ 0.
void EvalKernelBatch(const KernelConfig& config, std::span<const double> rows,
                     std::size_t num_rows, std::size_t cols,
                     std::span<const double> row_sq_norms,
                     std::span<const double> x, double x_sq_norm,
                     std::span<double> out);

/// Edge of the square tiles EvalKernelGram fills, in rows (a multiple of
/// four).
inline constexpr std::size_t kGramTileRows = 64;

/// Fills the whole symmetric Gram matrix of a row-major block,
///   out[i·n + j] = s_i·s_j·K(rows_i, rows_j),  n = num_rows,
/// where s is `signs` (±1 per row, a C-SVC's labels; empty = all +1).
/// Only the upper triangle is computed, in square tiles of kGramTileRows:
/// each quad of tile rows is one DotBatchQuad sweep over the tile's
/// columns into a tile-sized buffer, finished in place as EvalKernelBatch
/// does (norm trick and the same exp) and signed; the buffer is then
/// stored as the tile and as its mirrored transpose.
/// Every entry is bit-identical to EvalKernelBatch's row i, entry j: the
/// dot's products and the norm trick's sum commute, so K_ij = K_ji
/// exactly. `row_sq_norms` as for EvalKernelBatch.
void EvalKernelGram(const KernelConfig& config, std::span<const double> rows,
                    std::size_t num_rows, std::size_t cols,
                    std::span<const double> row_sq_norms,
                    std::span<const std::int8_t> signs,
                    std::span<double> out);

/// Batched kernel-expansion machine evaluation:
///   out[i] = Σ_s coefficients[s] · K(sv_s, points_i) − rho
/// Items go in groups of four: one DotBatchQuad sweep over the support
/// vectors, then one fused pass that finishes each dot into a kernel value
/// (norm trick and ExpNonPositiveQuad) and folds it against the
/// coefficients in Dot's order. Each out[i] is therefore bit-identical to
/// the single-item value, EvalKernelBatch then Dot, which the sub-four
/// tail uses. Blocked over items and parallelized on the shared thread
/// pool when the batch is large enough to amortize the fan-out.
/// `sv_sq_norms` must hold ‖sv_s‖² for every support vector (checked).
/// Probes `stop` once per block; returns false when it fired — entries of
/// `out` beyond the blocks completed by then are unspecified. Every out[i]
/// is computed independently, so results are identical whether the sweep
/// ran serial or parallel.
bool EvalKernelExpansion(const KernelConfig& config,
                         const Matrix& support_vectors,
                         std::span<const double> sv_sq_norms,
                         std::span<const double> coefficients, double rho,
                         const Matrix& points, const StopCondition& stop,
                         std::span<double> out);

/// The input of the sign filter below, prepared once per point set: every
/// point's coordinates in float and its ‖x‖² in double, in a layout
/// private to svm/kernel.cc. It holds no pointer into the Matrix it was
/// built from, so a copied or moved owner stays valid. A perceptual space
/// prepares its items once (core::PerceptualSpace); a one-off batch
/// prepares its rows per call.
class LabelPoints {
 public:
  LabelPoints() = default;
  explicit LabelPoints(const Matrix& points);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  friend bool EvalKernelExpansionLabels(const KernelConfig& config,
                                        const Matrix& support_vectors,
                                        std::span<const double> sv_sq_norms,
                                        std::span<const double> coefficients,
                                        double rho, const Matrix& points,
                                        const LabelPoints& prepared,
                                        const StopCondition& stop,
                                        std::span<bool> out);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> coords_;
  std::vector<double> sq_norms_;
};

/// The signs of that expansion: out[i] = (f(points_i) ≥ 0) for the f that
/// EvalKernelExpansion computes, so the labels are the same bit for bit,
/// at a fraction of its cost. `prepared` must be LabelPoints(points)
/// (its shape is checked); the exact path reads `points`. A float32
/// filter decides each sign: items go sixteen at a time, their prepared
/// float coordinates dotted against a float copy of the support vectors,
/// turned into kernel values by ExpNonPositiveOctet and folded in double
/// into f̃. An item takes the sign of f̃ when |f̃| > E(x) = A + B·‖x‖², a
/// rigorous bound on |f̃ − f| (DESIGN §9); otherwise, or when ‖x‖² is not
/// finite or exceeds 2^100, it takes the exact value, four such items of a
/// block at a time. A model outside the bound's limits (‖sv‖² above
/// 2^100, γ outside [0, 2^64], more than 4,096 dims or 2^28 support
/// vectors, Σ|coef| not finite or above 2^1000) takes the exact sweep for
/// every item. Blocks, fan-out and the stop probe are
/// EvalKernelExpansion's; returns false when `stop` fired, and entries of
/// `out` beyond the blocks completed by then are unspecified.
bool EvalKernelExpansionLabels(const KernelConfig& config,
                               const Matrix& support_vectors,
                               std::span<const double> sv_sq_norms,
                               std::span<const double> coefficients,
                               double rho, const Matrix& points,
                               const LabelPoints& prepared,
                               const StopCondition& stop,
                               std::span<bool> out);

}  // namespace ccdb::svm

#endif  // CCDB_SVM_KERNEL_H_
