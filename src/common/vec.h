#ifndef CCDB_COMMON_VEC_H_
#define CCDB_COMMON_VEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ccdb {

/// Dense vector kernels used throughout the factorization and SVM code.
/// All functions operate on std::span<const double> (the sign filter's
/// float32 primitives at the end on float) so they work on raw matrix rows
/// without copies; sizes must match (checked).
///
/// The hot kernels (Dot, SquaredDistance, SquaredNorm, Axpy and the batch
/// primitives below) are written as 4-wide unrolled loops with independent
/// accumulators: the unroll breaks the additive dependency chain so the
/// compiler can keep 4 FMA pipes busy and auto-vectorize the body. The
/// summation order differs from a naive left-to-right loop by O(n·eps)
/// relative — property tests pin the parity at 1e-10.

/// Dot product of x and y.
double Dot(std::span<const double> x, std::span<const double> y);

/// Squared Euclidean distance ‖x − y‖².
double SquaredDistance(std::span<const double> x, std::span<const double> y);

/// Euclidean distance ‖x − y‖.
double Distance(std::span<const double> x, std::span<const double> y);

/// Euclidean norm ‖x‖.
double Norm(std::span<const double> x);

/// Squared Euclidean norm ‖x‖².
double SquaredNorm(std::span<const double> x);

/// y += alpha * x.
void Axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha.
void Scale(double alpha, std::span<double> x);

/// Sum of all entries.
double Sum(std::span<const double> x);

/// Arithmetic mean; requires non-empty input.
double Mean(std::span<const double> x);

/// Population variance (divides by n); requires non-empty input.
double Variance(std::span<const double> x);

/// Pearson correlation of two equally sized, non-constant samples.
/// Returns 0 if either sample has zero variance.
double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y);

/// Normalizes x to unit Euclidean norm in place; leaves zero vectors alone.
void NormalizeInPlace(std::span<double> x);

// ------------------------------------------------------------------
// Batch primitives: one query vector against many row-major matrix rows
// in a single pass. `rows` holds num_rows contiguous rows of `cols`
// doubles each (a Matrix::Data() view); `out` receives one value per row.
// These are the building blocks of the GEMV-like kernel sweeps (norm-trick
// RBF rows, batched SVM prediction) and the blocked kNN scans.

/// out[r] = rows_r · x for every row.
void DotBatch(std::span<const double> rows, std::size_t num_rows,
              std::size_t cols, std::span<const double> x,
              std::span<double> out);

/// out[r] = ‖rows_r − x‖² for every row (direct differencing — exact, no
/// norm-trick cancellation; use this when small distances matter, e.g.
/// nearest-neighbor scans).
void SquaredDistanceToRows(std::span<const double> rows, std::size_t num_rows,
                           std::size_t cols, std::span<const double> x,
                           std::span<double> out);

/// out[r] = ‖rows_r‖² for every row — the precomputation that turns an RBF
/// kernel row into one DotBatch sweep via
///   ‖x − z‖² = ‖x‖² + ‖z‖² − 2·x·z.
void RowSquaredNorms(std::span<const double> rows, std::size_t num_rows,
                     std::size_t cols, std::span<double> out);

// ------------------------------------------------------------------
// Quad-query primitives: four query vectors against the same rows in one
// pass. Each candidate row is loaded once and serves four queries (4×
// less row traffic than four single-query sweeps), and the four lanes
// give the compiler a clean broadcast-row × query-vector FMA body. Per
// (row, query) pair the summation order is IDENTICAL to the single-query
// kernels above, so quad results are bit-identical to four DotBatch /
// SquaredDistanceToRows calls — callers may mix the two freely (e.g. for
// tail groups smaller than four).
//
// DotBatchQuad sweeps three rows per pass (the 0–2 leftover rows take the
// one-row pass). One row gives four accumulator chains, each of which
// takes an FMA every four columns; at a four-cycle FMA latency that is one
// FMA per cycle where the core can issue two. Three rows give twelve
// independent chains and keep both FMA ports busy, with each (row, lane)
// pair still on its own chain in the single-query order. The multi-row
// core holds its chains in 4-lane vector-extension values, loaded and
// stored through memcpy: a vector passed or returned by value fails the
// portable build (no AVX) under -Werror=psabi, and the same core written
// over arrays of accumulators spills to the stack under GCC 12.

/// Packs four equal-length query vectors into the lane-interleaved layout
/// the quad kernels consume: out[c*4 + q] = x_q[c].
void InterleaveQuad(std::span<const double> x0, std::span<const double> x1,
                    std::span<const double> x2, std::span<const double> x3,
                    std::span<double> out);

/// out[r*4 + q] = rows_r · x_q. `interleaved` is the InterleaveQuad
/// packing of the four queries (size 4·cols); `out` has size 4·num_rows.
void DotBatchQuad(std::span<const double> rows, std::size_t num_rows,
                  std::size_t cols, std::span<const double> interleaved,
                  std::span<double> out);

/// out[r*4 + q] = ‖rows_r − x_q‖² (direct differencing, like
/// SquaredDistanceToRows).
void SquaredDistanceToRowsQuad(std::span<const double> rows,
                               std::size_t num_rows, std::size_t cols,
                               std::span<const double> interleaved,
                               std::span<double> out);

// ------------------------------------------------------------------
// Exponential of non-positive arguments: the transform that turns every
// batched RBF exponent −γ‖x−z‖² into a kernel value. Contract, per value:
//   * within 1 ulp of std::exp on [−708, 0];
//   * exactly 1 at ±0;
//   * +0 below the normal range (x < ln DBL_MIN ≈ −708.396) and at −∞;
//   * NaN for NaN.
// Positive arguments are outside the contract.
//
// Branch-free, so the four lanes vectorize on every x86-64 level (SSE2
// included): Cody–Waite reduction x = n·ln2 + r with |r| ≤ ln2/2, the
// Taylor polynomial of e^r through r^13 (truncation error under 1/16 ulp
// there), and 2^n assembled from exponent bits in uint64_t — no
// float-to-int conversion, so NaN and −∞ stay defined behaviour. The range
// is handled with integer masks, not floating-point compares: GCC will not
// if-convert a compare-and-select of doubles without AVX-512 masking, so a
// compare would leave the loop scalar on AVX2 and SSE2.

/// lanes[q] ← e^{lanes[q]} for q = 0..3. Defined here so the fused
/// kernel-expansion fold (svm/kernel.cc) keeps the lanes in registers.
inline void ExpNonPositiveQuad(double (&lanes)[4]) {
  constexpr double kLog2e = 0x1.71547652b82fep+0;
  // ln2 split so that n·kLn2Hi is exact for |n| < 2^20.
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  // y + kShifter rounds y to an integer n held in the low mantissa bits.
  constexpr double kShifter = 0x1.8p52;
  // ln DBL_MIN rounded toward zero: e^x ≥ DBL_MIN for every x ≥ kMinArg.
  constexpr double kMinArg = -0x1.6232bdd7abcd2p+9;
  constexpr std::uint64_t kAbsMask = 0x7fff'ffff'ffff'ffff;
  for (std::size_t q = 0; q < 4; ++q) {
    // `keep` is all ones unless |x| > |kMinArg| (below the normal range,
    // −∞ included): the sign of |kMinArg| − |x|. A NaN of either sign
    // becomes a positive NaN under the mask, so it keeps all ones too.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(lanes[q]);
    const double magnitude = std::bit_cast<double>(bits & kAbsMask);
    const std::uint64_t keep =
        (std::bit_cast<std::uint64_t>(-kMinArg - magnitude) >> 63) - 1;
    // Lanes outside the range are evaluated at kMinArg, so every lane
    // stays finite (or NaN), and zeroed through the scale below.
    const double x = std::bit_cast<double>(
        (bits & keep) | (std::bit_cast<std::uint64_t>(kMinArg) & ~keep));
    const double t = x * kLog2e + kShifter;
    const double n = t - kShifter;
    const double r = (x - n * kLn2Hi) - n * kLn2Lo;
    // Horner over the Taylor coefficients 1/k!, k = 13 down to 0.
    double p = 0x1.6124613a86d09p-33;
    p = p * r + 0x1.1eed8eff8d898p-29;
    p = p * r + 0x1.ae64567f544e4p-26;
    p = p * r + 0x1.27e4fb7789f5cp-22;
    p = p * r + 0x1.71de3a556c734p-19;
    p = p * r + 0x1.a01a01a01a01ap-16;
    p = p * r + 0x1.a01a01a01a01ap-13;
    p = p * r + 0x1.6c16c16c16c17p-10;
    p = p * r + 0x1.1111111111111p-7;
    p = p * r + 0x1.5555555555555p-5;
    p = p * r + 0x1.5555555555555p-3;
    p = p * r + 0x1.0p-1;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // t's low bits are n in two's complement; n + 1023 shifted into the
    // exponent field is 2^n (n ∈ [−1022, 0] on the contract range), or +0
    // where `keep` is clear.
    const std::uint64_t scale =
        ((std::bit_cast<std::uint64_t>(t) + 1023) << 52) & keep;
    lanes[q] = p * std::bit_cast<double>(scale);
  }
}

/// x[i] ← e^{x[i]} for every entry, under the contract above. Every entry
/// runs through ExpNonPositiveQuad (the sub-four tail padded), so a value
/// never depends on its position in the span.
void ExpNonPositiveInPlace(std::span<double> x);

// ------------------------------------------------------------------
// Float32 primitives of the RBF sign filter (svm/kernel.cc): eight items
// per 256-bit lane, twice the items per instruction of the 4-double cores.
// Their values only decide signs that a rigorous error bound certifies;
// no float value is ever returned as a decision value.

/// Largest relative error of ExpNonPositiveOctet against e^x on [−87, 0],
/// 2^-22 (four float unit roundoffs); the sign filter's bound rests on it.
inline constexpr double kExpOctetRelativeError = 0x1p-22;

/// lanes[g] ← e^{lanes[g]} in float for g = 0..7. Contract, per value:
///   * relative error at most kExpOctetRelativeError on [−87, 0];
///   * +0 below −87 (e^−87 ≈ 1.6e-38, just above FLT_MIN) and at −∞;
///   * NaN for NaN.
/// Positive arguments are outside the contract. ExpNonPositiveQuad's
/// scheme in float: Cody–Waite reduction with |r| ≤ ln2/2, the Taylor
/// polynomial of e^r through r^7 (truncation below 2^-27 relative), 2^n
/// from exponent bits and the range mask built in uint32_t lanes.
inline void ExpNonPositiveOctet(float (&lanes)[8]) {
  constexpr float kLog2e = 0x1.715476p+0f;
  // ln2 split so that n·kLn2Hi is exact for |n| < 2^15.
  constexpr float kLn2Hi = 0x1.63p-1f;
  constexpr float kLn2Lo = -0x1.bd0106p-13f;
  // y + kShifter rounds y to an integer n held in the low mantissa bits.
  constexpr float kShifter = 0x1.8p23f;
  constexpr float kMinArg = -87.0f;
  constexpr std::uint32_t kAbsMask = 0x7fff'ffff;
  for (std::size_t g = 0; g < 8; ++g) {
    // `keep` is all ones unless |x| > 87: the sign of 87 − |x|, which a
    // NaN of either sign leaves clear.
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(lanes[g]);
    const float magnitude = std::bit_cast<float>(bits & kAbsMask);
    const std::uint32_t keep =
        (std::bit_cast<std::uint32_t>(-kMinArg - magnitude) >> 31) - 1;
    const float x = std::bit_cast<float>(
        (bits & keep) | (std::bit_cast<std::uint32_t>(kMinArg) & ~keep));
    const float t = x * kLog2e + kShifter;
    const float n = t - kShifter;
    const float r = (x - n * kLn2Hi) - n * kLn2Lo;
    // Horner over the Taylor coefficients 1/k!, k = 7 down to 0.
    float p = 0x1.a01a02p-13f;
    p = p * r + 0x1.6c16c2p-10f;
    p = p * r + 0x1.111112p-7f;
    p = p * r + 0x1.555556p-5f;
    p = p * r + 0x1.555556p-3f;
    p = p * r + 0x1.0p-1f;
    p = p * r + 1.0f;
    p = p * r + 1.0f;
    // n + 127 shifted into the exponent field is 2^n (n ∈ [−126, 0] on
    // the contract range), or +0 where `keep` is clear.
    const std::uint32_t scale =
        ((std::bit_cast<std::uint32_t>(t) + 127) << 23) & keep;
    lanes[g] = p * std::bit_cast<float>(scale);
  }
}

/// out[r*8 + g] = rows_r · x_g in float, for eight queries packed
/// lane-interleaved (interleaved[c*8 + g] = x_g[c], size 8·cols); `out`
/// has size 8·num_rows. DotBatchQuad's three-row pass and twelve
/// accumulator chains over 8-float lanes: the same instructions per
/// column, for twice the queries.
void DotBatchOctet(std::span<const float> rows, std::size_t num_rows,
                   std::size_t cols, std::span<const float> interleaved,
                   std::span<float> out);

}  // namespace ccdb

#endif  // CCDB_COMMON_VEC_H_
