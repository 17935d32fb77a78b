#include "common/vec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace ccdb {
namespace {

// Four double or eight float query lanes as GCC/Clang vector extensions.
// Lanes never pass through a function boundary by value (only through
// memcpy), so the portable build (no AVX) compiles under -Werror=psabi.
typedef double Lanes __attribute__((vector_size(32)));
typedef float Octet __attribute__((vector_size(32)));

// Raw-pointer cores of the hot kernels. Four independent accumulators per
// loop break the additive dependency chain; with fused multiply-add
// hardware each partial sum retires one FMA per cycle and the compiler
// vectorizes the stride-4 body. Tails shorter than the unroll fall through
// to a scalar loop.

inline double DotCore(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i] * b[i];
  return ((acc0 + acc1) + (acc2 + acc3)) + tail;
}

inline double SquaredDistanceCore(const double* a, const double* b,
                                  std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail += d * d;
  }
  return ((acc0 + acc1) + (acc2 + acc3)) + tail;
}

// Quad cores: `xq` is the lane-interleaved packing of four query vectors
// (xq[c*4 + q] = x_q[c]). The c-loop carries four independent accumulator
// chains per stride slot — one ymm register of four query lanes each —
// and every lane accumulates c, c+4, c+8, … exactly like the scalar cores
// above, so each lane's result is bit-identical to the single-query call.

inline void DotQuadCore(const double* row, const double* xq, std::size_t n,
                        double* out4) {
  double acc0[4] = {0.0, 0.0, 0.0, 0.0};
  double acc1[4] = {0.0, 0.0, 0.0, 0.0};
  double acc2[4] = {0.0, 0.0, 0.0, 0.0};
  double acc3[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double r0 = row[i], r1 = row[i + 1], r2 = row[i + 2],
                 r3 = row[i + 3];
    for (std::size_t q = 0; q < 4; ++q) acc0[q] += r0 * xq[i * 4 + q];
    for (std::size_t q = 0; q < 4; ++q) acc1[q] += r1 * xq[(i + 1) * 4 + q];
    for (std::size_t q = 0; q < 4; ++q) acc2[q] += r2 * xq[(i + 2) * 4 + q];
    for (std::size_t q = 0; q < 4; ++q) acc3[q] += r3 * xq[(i + 3) * 4 + q];
  }
  double tail[4] = {0.0, 0.0, 0.0, 0.0};
  for (; i < n; ++i) {
    const double r = row[i];
    for (std::size_t q = 0; q < 4; ++q) tail[q] += r * xq[i * 4 + q];
  }
  for (std::size_t q = 0; q < 4; ++q) {
    out4[q] = ((acc0[q] + acc1[q]) + (acc2[q] + acc3[q])) + tail[q];
  }
}

// Three consecutive rows of n values against the same lanes of queries
// (xq[c*kLanes + q] = x_q[c]; four doubles or eight floats, one 256-bit
// vector either way): twelve accumulator chains, one per (row, stride
// slot), so two FMAs can issue per cycle against one chain's four-cycle
// latency, where DotQuadCore's four chains allow one. Each (row, lane)
// pair keeps DotQuadCore's chain and combine order, so for doubles
// out[r*4 + q] is bit-identical to DotQuadCore on row r. Only the first
// `rows` of the three results are stored: a remainder of one or two rows
// passes the first row again in the missing places.
template <typename V, typename T>
inline void DotCore3(const T* r0, const T* r1, const T* r2, const T* xq,
                     std::size_t n, T* out, std::size_t rows) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(T);
  V a00{}, a01{}, a02{}, a03{};
  V a10{}, a11{}, a12{}, a13{};
  V a20{}, a21{}, a22{}, a23{};
  const auto load = [](V& lanes, const T* from) {
    std::memcpy(&lanes, from, sizeof(lanes));
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    V x0{}, x1{}, x2{}, x3{};
    load(x0, xq + i * kLanes);
    load(x1, xq + (i + 1) * kLanes);
    load(x2, xq + (i + 2) * kLanes);
    load(x3, xq + (i + 3) * kLanes);
    a00 += r0[i] * x0;
    a10 += r1[i] * x0;
    a20 += r2[i] * x0;
    a01 += r0[i + 1] * x1;
    a11 += r1[i + 1] * x1;
    a21 += r2[i + 1] * x1;
    a02 += r0[i + 2] * x2;
    a12 += r1[i + 2] * x2;
    a22 += r2[i + 2] * x2;
    a03 += r0[i + 3] * x3;
    a13 += r1[i + 3] * x3;
    a23 += r2[i + 3] * x3;
  }
  V t0{}, t1{}, t2{};
  for (; i < n; ++i) {
    V x{};
    load(x, xq + i * kLanes);
    t0 += r0[i] * x;
    t1 += r1[i] * x;
    t2 += r2[i] * x;
  }
  const V o0 = ((a00 + a01) + (a02 + a03)) + t0;
  const V o1 = ((a10 + a11) + (a12 + a13)) + t1;
  const V o2 = ((a20 + a21) + (a22 + a23)) + t2;
  std::memcpy(out, &o0, sizeof(o0));
  if (rows > 1) std::memcpy(out + kLanes, &o1, sizeof(o1));
  if (rows > 2) std::memcpy(out + 2 * kLanes, &o2, sizeof(o2));
}

inline void SquaredDistanceQuadCore(const double* row, const double* xq,
                                    std::size_t n, double* out4) {
  double acc0[4] = {0.0, 0.0, 0.0, 0.0};
  double acc1[4] = {0.0, 0.0, 0.0, 0.0};
  double acc2[4] = {0.0, 0.0, 0.0, 0.0};
  double acc3[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double r0 = row[i], r1 = row[i + 1], r2 = row[i + 2],
                 r3 = row[i + 3];
    for (std::size_t q = 0; q < 4; ++q) {
      const double d = r0 - xq[i * 4 + q];
      acc0[q] += d * d;
    }
    for (std::size_t q = 0; q < 4; ++q) {
      const double d = r1 - xq[(i + 1) * 4 + q];
      acc1[q] += d * d;
    }
    for (std::size_t q = 0; q < 4; ++q) {
      const double d = r2 - xq[(i + 2) * 4 + q];
      acc2[q] += d * d;
    }
    for (std::size_t q = 0; q < 4; ++q) {
      const double d = r3 - xq[(i + 3) * 4 + q];
      acc3[q] += d * d;
    }
  }
  double tail[4] = {0.0, 0.0, 0.0, 0.0};
  for (; i < n; ++i) {
    const double r = row[i];
    for (std::size_t q = 0; q < 4; ++q) {
      const double d = r - xq[i * 4 + q];
      tail[q] += d * d;
    }
  }
  for (std::size_t q = 0; q < 4; ++q) {
    out4[q] = ((acc0[q] + acc1[q]) + (acc2[q] + acc3[q])) + tail[q];
  }
}

inline double SquaredNormCore(const double* a, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * a[i];
    acc1 += a[i + 1] * a[i + 1];
    acc2 += a[i + 2] * a[i + 2];
    acc3 += a[i + 3] * a[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i] * a[i];
  return ((acc0 + acc1) + (acc2 + acc3)) + tail;
}

}  // namespace

double Dot(std::span<const double> x, std::span<const double> y) {
  CCDB_CHECK_EQ(x.size(), y.size());
  return DotCore(x.data(), y.data(), x.size());
}

double SquaredDistance(std::span<const double> x, std::span<const double> y) {
  CCDB_CHECK_EQ(x.size(), y.size());
  return SquaredDistanceCore(x.data(), y.data(), x.size());
}

double Distance(std::span<const double> x, std::span<const double> y) {
  return std::sqrt(SquaredDistance(x, y));
}

double Norm(std::span<const double> x) { return std::sqrt(SquaredNorm(x)); }

double SquaredNorm(std::span<const double> x) {
  return SquaredNormCore(x.data(), x.size());
}

void Axpy(double alpha, std::span<const double> x, std::span<double> y) {
  CCDB_CHECK_EQ(x.size(), y.size());
  const double* a = x.data();
  double* b = y.data();
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    b[i] += alpha * a[i];
    b[i + 1] += alpha * a[i + 1];
    b[i + 2] += alpha * a[i + 2];
    b[i + 3] += alpha * a[i + 3];
  }
  for (; i < n; ++i) b[i] += alpha * a[i];
}

void Scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

double Sum(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

double Mean(std::span<const double> x) {
  CCDB_CHECK(!x.empty());
  return Sum(x) / static_cast<double>(x.size());
}

double Variance(std::span<const double> x) {
  CCDB_CHECK(!x.empty());
  const double mean = Mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - mean) * (v - mean);
  return acc / static_cast<double>(x.size());
}

double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y) {
  CCDB_CHECK_EQ(x.size(), y.size());
  CCDB_CHECK(!x.empty());
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void NormalizeInPlace(std::span<double> x) {
  const double norm = Norm(x);
  if (norm > 0.0) Scale(1.0 / norm, x);
}

void DotBatch(std::span<const double> rows, std::size_t num_rows,
              std::size_t cols, std::span<const double> x,
              std::span<double> out) {
  CCDB_CHECK_EQ(rows.size(), num_rows * cols);
  CCDB_CHECK_EQ(x.size(), cols);
  CCDB_CHECK_EQ(out.size(), num_rows);
  const double* row = rows.data();
  for (std::size_t r = 0; r < num_rows; ++r, row += cols) {
    out[r] = DotCore(row, x.data(), cols);
  }
}

void SquaredDistanceToRows(std::span<const double> rows, std::size_t num_rows,
                           std::size_t cols, std::span<const double> x,
                           std::span<double> out) {
  CCDB_CHECK_EQ(rows.size(), num_rows * cols);
  CCDB_CHECK_EQ(x.size(), cols);
  CCDB_CHECK_EQ(out.size(), num_rows);
  const double* row = rows.data();
  for (std::size_t r = 0; r < num_rows; ++r, row += cols) {
    out[r] = SquaredDistanceCore(row, x.data(), cols);
  }
}

void RowSquaredNorms(std::span<const double> rows, std::size_t num_rows,
                     std::size_t cols, std::span<double> out) {
  CCDB_CHECK_EQ(rows.size(), num_rows * cols);
  CCDB_CHECK_EQ(out.size(), num_rows);
  const double* row = rows.data();
  for (std::size_t r = 0; r < num_rows; ++r, row += cols) {
    out[r] = SquaredNormCore(row, cols);
  }
}

void InterleaveQuad(std::span<const double> x0, std::span<const double> x1,
                    std::span<const double> x2, std::span<const double> x3,
                    std::span<double> out) {
  const std::size_t cols = x0.size();
  CCDB_CHECK_EQ(x1.size(), cols);
  CCDB_CHECK_EQ(x2.size(), cols);
  CCDB_CHECK_EQ(x3.size(), cols);
  CCDB_CHECK_EQ(out.size(), 4 * cols);
  for (std::size_t c = 0; c < cols; ++c) {
    out[c * 4] = x0[c];
    out[c * 4 + 1] = x1[c];
    out[c * 4 + 2] = x2[c];
    out[c * 4 + 3] = x3[c];
  }
}

void DotBatchQuad(std::span<const double> rows, std::size_t num_rows,
                  std::size_t cols, std::span<const double> interleaved,
                  std::span<double> out) {
  CCDB_CHECK_EQ(rows.size(), num_rows * cols);
  CCDB_CHECK_EQ(interleaved.size(), 4 * cols);
  CCDB_CHECK_EQ(out.size(), 4 * num_rows);
  const double* row = rows.data();
  std::size_t r = 0;
  for (; r + 3 <= num_rows; r += 3, row += 3 * cols) {
    DotCore3<Lanes>(row, row + cols, row + 2 * cols, interleaved.data(),
                    cols, out.data() + r * 4, 3);
  }
  for (; r < num_rows; ++r, row += cols) {
    DotQuadCore(row, interleaved.data(), cols, out.data() + r * 4);
  }
}

void DotBatchOctet(std::span<const float> rows, std::size_t num_rows,
                   std::size_t cols, std::span<const float> interleaved,
                   std::span<float> out) {
  CCDB_CHECK_EQ(rows.size(), num_rows * cols);
  CCDB_CHECK_EQ(interleaved.size(), 8 * cols);
  CCDB_CHECK_EQ(out.size(), 8 * num_rows);
  const float* row = rows.data();
  for (std::size_t r = 0; r < num_rows; r += 3, row += 3 * cols) {
    const std::size_t left = std::min<std::size_t>(3, num_rows - r);
    DotCore3<Octet>(row, left > 1 ? row + cols : row,
                    left > 2 ? row + 2 * cols : row, interleaved.data(), cols,
                    out.data() + r * 8, left);
  }
}

void SquaredDistanceToRowsQuad(std::span<const double> rows,
                               std::size_t num_rows, std::size_t cols,
                               std::span<const double> interleaved,
                               std::span<double> out) {
  CCDB_CHECK_EQ(rows.size(), num_rows * cols);
  CCDB_CHECK_EQ(interleaved.size(), 4 * cols);
  CCDB_CHECK_EQ(out.size(), 4 * num_rows);
  const double* row = rows.data();
  for (std::size_t r = 0; r < num_rows; ++r, row += cols) {
    SquaredDistanceQuadCore(row, interleaved.data(), cols,
                            out.data() + r * 4);
  }
}

void ExpNonPositiveInPlace(std::span<double> x) {
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double lanes[4] = {x[i], x[i + 1], x[i + 2], x[i + 3]};
    ExpNonPositiveQuad(lanes);
    std::copy_n(lanes, 4, x.begin() + i);
  }
  if (i == n) return;
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::copy(x.begin() + i, x.end(), lanes);
  ExpNonPositiveQuad(lanes);
  std::copy_n(lanes, n - i, x.begin() + i);
}

}  // namespace ccdb
