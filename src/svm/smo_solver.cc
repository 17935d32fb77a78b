#include "svm/smo_solver.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace ccdb::svm {
namespace {

constexpr double kTau = 1e-12;

// Four lanes of doubles and of int64 masks as GCC/Clang vector extensions,
// whose `mask ? a : b` is a per-lane select (a blend, not a branch). They
// never pass through a function boundary by value (not even std::bit_cast),
// so the portable build (no AVX) compiles under -Werror=psabi.
typedef double Lanes __attribute__((vector_size(32)));
typedef std::int64_t LaneMasks __attribute__((vector_size(32)));
constexpr std::size_t kLanes = 4;

/// The first-order maximal violating pair: i maximizes the score −y_t·G_t
/// over the up set, j minimizes it over the low set; an index is n when
/// its set is empty.
struct WorkingPair {
  std::size_t i;
  std::size_t j;
  double max_up;
  double min_low;
};

/// Selects the next working pair in one pass over t ∈ [0, n); with
/// kUpdate it first applies G_t += δ_i·Q_it + δ_j·Q_jt, written as one
/// expression in the scalar order of a separate gradient loop (so G is
/// bit-identical to it), and scores the updated G_t. `up` and `low` hold
/// all-ones for eligible variables. Lane l sees t = l, l+4, … in
/// increasing order and keeps the first index of its extremum through
/// branch-free selects; merging the lanes prefers the lower index on equal
/// scores, so the pair is the one a sequential strict-compare scan finds.
template <bool kUpdate>
WorkingPair SelectPair(std::size_t n, double* gradient, const double* minus_y,
                       const std::int64_t* up, const std::int64_t* low,
                       double delta_i, const double* row_i, double delta_j,
                       const double* row_j) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto none = static_cast<std::int64_t>(n);
  Lanes max_up = {-kInf, -kInf, -kInf, -kInf};
  Lanes min_low = {kInf, kInf, kInf, kInf};
  LaneMasks best_i = {none, none, none, none};
  LaneMasks best_j = best_i;
  LaneMasks index = {0, 1, 2, 3};
  const LaneMasks stride = {4, 4, 4, 4};
  const auto load = [](auto& lanes, const auto* from) {
    std::memcpy(&lanes, from, sizeof(lanes));
  };
  std::size_t t = 0;
  for (; t + kLanes <= n; t += kLanes) {
    Lanes g{}, my{};
    LaneMasks up_t{}, low_t{};
    load(g, gradient + t);
    if constexpr (kUpdate) {
      Lanes qi{}, qj{};
      load(qi, row_i + t);
      load(qj, row_j + t);
      g = g + (delta_i * qi + delta_j * qj);
      std::memcpy(gradient + t, &g, sizeof(g));
    }
    load(my, minus_y + t);
    load(up_t, up + t);
    load(low_t, low + t);
    const Lanes score = my * g;
    const LaneMasks take_up = (score > max_up) & up_t;
    const LaneMasks take_low = (score < min_low) & low_t;
    max_up = take_up ? score : max_up;
    best_i = take_up ? index : best_i;
    min_low = take_low ? score : min_low;
    best_j = take_low ? index : best_j;
    index += stride;
  }

  for (std::size_t l = 0; t + l < n; ++l) {  // the n mod 4 tail
    const std::size_t u = t + l;
    if constexpr (kUpdate) {
      gradient[u] += delta_i * row_i[u] + delta_j * row_j[u];
    }
    const double score = minus_y[u] * gradient[u];
    if (up[u] != 0 && score > max_up[l]) {
      max_up[l] = score;
      best_i[l] = static_cast<std::int64_t>(u);
    }
    if (low[u] != 0 && score < min_low[l]) {
      min_low[l] = score;
      best_j[l] = static_cast<std::int64_t>(u);
    }
  }

  WorkingPair pair{static_cast<std::size_t>(best_i[0]),
                   static_cast<std::size_t>(best_j[0]), max_up[0],
                   min_low[0]};
  for (std::size_t l = 1; l < kLanes; ++l) {
    const auto i = static_cast<std::size_t>(best_i[l]);
    const auto j = static_cast<std::size_t>(best_j[l]);
    if (max_up[l] > pair.max_up || (max_up[l] == pair.max_up && i < pair.i)) {
      pair.max_up = max_up[l];
      pair.i = i;
    }
    if (min_low[l] < pair.min_low ||
        (min_low[l] == pair.min_low && j < pair.j)) {
      pair.min_low = min_low[l];
      pair.j = j;
    }
  }
  return pair;
}

}  // namespace

SmoResult SolveSmo(const QMatrix& q, const std::vector<double>& p,
                   const std::vector<std::int8_t>& y,
                   const std::vector<double>& upper_bound,
                   const std::vector<double>& initial_alpha,
                   const SmoConfig& config) {
  const std::size_t n = q.size();
  CCDB_CHECK_EQ(p.size(), n);
  CCDB_CHECK_EQ(y.size(), n);
  CCDB_CHECK_EQ(upper_bound.size(), n);
  CCDB_CHECK_EQ(initial_alpha.size(), n);

  SmoResult result;
  result.alpha = initial_alpha;
  std::vector<double>& alpha = result.alpha;

  // Gradient G = Qα + p.
  std::vector<double> gradient = p;
  for (std::size_t t = 0; t < n; ++t) {
    if (alpha[t] != 0.0) {
      const std::span<const double> row = q.Row(t);
      for (std::size_t s = 0; s < n; ++s) gradient[s] += alpha[t] * row[s];
    }
  }

  // Working-set eligibility (I_up / I_low) as all-ones masks; only α_i and
  // α_j change in an iteration, so only their entries are refreshed.
  std::vector<std::int64_t> up(n), low(n);
  const auto refresh_masks = [&](std::size_t t) {
    const bool below_bound = alpha[t] < upper_bound[t];
    const bool above_zero = alpha[t] > 0.0;
    up[t] = -static_cast<std::int64_t>(y[t] > 0 ? below_bound : above_zero);
    low[t] = -static_cast<std::int64_t>(y[t] > 0 ? above_zero : below_bound);
  };
  std::vector<double> minus_y(n);
  for (std::size_t t = 0; t < n; ++t) {
    minus_y[t] = -static_cast<double>(y[t]);
    refresh_masks(t);
  }
  WorkingPair pair =
      SelectPair<false>(n, gradient.data(), minus_y.data(), up.data(),
                        low.data(), 0.0, nullptr, 0.0, nullptr);

  for (result.iterations = 0; result.iterations < config.max_iterations;
       ++result.iterations) {
    if (config.stop.ShouldStop()) {
      result.stop_status = config.stop.ToStatus("SMO solve");
      break;
    }
    const std::size_t i = pair.i;
    const std::size_t j = pair.j;
    if (i >= n || j >= n || pair.max_up - pair.min_low < kSmoTolerance) {
      result.converged = true;
      break;
    }

    const std::span<const double> row_i = q.Row(i);
    const std::span<const double> row_j = q.Row(j);
    const double c_i = upper_bound[i];
    const double c_j = upper_bound[j];
    const double old_alpha_i = alpha[i];
    const double old_alpha_j = alpha[j];

    // Analytic two-variable subproblem (LIBSVM update equations).
    if (y[i] != y[j]) {
      double quad_coef = q.Diagonal(i) + q.Diagonal(j) + 2.0 * row_i[j];
      if (quad_coef <= 0.0) quad_coef = kTau;
      const double delta = (-gradient[i] - gradient[j]) / quad_coef;
      const double diff = alpha[i] - alpha[j];
      alpha[i] += delta;
      alpha[j] += delta;
      if (diff > 0.0) {
        if (alpha[j] < 0.0) {
          alpha[j] = 0.0;
          alpha[i] = diff;
        }
      } else {
        if (alpha[i] < 0.0) {
          alpha[i] = 0.0;
          alpha[j] = -diff;
        }
      }
      if (diff > c_i - c_j) {
        if (alpha[i] > c_i) {
          alpha[i] = c_i;
          alpha[j] = c_i - diff;
        }
      } else {
        if (alpha[j] > c_j) {
          alpha[j] = c_j;
          alpha[i] = c_j + diff;
        }
      }
    } else {
      double quad_coef = q.Diagonal(i) + q.Diagonal(j) - 2.0 * row_i[j];
      if (quad_coef <= 0.0) quad_coef = kTau;
      const double delta = (gradient[i] - gradient[j]) / quad_coef;
      const double sum = alpha[i] + alpha[j];
      alpha[i] -= delta;
      alpha[j] += delta;
      if (sum > c_i) {
        if (alpha[i] > c_i) {
          alpha[i] = c_i;
          alpha[j] = sum - c_i;
        }
      } else {
        if (alpha[j] < 0.0) {
          alpha[j] = 0.0;
          alpha[i] = sum;
        }
      }
      if (sum > c_j) {
        if (alpha[j] > c_j) {
          alpha[j] = c_j;
          alpha[i] = sum - c_j;
        }
      } else {
        if (alpha[i] < 0.0) {
          alpha[i] = 0.0;
          alpha[j] = sum;
        }
      }
    }

    const double delta_i = alpha[i] - old_alpha_i;
    const double delta_j = alpha[j] - old_alpha_j;
    if (delta_i == 0.0 && delta_j == 0.0) {
      // Numerically stuck pair; treat as converged to avoid spinning.
      result.converged = true;
      break;
    }
    refresh_masks(i);
    refresh_masks(j);
    // The fused pass: G += δ_i·Q_i + δ_j·Q_j, scoring the updated G_t for
    // the next pair as it goes.
    pair = SelectPair<true>(n, gradient.data(), minus_y.data(), up.data(),
                            low.data(), delta_i, row_i.data(), delta_j,
                            row_j.data());
  }

  // rho so that the KKT conditions hold for free variables.
  double free_sum = 0.0;
  std::size_t free_count = 0;
  double upper = std::numeric_limits<double>::infinity();
  double lower = -std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < n; ++t) {
    const double y_grad = static_cast<double>(y[t]) * gradient[t];
    if (alpha[t] >= upper_bound[t]) {
      if (y[t] < 0) {
        upper = std::min(upper, y_grad);
      } else {
        lower = std::max(lower, y_grad);
      }
    } else if (alpha[t] <= 0.0) {
      if (y[t] > 0) {
        upper = std::min(upper, y_grad);
      } else {
        lower = std::max(lower, y_grad);
      }
    } else {
      free_sum += y_grad;
      ++free_count;
    }
  }
  result.rho = free_count > 0 ? free_sum / static_cast<double>(free_count)
                              : (upper + lower) / 2.0;
  return result;
}

}  // namespace ccdb::svm
