#include "lsi/lsi.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/eigen_sym.h"
#include "common/rng.h"
#include "common/vec.h"

namespace ccdb::lsi {
namespace {

/// Oversampling columns of the randomized range finder.
constexpr std::size_t kOversample = 10;
/// Power iterations sharpening the spectrum separation.
constexpr int kPowerIterations = 2;

/// Sparse document-term matrix in row (document) major layout.
struct SparseMatrix {
  struct Entry {
    std::uint32_t term;
    double weight;
  };
  std::vector<std::vector<Entry>> rows;
  std::size_t num_terms = 0;

  // out = A * dense, where dense is num_terms x k.
  Matrix MultiplyDense(const Matrix& dense) const {
    CCDB_CHECK_EQ(dense.rows(), num_terms);
    Matrix out(rows.size(), dense.cols());
    for (std::size_t d = 0; d < rows.size(); ++d) {
      auto out_row = out.Row(d);
      for (const Entry& e : rows[d]) {
        const auto term_row = dense.Row(e.term);
        for (std::size_t c = 0; c < term_row.size(); ++c) {
          out_row[c] += e.weight * term_row[c];
        }
      }
    }
    return out;
  }

  // out = Aᵀ * dense, where dense is num_docs x k.
  Matrix TransposeMultiplyDense(const Matrix& dense) const {
    CCDB_CHECK_EQ(dense.rows(), rows.size());
    Matrix out(num_terms, dense.cols());
    for (std::size_t d = 0; d < rows.size(); ++d) {
      const auto doc_row = dense.Row(d);
      for (const Entry& e : rows[d]) {
        auto term_row = out.Row(e.term);
        for (std::size_t c = 0; c < doc_row.size(); ++c) {
          term_row[c] += e.weight * doc_row[c];
        }
      }
    }
    return out;
  }
};

SparseMatrix BuildTermDocMatrix(const std::vector<Document>& documents,
                                bool tf_idf, Vocabulary& vocabulary) {
  SparseMatrix matrix;
  matrix.rows.resize(documents.size());

  // First pass: raw term counts per document.
  std::vector<std::unordered_map<std::uint32_t, std::size_t>> counts(
      documents.size());
  for (std::size_t d = 0; d < documents.size(); ++d) {
    for (const std::string& token : documents[d]) {
      ++counts[d][vocabulary.GetOrAdd(token)];
    }
  }
  matrix.num_terms = vocabulary.size();

  // Document frequency per term for the idf weight.
  std::vector<std::size_t> document_frequency(matrix.num_terms, 0);
  for (const auto& doc_counts : counts) {
    for (const auto& term_count : doc_counts) {
      ++document_frequency[term_count.first];
    }
  }

  const double num_docs = static_cast<double>(documents.size());
  for (std::size_t d = 0; d < documents.size(); ++d) {
    matrix.rows[d].reserve(counts[d].size());
    for (const auto& [term, count] : counts[d]) {
      double weight = static_cast<double>(count);
      if (tf_idf) {
        const double tf = 1.0 + std::log(static_cast<double>(count));
        const double idf =
            std::log(num_docs /
                     (1.0 + static_cast<double>(document_frequency[term])));
        weight = tf * std::max(idf, 0.0);
      }
      if (weight > 0.0) {
        matrix.rows[d].push_back({term, weight});
      }
    }
    // Deterministic order regardless of hash-map iteration.
    std::sort(matrix.rows[d].begin(), matrix.rows[d].end(),
              [](const SparseMatrix::Entry& a, const SparseMatrix::Entry& b) {
                return a.term < b.term;
              });
  }
  return matrix;
}

}  // namespace

std::uint32_t Vocabulary::GetOrAdd(const std::string& token) {
  auto [it, inserted] =
      ids_.try_emplace(token, static_cast<std::uint32_t>(tokens_.size()));
  if (inserted) tokens_.push_back(token);
  return it->second;
}

std::uint32_t Vocabulary::Find(const std::string& token) const {
  auto it = ids_.find(token);
  return it == ids_.end() ? kNotFound : it->second;
}

const std::string& Vocabulary::TokenOf(std::uint32_t id) const {
  CCDB_CHECK_LT(id, tokens_.size());
  return tokens_[id];
}

LsiSpace BuildLsiSpace(const std::vector<Document>& documents,
                       const LsiOptions& options) {
  CCDB_CHECK(!documents.empty());
  CCDB_CHECK_GT(options.dims, 0u);

  Vocabulary vocabulary;
  const SparseMatrix matrix =
      BuildTermDocMatrix(documents, options.tf_idf, vocabulary);
  CCDB_CHECK_GT(matrix.num_terms, 0u);

  const std::size_t rank_bound =
      std::min(documents.size(), matrix.num_terms);
  const std::size_t dims = std::min(options.dims, rank_bound);
  const std::size_t sketch =
      std::min(rank_bound, dims + kOversample);

  // Randomized range finder: Q ≈ orthonormal basis of range(A).
  Rng rng(options.seed);
  Matrix gaussian(matrix.num_terms, sketch);
  gaussian.FillGaussian(rng, 0.0, 1.0);
  Matrix y = matrix.MultiplyDense(gaussian);  // docs x sketch
  OrthonormalizeColumns(y);
  for (int it = 0; it < kPowerIterations; ++it) {
    Matrix z = matrix.TransposeMultiplyDense(y);  // terms x sketch
    OrthonormalizeColumns(z);
    y = matrix.MultiplyDense(z);
    OrthonormalizeColumns(y);
  }

  // B = Qᵀ A  (sketch x terms), computed as (Aᵀ Q)ᵀ.
  const Matrix at_q = matrix.TransposeMultiplyDense(y);  // terms x sketch
  // Small Gram matrix BBᵀ = (Aᵀ Q)ᵀ (Aᵀ Q)  (sketch x sketch).
  const Matrix gram = at_q.TransposeMultiply(at_q);
  const SymmetricEigen eigen = JacobiEigenSymmetric(gram);

  // A ≈ Q·B, B = U_b Σ V_bᵀ ⇒ doc coordinates U·Σ = Q·U_b·Σ.
  LsiSpace space;
  space.vocabulary_size = vocabulary.size();
  space.singular_values.resize(dims);
  Matrix u_sigma(sketch, dims);
  for (std::size_t j = 0; j < dims; ++j) {
    const double sigma = std::sqrt(std::max(0.0, eigen.eigenvalues[j]));
    space.singular_values[j] = sigma;
    for (std::size_t i = 0; i < sketch; ++i) {
      u_sigma(i, j) = eigen.eigenvectors(i, j) * sigma;
    }
  }
  space.document_coords = y.Multiply(u_sigma);
  if (options.normalize_documents) {
    for (std::size_t d = 0; d < space.document_coords.rows(); ++d) {
      NormalizeInPlace(space.document_coords.Row(d));
    }
  }
  return space;
}

}  // namespace ccdb::lsi
