#ifndef CCDB_LSI_LSI_H_
#define CCDB_LSI_LSI_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/matrix.h"

namespace ccdb::lsi {

/// Maps string tokens to dense integer ids. Insertion order defines ids.
class Vocabulary {
 public:
  /// Returns the id for `token`, inserting it if previously unseen.
  std::uint32_t GetOrAdd(const std::string& token);

  /// Returns the id for `token`, or npos if unknown.
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;
  std::uint32_t Find(const std::string& token) const;

  std::size_t size() const { return tokens_.size(); }
  const std::string& TokenOf(std::uint32_t id) const;

 private:
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> tokens_;
};

/// One document = the bag of metadata tokens describing an item (title
/// words, year bucket, director/actor ids, plot keywords, country …).
using Document = std::vector<std::string>;

/// Options for building an LSI space.
struct LsiOptions {
  /// Target dimensionality of the latent space (the paper uses 100 for the
  /// metadata space).
  std::size_t dims = 100;
  /// Apply log-tf and inverse-document-frequency weighting.
  bool tf_idf = true;
  /// L2-normalize document coordinates (cosine-style LSI). Keeps the
  /// metadata space on a comparable scale to other spaces so one SVM
  /// configuration can be applied to both, as the paper does.
  bool normalize_documents = true;
  std::uint64_t seed = 11;
};

/// The "metadata space" of Sec. 4.3: Latent Semantic Indexing over item
/// metadata. Row i of `document_coords` is the LSI representation of
/// document i (U·Σ of the truncated SVD).
struct LsiSpace {
  Matrix document_coords;
  std::vector<double> singular_values;
  std::size_t vocabulary_size = 0;
};

/// Builds an LSI space from token documents via tf-idf weighting followed
/// by a randomized truncated SVD (range finder + power iterations + Jacobi
/// eigendecomposition of the small Gram matrix). dims is clamped to the
/// achievable rank bound min(#docs, #terms).
LsiSpace BuildLsiSpace(const std::vector<Document>& documents,
                       const LsiOptions& options);

}  // namespace ccdb::lsi

#endif  // CCDB_LSI_LSI_H_
