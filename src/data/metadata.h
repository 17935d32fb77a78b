#ifndef CCDB_DATA_METADATA_H_
#define CCDB_DATA_METADATA_H_

#include <cstddef>
#include <vector>

#include "data/synthetic_world.h"
#include "lsi/lsi.h"

namespace ccdb::data {

/// Generates one token document per item of `world`: the synthetic
/// *factual* metadata that stands in for IMDb's title/plot/actors/director/
/// year/country fields, from which the paper's "metadata space" baseline
/// is built.
///
/// The tokens are deliberately independent of the perceptual genre labels:
/// the paper's finding is that "high-level perceptual judgments … are not
/// contained in the factual metadata", so an LSI space over these tokens
/// must overfit tiny training samples (Table 3's ≤-random g-means).
std::vector<lsi::Document> GenerateMetadata(const SyntheticWorld& world);

/// Actor tokens per document: uniform in [kMinActorTokens,
/// kMaxActorTokens].
inline constexpr std::size_t kMinActorTokens = 2;
inline constexpr std::size_t kMaxActorTokens = 6;
/// Plot-keyword tokens per document: uniform in [kMinKeywordTokens,
/// kMaxKeywordTokens].
inline constexpr std::size_t kMinKeywordTokens = 5;
inline constexpr std::size_t kMaxKeywordTokens = 15;

}  // namespace ccdb::data

#endif  // CCDB_DATA_METADATA_H_
