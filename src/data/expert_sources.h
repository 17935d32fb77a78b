#ifndef CCDB_DATA_EXPERT_SOURCES_H_
#define CCDB_DATA_EXPERT_SOURCES_H_

#include <string>
#include <vector>

#include "data/synthetic_world.h"

namespace ccdb::data {

struct ExpertSources {
  /// source_labels[s][g][item].
  std::vector<std::vector<std::vector<bool>>> source_labels;
  /// Majority vote across sources: majority[g][item]. This is the
  /// evaluation ground truth for Tables 3–6.
  std::vector<std::vector<bool>> majority;
  std::vector<std::string> source_names;
};

/// Simulates the paper's three expert movie databases (IMDb, Netflix,
/// Rotten Tomatoes) for every genre of `world`: each source is the world's
/// true classification with independent per-source label noise, and the
/// experiment's reference data is the majority vote of the three (exactly
/// how the paper constructs its ground truth; Table 3 then reports each
/// source's g-mean against the majority, landing in the 0.91–0.95 band).
ExpertSources SimulateExpertSources(const SyntheticWorld& world);

}  // namespace ccdb::data

#endif  // CCDB_DATA_EXPERT_SOURCES_H_
