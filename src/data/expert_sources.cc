#include "data/expert_sources.h"

#include <cstdint>
#include <iterator>

#include "common/rng.h"

namespace ccdb::data {
namespace {

constexpr const char* kSourceNames[] = {"SimDb", "NetSim", "SimTomatoes"};
/// Per-source probability of flipping any single true label.
constexpr double kFlipRates[] = {0.045, 0.06, 0.035};
static_assert(std::size(kFlipRates) == std::size(kSourceNames));
constexpr std::uint64_t kSeed = 97;

}  // namespace

ExpertSources SimulateExpertSources(const SyntheticWorld& world) {
  constexpr std::size_t num_sources = std::size(kSourceNames);
  const std::size_t num_genres = world.num_genres();
  const std::size_t num_items = world.num_items();

  Rng rng(kSeed);
  ExpertSources sources;
  sources.source_names.assign(std::begin(kSourceNames),
                              std::end(kSourceNames));
  sources.source_labels.resize(num_sources);
  for (std::size_t s = 0; s < num_sources; ++s) {
    sources.source_labels[s].resize(num_genres);
    for (std::size_t g = 0; g < num_genres; ++g) {
      std::vector<bool>& labels = sources.source_labels[s][g];
      labels.resize(num_items);
      for (std::size_t m = 0; m < num_items; ++m) {
        const bool truth = world.GenreLabel(g, static_cast<std::uint32_t>(m));
        labels[m] = rng.Bernoulli(kFlipRates[s]) ? !truth : truth;
      }
    }
  }

  sources.majority.resize(num_genres);
  for (std::size_t g = 0; g < num_genres; ++g) {
    sources.majority[g].resize(num_items);
    for (std::size_t m = 0; m < num_items; ++m) {
      std::size_t votes = 0;
      for (std::size_t s = 0; s < num_sources; ++s) {
        if (sources.source_labels[s][g][m]) ++votes;
      }
      sources.majority[g][m] = votes * 2 > num_sources;
    }
  }
  return sources;
}

}  // namespace ccdb::data
