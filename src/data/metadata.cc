#include "data/metadata.h"

#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.h"

namespace ccdb::data {
namespace {

/// Real factual metadata is *weakly* genre-correlated (directors have
/// genre affinities). The correlation is far too faint for reliable
/// extraction but strong enough that tiny training samples sometimes latch
/// onto it — reproducing the paper's high-variance, ≤-random metadata-space
/// results.
constexpr double kDirectorGenreAffinity = 0.5;
constexpr std::size_t kNumDirectors = 300;
constexpr std::size_t kNumActors = 3000;
constexpr std::size_t kNumCountries = 20;
constexpr std::size_t kNumKeywords = 2000;
/// Zipf exponent for director/actor/keyword frequencies.
constexpr double kZipfExponent = 0.9;
constexpr std::uint64_t kSeed = 23;

// Draws a Zipf-distributed id in [0, n) given a cumulative weight table.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent) : cumulative_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cumulative_[i] = total;
    }
  }

  std::size_t Sample(Rng& rng) const {
    const double target = rng.Uniform() * cumulative_.back();
    std::size_t lo = 0, hi = cumulative_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cumulative_[mid] < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cumulative_;
};

}  // namespace

std::vector<lsi::Document> GenerateMetadata(const SyntheticWorld& world) {
  Rng rng(kSeed);
  const ZipfSampler directors(kNumDirectors, kZipfExponent);
  const ZipfSampler actors(kNumActors, kZipfExponent);
  const ZipfSampler keywords(kNumKeywords, kZipfExponent);

  // Each director leans toward one genre (or none); items prefer
  // affinity-matching directors with probability kDirectorGenreAffinity.
  const std::size_t num_genres = world.num_genres();
  std::vector<std::size_t> director_genre(kNumDirectors);
  for (auto& genre : director_genre) {
    genre = rng.UniformInt(num_genres + 1);  // num_genres = "no lean"
  }

  std::vector<lsi::Document> documents(world.num_items());
  for (std::size_t m = 0; m < world.num_items(); ++m) {
    lsi::Document& doc = documents[m];
    std::size_t director = directors.Sample(rng);
    if (num_genres > 0 && rng.Bernoulli(kDirectorGenreAffinity)) {
      // Resample until the director's lean matches one of the item's
      // genres (bounded retries keep the bias weak).
      for (int attempt = 0; attempt < 8; ++attempt) {
        const std::size_t genre = director_genre[director];
        if (genre < num_genres &&
            world.GenreLabel(genre, static_cast<std::uint32_t>(m))) {
          break;
        }
        director = directors.Sample(rng);
      }
    }
    doc.push_back("director:d" + std::to_string(director));
    doc.push_back("country:c" +
                  std::to_string(rng.UniformInt(kNumCountries)));
    const int decade = 1950 + 10 * static_cast<int>(rng.UniformInt(7));
    doc.push_back("decade:" + std::to_string(decade));
    doc.push_back("runtime:" +
                  std::to_string(70 + 10 * rng.UniformInt(8)) + "m");

    const std::size_t num_actor_tokens =
        kMinActorTokens +
        rng.UniformInt(kMaxActorTokens - kMinActorTokens + 1);
    for (std::size_t a = 0; a < num_actor_tokens; ++a) {
      doc.push_back("actor:a" + std::to_string(actors.Sample(rng)));
    }
    const std::size_t num_keyword_tokens =
        kMinKeywordTokens +
        rng.UniformInt(kMaxKeywordTokens - kMinKeywordTokens + 1);
    for (std::size_t k = 0; k < num_keyword_tokens; ++k) {
      doc.push_back("kw:" + std::to_string(keywords.Sample(rng)));
    }
  }
  return documents;
}

}  // namespace ccdb::data
