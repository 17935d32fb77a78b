#include "bench_common.h"

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/extractor.h"
#include "eval/metrics.h"

namespace ccdb::benchutil {

double EnvDouble(const char* name, double default_value) {
  const char* value = std::getenv(name);
  return value == nullptr ? default_value : std::atof(value);
}

int EnvInt(const char* name, int default_value) {
  const char* value = std::getenv(name);
  return value == nullptr ? default_value : std::atoi(value);
}

bool EnvFlag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

core::PerceptualSpaceOptions DefaultSpaceOptions() {
  core::PerceptualSpaceOptions options;
  options.model.dims = static_cast<std::size_t>(EnvInt("CCDB_DIMS", 100));
  options.model.lambda = 0.02;
  options.trainer.max_epochs = EnvInt("CCDB_EPOCHS", 12);
  options.trainer.learning_rate = 0.05;
  options.trainer.lr_decay = 0.97;
  return options;
}

core::PerceptualSpace BuildOrLoadSpace(
    const RatingDataset& ratings, const core::PerceptualSpaceOptions& options,
    const std::string& tag) {
  // Content fingerprint: sampled ratings hashed in, so any change to the
  // generator invalidates stale cache entries.
  std::uint64_t fingerprint = 0x9E3779B97F4A7C15ull;
  const auto all = ratings.ratings();
  const std::size_t stride = std::max<std::size_t>(1, all.size() / 1024);
  for (std::size_t i = 0; i < all.size(); i += stride) {
    const Rating& r = all[i];
    std::uint64_t word = (static_cast<std::uint64_t>(r.item) << 32) ^
                         static_cast<std::uint64_t>(r.user) ^
                         (static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(r.score * 16.0f))
                          << 48);
    fingerprint ^= word + 0x9E3779B97F4A7C15ull + (fingerprint << 6) +
                   (fingerprint >> 2);
  }
  std::ostringstream key;
  key << tag << '-' << ratings.num_items() << '-' << ratings.num_users()
      << '-' << ratings.num_ratings() << '-' << std::hex << fingerprint
      << std::dec << '-' << options.model.dims << '-'
      << options.model.lambda << '-' << options.trainer.max_epochs << '-'
      << options.trainer.learning_rate << ".bin";
  const std::filesystem::path cache_dir = "ccdb_space_cache";
  const std::filesystem::path cache_path = cache_dir / key.str();

  if (!EnvFlag("CCDB_NO_CACHE")) {
    auto cached = core::PerceptualSpace::LoadFromFile(cache_path.string());
    if (cached.ok()) {
      std::printf("[space] loaded cached %s\n", cache_path.string().c_str());
      return std::move(cached).value();
    }
    // LoadFromFile refuses a stale-format cache by its magic and a
    // truncated or corrupt one by its CRC or its size checks; fall back to
    // recomputing (and overwriting) it.
    if (cached.status().code() != StatusCode::kNotFound) {
      std::printf("[space] cache rejected (%s), rebuilding\n",
                  cached.status().ToString().c_str());
    }
  }

  Stopwatch stopwatch;
  std::printf("[space] building %s (%zu ratings, d=%zu, %d epochs)…\n",
              tag.c_str(), ratings.num_ratings(), options.model.dims,
              options.trainer.max_epochs);
  std::fflush(stdout);
  core::PerceptualSpace space = core::PerceptualSpace::Build(ratings, options);
  std::printf("[space] built in %.1fs\n", stopwatch.ElapsedSeconds());

  if (!EnvFlag("CCDB_NO_CACHE")) {
    std::error_code ec;
    std::filesystem::create_directories(cache_dir, ec);
    if (!ec) {
      const Status status = space.SaveToFile(cache_path.string());
      if (!status.ok()) {
        std::printf("[space] cache write failed: %s\n",
                    status.ToString().c_str());
      }
    }
  }
  return space;
}

MovieContext MakeMovieContext(bool need_space) {
  const double scale = EnvDouble("CCDB_SCALE", 1.0);
  data::SyntheticWorld world(data::MoviesConfig(scale));
  data::ExpertSources sources = data::SimulateExpertSources(world);
  if (!need_space) {
    return {std::move(world), std::move(sources),
            core::PerceptualSpace(Matrix())};
  }
  const RatingDataset ratings = world.SampleRatings();
  core::PerceptualSpace space =
      BuildOrLoadSpace(ratings, DefaultSpaceOptions(), "movies");
  return {std::move(world), std::move(sources), std::move(space)};
}

BalancedSample DrawBalancedSample(const std::vector<bool>& labels,
                                  std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t num_items = labels.size();
  std::vector<std::size_t> order =
      rng.SampleWithoutReplacement(num_items, num_items);
  BalancedSample sample;
  std::vector<std::uint32_t> positives, negatives;
  for (std::size_t index : order) {
    if (labels[index]) {
      if (positives.size() < n) {
        positives.push_back(static_cast<std::uint32_t>(index));
      }
    } else if (negatives.size() < n) {
      negatives.push_back(static_cast<std::uint32_t>(index));
    }
  }
  sample.items = positives;
  sample.items.insert(sample.items.end(), negatives.begin(), negatives.end());
  sample.labels.assign(sample.items.size(), false);
  for (std::size_t i = 0; i < positives.size(); ++i) sample.labels[i] = true;
  return sample;
}

double ExtractionGMean(const core::PerceptualSpace& space,
                       const BalancedSample& sample,
                       const std::vector<bool>& reference,
                       const core::ExtractorOptions& options) {
  core::BinaryAttributeExtractor extractor(options);
  if (!extractor.Train(space, sample.items, sample.labels)) return 0.0;
  const std::vector<bool> predicted = extractor.ExtractAll(space);
  return eval::GMean(eval::CountConfusion(predicted, reference));
}

double MeanExtractionGMean(const core::PerceptualSpace& space,
                           const std::vector<bool>& reference, std::size_t n,
                           int reps, std::uint64_t seed, double* stddev_out,
                           const core::ExtractorOptions& options) {
  std::vector<double> values;
  values.reserve(reps);
  for (int rep = 0; rep < reps; ++rep) {
    const BalancedSample sample =
        DrawBalancedSample(reference, n, seed + static_cast<std::uint64_t>(rep));
    values.push_back(ExtractionGMean(space, sample, reference, options));
  }
  const eval::MeanStddev stats = eval::ComputeMeanStddev(values);
  if (stddev_out != nullptr) *stddev_out = stats.stddev;
  return stats.mean;
}

}  // namespace ccdb::benchutil
