#ifndef CCDB_DATA_RATINGS_IO_H_
#define CCDB_DATA_RATINGS_IO_H_

#include <string>

#include "common/io.h"
#include "common/sparse.h"
#include "common/status.h"

namespace ccdb::data {

/// Loads a rating dataset from a CSV file in the MovieLens-style layout
///
///   item_id,user_id,score[,day]
///
/// with an optional header row (auto-detected: a first row whose fields
/// are not numeric is skipped). Ids may be arbitrary non-negative
/// integers, each read whole (a fraction is InvalidArgument); they are
/// densified to contiguous 0-based ids in first-seen order. This is the
/// adoption path for real Social-Web dumps: export your platform's
/// ratings, load, build a perceptual space.
[[nodiscard]] StatusOr<RatingDataset> LoadRatingsCsv(const std::string& path,
                                                      Fs* fs = nullptr);

/// Writes a dataset in the same layout (with header, densified ids). Each
/// score and day is written in the shortest text that LoadRatingsCsv reads
/// back as the same float.
[[nodiscard]]
Status SaveRatingsCsv(const RatingDataset& dataset, const std::string& path,
                      Fs* fs = nullptr);

}  // namespace ccdb::data

#endif  // CCDB_DATA_RATINGS_IO_H_
