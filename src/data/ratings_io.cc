#include "data/ratings_io.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/csv.h"

namespace ccdb::data {
namespace {

/// Hard cap on one CSV line — a corrupt file whose "line" never ends
/// fails with a clean Status instead of exhausting memory.
constexpr std::size_t kMaxLineBytes = 1 << 20;

bool LooksNumeric(const std::string& field) {
  if (field.empty()) return false;
  std::size_t start = field[0] == '-' || field[0] == '+' ? 1 : 0;
  if (start == field.size()) return false;
  bool seen_dot = false;
  for (std::size_t i = start; i < field.size(); ++i) {
    if (field[i] == '.') {
      if (seen_dot) return false;
      seen_dot = true;
      continue;
    }
    if (!std::isdigit(static_cast<unsigned char>(field[i]))) return false;
  }
  return true;
}

/// A score or day in the shortest fixed-notation text that reads back as
/// the same float (LooksNumeric takes no exponent).
std::string FloatField(float value) {
  char text[64];
  char* end =
      std::to_chars(text, text + sizeof text, value, std::chars_format::fixed)
          .ptr;
  return std::string(text, end);
}

}  // namespace

StatusOr<RatingDataset> LoadRatingsCsv(const std::string& path, Fs* fs) {
  StatusOr<std::string> bytes = ResolveFs(fs).ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  std::istringstream in(std::move(bytes).value());

  std::unordered_map<long long, std::uint32_t> item_ids, user_ids;
  std::vector<Rating> ratings;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.size() > kMaxLineBytes) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) +
                                     ": oversized line");
    }
    if (line.empty() || (!line.empty() && line.back() == '\r' &&
                         (line.pop_back(), line.empty()))) {
      continue;
    }
    StatusOr<std::vector<std::string>> fields = ParseCsvLine(line);
    if (!fields.ok()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) + ": " +
                                     fields.status().message());
    }
    const std::vector<std::string>& row = fields.value();
    if (row.size() < 3 || row.size() > 4) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) +
          ": expected item,user,score[,day]");
    }
    if (line_number == 1 && !LooksNumeric(row[0])) {
      continue;  // header row
    }
    if (!LooksNumeric(row[0]) || !LooksNumeric(row[1]) ||
        !LooksNumeric(row[2]) ||
        (row.size() == 4 && !LooksNumeric(row[3]))) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) +
                                     ": non-numeric field");
    }
    const auto bad_field = [&](const char* field, const char* why) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) + ": " +
                                     field + " " + why);
    };
    long long raw_item = 0;
    long long raw_user = 0;
    Rating rating;
    if (const char* why = ReadNumberField(row[0], raw_item)) {
      return bad_field("item id", why);
    }
    if (const char* why = ReadNumberField(row[1], raw_user)) {
      return bad_field("user id", why);
    }
    if (raw_item < 0 || raw_user < 0) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) +
                                     ": negative id");
    }
    // A score or day is rounded once, straight to float (through double,
    // a few decimals land on the neighbouring float).
    if (const char* why = ReadNumberField(row[2], rating.score)) {
      return bad_field("score", why);
    }
    if (row.size() == 4) {
      if (const char* why = ReadNumberField(row[3], rating.day)) {
        return bad_field("day", why);
      }
    }
    rating.item = item_ids
                      .try_emplace(raw_item, static_cast<std::uint32_t>(
                                                 item_ids.size()))
                      .first->second;
    rating.user = user_ids
                      .try_emplace(raw_user, static_cast<std::uint32_t>(
                                                 user_ids.size()))
                      .first->second;
    ratings.push_back(rating);
  }
  if (ratings.empty()) {
    return Status::InvalidArgument(path + ": no ratings found");
  }
  return RatingDataset(item_ids.size(), user_ids.size(), std::move(ratings));
}

Status SaveRatingsCsv(const RatingDataset& dataset, const std::string& path,
                      Fs* fs) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.WriteRow({"item_id", "user_id", "score", "day"});
  for (const Rating& rating : dataset.ratings()) {
    csv.WriteRow({std::to_string(rating.item), std::to_string(rating.user),
                  FloatField(rating.score), FloatField(rating.day)});
  }
  return ResolveFs(fs).WriteFile(path, out.str());
}

}  // namespace ccdb::data
