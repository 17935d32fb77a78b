#include "core/resolver.h"

#include "common/check.h"
#include "common/rng.h"

namespace ccdb::core {

PerceptualExpansionResolver::PerceptualExpansionResolver(
    const PerceptualSpace* space, crowd::WorkerPool pool,
    crowd::HitRunConfig hit_config, std::uint64_t seed)
    : space_(space),
      pool_(std::move(pool)),
      hit_config_(hit_config),
      seed_(seed) {
  CCDB_CHECK(space_ != nullptr);
}

void PerceptualExpansionResolver::RegisterAttribute(
    const std::string& name, PerceptualAttributeSpec spec) {
  const std::size_t position = attributes_.size();
  attributes_.try_emplace(name, Registered{position, {}})
      .first->second.spec = std::move(spec);
}

Status PerceptualExpansionResolver::Resolve(db::Table& table,
                                            const std::string& column_name) {
  auto it = attributes_.find(column_name);
  if (it == attributes_.end()) {
    return Status::NotFound("attribute not registered for expansion: " +
                            column_name);
  }
  // Every expansion of a registered attribute replaces last_result_, whose
  // status is then the one the query gets.
  last_result_ = SchemaExpansionResult{};
  const PerceptualAttributeSpec& spec = it->second.spec;
  // Row i of the table corresponds to item i of the space; the table may
  // be a prefix (items already embedded but not yet inserted into the DB).
  if (table.num_rows() > space_->num_items()) {
    last_result_.status = Status::FailedPrecondition(
        "table has rows beyond the perceptual space");
  } else if (spec.type == db::ColumnType::kBool) {
    last_result_.status = ResolveBool(table, column_name, it->second);
  } else if (spec.type == db::ColumnType::kDouble) {
    last_result_.status = ResolveNumeric(table, column_name, it->second);
  } else {
    last_result_.status =
        Status::InvalidArgument("unsupported perceptual attribute type");
  }
  return last_result_.status;
}

Status PerceptualExpansionResolver::ResolveBool(
    db::Table& table, const std::string& column_name,
    const Registered& attribute) {
  const PerceptualAttributeSpec& spec = attribute.spec;
  if (spec.bool_truth == nullptr) {
    return Status::FailedPrecondition("no truth provider for " + column_name);
  }
  // Pick the gold sample and simulate the crowd labeling it.
  Rng rng(seed_ + 2 * attribute.position + 1);
  SchemaExpansionRequest request;
  request.attribute_name = column_name;
  request.extractor = spec.extractor;
  std::vector<bool> sample_truth;
  for (std::size_t index : rng.SampleWithoutReplacement(
           space_->num_items(),
           std::min(spec.gold_sample_size, space_->num_items()))) {
    const auto item = static_cast<std::uint32_t>(index);
    request.gold_sample_items.push_back(item);
    sample_truth.push_back(spec.bool_truth(item));
  }

  last_result_ = Expand(*space_, request, pool_, hit_config_, sample_truth,
                        ExpansionOptions{});
  if (!last_result_.status.ok()) return last_result_.status;
  audit_log_.push_back({column_name, db::ColumnType::kBool,
                        request.gold_sample_items.size(),
                        last_result_.gold_sample_classified,
                        last_result_.crowd_dollars,
                        last_result_.crowd_minutes});

  std::vector<db::Value> cells;
  cells.reserve(table.num_rows());
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    cells.emplace_back(static_cast<bool>(last_result_.values[row]));
  }
  return table.AddColumn({column_name, db::ColumnType::kBool},
                         std::move(cells));
}

Status PerceptualExpansionResolver::ResolveNumeric(
    db::Table& table, const std::string& column_name,
    const Registered& attribute) {
  const PerceptualAttributeSpec& spec = attribute.spec;
  if (spec.numeric_truth == nullptr) {
    return Status::FailedPrecondition("no truth provider for " + column_name);
  }
  // Numeric gold samples are simulated as trusted-expert judgments with
  // small noise (the crowd platform models Boolean HITs only; see
  // DESIGN.md on substitutions).
  Rng rng(seed_ + 2 * attribute.position + 2);
  std::vector<std::uint32_t> items;
  std::vector<double> judgments;
  for (std::size_t index : rng.SampleWithoutReplacement(
           space_->num_items(),
           std::min(spec.gold_sample_size, space_->num_items()))) {
    const auto item = static_cast<std::uint32_t>(index);
    items.push_back(item);
    judgments.push_back(spec.numeric_truth(item) + rng.Gaussian(0.0, 0.25));
  }

  // A sample the ε-SVR cannot learn from (every judgment inside the
  // ε-tube, as for one item) is the gold sample's failure, as in Expand.
  NumericAttributeExtractor extractor(spec.extractor);
  if (!extractor.Train(*space_, items, judgments)) {
    return Status::FailedPrecondition("numeric gold sample for '" +
                                      column_name +
                                      "' left the SVR no support vector");
  }
  const std::vector<double> extracted = extractor.ExtractAll(*space_);

  std::vector<db::Value> cells;
  cells.reserve(table.num_rows());
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    cells.emplace_back(extracted[row]);
  }
  last_result_.gold_sample_classified = items.size();
  audit_log_.push_back({column_name, db::ColumnType::kDouble, items.size(),
                        items.size(), 0.0, 0.0});
  return table.AddColumn({column_name, db::ColumnType::kDouble},
                         std::move(cells));
}

db::Table PerceptualExpansionResolver::AuditTable() const {
  db::Schema schema({{"attribute", db::ColumnType::kString},
                     {"type", db::ColumnType::kString},
                     {"gold_size", db::ColumnType::kInt},
                     {"classified", db::ColumnType::kInt},
                     {"dollars", db::ColumnType::kDouble},
                     {"minutes", db::ColumnType::kDouble}});
  db::Table table("expansion_audit", schema);
  for (const AuditRecord& record : audit_log_) {
    const Status status = table.AppendRow(
        {db::Value(record.attribute),
         db::Value(std::string(db::ColumnTypeName(record.type))),
         db::Value(static_cast<std::int64_t>(record.gold_sample_size)),
         db::Value(static_cast<std::int64_t>(record.gold_sample_classified)),
         db::Value(record.crowd_dollars), db::Value(record.crowd_minutes)});
    CCDB_CHECK(status.ok());
  }
  return table;
}

}  // namespace ccdb::core
