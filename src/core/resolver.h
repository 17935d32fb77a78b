#ifndef CCDB_CORE_RESOLVER_H_
#define CCDB_CORE_RESOLVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/expansion.h"
#include "core/perceptual_space.h"
#include "crowd/experiments.h"
#include "db/database.h"

namespace ccdb::core {

/// Supplies the simulated crowd's underlying opinion about an item for a
/// Boolean perceptual attribute (in a real deployment this is the human
/// worker; in the reproduction it is the synthetic world's ground truth).
using BoolTruthProvider = std::function<bool(std::uint32_t item)>;

/// Same for numeric attributes (e.g. a 0–10 humor judgment).
using NumericTruthProvider = std::function<double(std::uint32_t item)>;

/// Registration record for one expandable perceptual attribute.
struct PerceptualAttributeSpec {
  db::ColumnType type = db::ColumnType::kBool;
  BoolTruthProvider bool_truth;        // for kBool attributes
  NumericTruthProvider numeric_truth;  // for kDouble attributes
  /// Size of the crowd-sourced gold sample.
  std::size_t gold_sample_size = 100;
  ExtractorOptions extractor;
};

/// The paper's Figure 2 workflow as a db resolver: when a query references
/// a missing column that was registered as a perceptual attribute, the
/// resolver crowd-sources a small gold sample, trains an SVM/SVR extractor
/// over the perceptual space, and fills the whole column — query-driven
/// schema expansion. Row i of the table must correspond to item i of the
/// space.
class PerceptualExpansionResolver : public db::MissingAttributeResolver {
 public:
  /// `space` is borrowed and must outlive the resolver.
  PerceptualExpansionResolver(const PerceptualSpace* space,
                              crowd::WorkerPool pool,
                              crowd::HitRunConfig hit_config,
                              std::uint64_t seed = 77);

  /// Registers an attribute the resolver can materialize. The k-th name
  /// registered (from 0; registering a name again replaces its spec, not
  /// its place) draws its gold sample from Rng(seed + 2k + 1) if Boolean,
  /// Rng(seed + 2k + 2) if numeric, so registering another attribute
  /// changes no other attribute's sample.
  void RegisterAttribute(const std::string& name,
                         PerceptualAttributeSpec spec);

  /// db::MissingAttributeResolver: materializes `column_name` on `table`.
  /// NotFound for unregistered attributes, FailedPrecondition when the
  /// table's row count does not match the space.
  [[nodiscard]]
  Status Resolve(db::Table& table, const std::string& column_name) override;

  /// Crowd cost/time stats and status of the most recent expansion; its
  /// status is the one that expansion's Resolve returned.
  const SchemaExpansionResult& last_result() const { return last_result_; }

  /// One audit record per performed expansion — provenance for every
  /// materialized column (who paid what for which attribute when).
  struct AuditRecord {
    std::string attribute;
    db::ColumnType type = db::ColumnType::kBool;
    std::size_t gold_sample_size = 0;
    std::size_t gold_sample_classified = 0;
    double crowd_dollars = 0.0;
    double crowd_minutes = 0.0;
  };
  const std::vector<AuditRecord>& audit_log() const { return audit_log_; }

  /// Renders the audit log as a queryable table named
  /// "expansion_audit" (attribute, type, gold_size, classified, dollars,
  /// minutes).
  db::Table AuditTable() const;

 private:
  /// A registered attribute and its place in registration order.
  struct Registered {
    std::size_t position = 0;
    PerceptualAttributeSpec spec;
  };

  [[nodiscard]]
  Status ResolveBool(db::Table& table, const std::string& column_name,
                     const Registered& attribute);
  [[nodiscard]]
  Status ResolveNumeric(db::Table& table, const std::string& column_name,
                        const Registered& attribute);

  const PerceptualSpace* space_;
  crowd::WorkerPool pool_;
  crowd::HitRunConfig hit_config_;
  std::uint64_t seed_;
  std::map<std::string, Registered> attributes_;
  std::vector<AuditRecord> audit_log_;
  SchemaExpansionResult last_result_;
};

}  // namespace ccdb::core

#endif  // CCDB_CORE_RESOLVER_H_
