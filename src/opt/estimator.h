#ifndef PERFEVAL_OPT_ESTIMATOR_H_
#define PERFEVAL_OPT_ESTIMATOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "db/plan.h"
#include "db/table_stats.h"
#include "opt/cost_model.h"

namespace perfeval {
namespace opt {

/// A consistent snapshot of every catalog table's statistics, indexed by
/// column name: it pins one catalog version of `database`, so stats,
/// schemas and row counts all describe the same rows. Column names are
/// globally unique across this engine's workloads (TPC-H; the SQL planner
/// preserves base names); a name that does appear in two tables is
/// treated as unknown rather than guessing.
class StatsCatalog {
 public:
  explicit StatsCatalog(const db::Database& database);

  /// Stats of the base column named `name`, or nullptr when unknown
  /// (derived/renamed columns, ambiguous names).
  const db::ColumnStats* Column(const std::string& name) const;

  /// The pinned catalog version the stats were taken from.
  const db::Catalog& catalog() const { return *catalog_; }

 private:
  std::shared_ptr<const db::Catalog> catalog_;
  std::unordered_map<std::string, const db::ColumnStats*> by_column_;
};

/// One plan operator's estimate, emitted in the same post-order the
/// Profiler records OpTraces in, so estimated and actual rows/cost zip
/// positionally (every plan node traces).
struct NodeEstimate {
  db::PlanKind kind = db::PlanKind::kScan;
  std::string op;          ///< matches the trace name prefix ("HashJoin"...).
  double rows_out = 0.0;   ///< estimated output cardinality.
  double cost_ns = 0.0;    ///< estimated CPU cost of this node alone.
};

/// Cardinality and cost estimation over plan trees, from TableStats
/// (histograms, NDV, null fractions) and the CostModel. Pure functions of
/// the plan and the statistics snapshot — deterministic by construction.
class CardinalityEstimator {
 public:
  /// Base tables resolve through the catalog version `stats` pinned.
  CardinalityEstimator(const StatsCatalog& stats, const CostModel& model,
                       db::JoinAlgo default_algo = db::JoinAlgo::kRadix);

  /// Estimated output rows of the subtree rooted at `node`.
  double EstimateRows(const db::PlanNode& node) const;

  /// Selectivity in [0, 1] of `predicate` over rows of `input` — the
  /// product over top-level conjuncts of per-conjunct estimates
  /// (histogram/NDV for simple predicates, NDV for column equalities,
  /// a quarter for anything opaque).
  double Selectivity(const db::ExprPtr& predicate,
                     const db::Schema& input) const;

  /// Selectivity of the equi-join edge `left_col = right_col`:
  /// 1 / max(ndv(left), ndv(right)), with each NDV clamped to its side's
  /// row count and falling back to the row count when unknown.
  double JoinSelectivity(const std::string& left_col, double left_rows,
                         const std::string& right_col,
                         double right_rows) const;

  /// NDV of base column `name` clamped to `rows`; `rows` when unknown.
  double ColumnNdv(const std::string& name, double rows) const;

  /// Appends one NodeEstimate per plan node in post-order (children
  /// first) — positionally aligned with Profiler::traces() of a run of
  /// the same plan.
  void EstimatePlan(const db::PlanNode& node,
                    std::vector<NodeEstimate>* out) const;

  const CostModel& model() const { return model_; }

 private:
  /// Estimated output rows of `node`; appends estimates to `out` when
  /// non-null.
  double Walk(const db::PlanNode& node,
              std::vector<NodeEstimate>* out) const;

  const StatsCatalog& stats_;
  CostModel model_;
  db::JoinAlgo default_algo_;
};

}  // namespace opt
}  // namespace perfeval

#endif  // PERFEVAL_OPT_ESTIMATOR_H_
