#include "opt/estimator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace perfeval {
namespace opt {

namespace {

// Textbook (Selinger) fallbacks for predicates the statistics cannot see.
constexpr double kDefaultEqSel = 0.1;
constexpr double kDefaultRangeSel = 1.0 / 3.0;
constexpr double kDefaultOpaqueSel = 0.25;

double Log2Ceil(double n) { return n <= 2.0 ? 1.0 : std::log2(n); }

const char* OpName(db::PlanKind kind) {
  switch (kind) {
    case db::PlanKind::kScan:
      return "Scan";
    case db::PlanKind::kFilterScan:
      return "FilterScan";
    case db::PlanKind::kFilter:
      return "Filter";
    case db::PlanKind::kProject:
      return "Project";
    case db::PlanKind::kHashJoin:
      return "HashJoin";
    case db::PlanKind::kAggregate:
      return "Aggregate";
    case db::PlanKind::kSort:
      return "Sort";
    case db::PlanKind::kLimit:
      return "Limit";
    case db::PlanKind::kTopN:
      return "TopN";
  }
  return "Unknown";
}

}  // namespace

StatsCatalog::StatsCatalog(const db::Database& database)
    : catalog_(database.catalog()) {
  for (const std::string& table : catalog_->names()) {
    for (const db::ColumnStats& column : catalog_->Get(table).stats.columns) {
      auto [it, inserted] = by_column_.try_emplace(column.name, &column);
      if (!inserted) {
        it->second = nullptr;  // ambiguous name: refuse to guess.
      }
    }
  }
}

const db::ColumnStats* StatsCatalog::Column(const std::string& name) const {
  auto it = by_column_.find(name);
  return it == by_column_.end() ? nullptr : it->second;
}

CardinalityEstimator::CardinalityEstimator(const StatsCatalog& stats,
                                           const CostModel& model,
                                           db::JoinAlgo default_algo)
    : stats_(stats), model_(model), default_algo_(default_algo) {}

double CardinalityEstimator::ColumnNdv(const std::string& name,
                                       double rows) const {
  const db::ColumnStats* s = stats_.Column(name);
  if (s == nullptr || s->distinct == 0) {
    return std::max(rows, 1.0);
  }
  return std::clamp(static_cast<double>(s->distinct), 1.0,
                    std::max(rows, 1.0));
}

double CardinalityEstimator::JoinSelectivity(const std::string& left_col,
                                             double left_rows,
                                             const std::string& right_col,
                                             double right_rows) const {
  double ndv = std::max(ColumnNdv(left_col, left_rows),
                        ColumnNdv(right_col, right_rows));
  return 1.0 / std::max(ndv, 1.0);
}

double CardinalityEstimator::Selectivity(const db::ExprPtr& predicate,
                                         const db::Schema& input) const {
  if (predicate == nullptr) {
    return 1.0;
  }
  std::vector<db::ExprPtr> conjuncts;
  predicate->CollectConjuncts(&conjuncts, predicate);
  double sel = 1.0;
  for (const db::ExprPtr& conjunct : conjuncts) {
    db::SimplePredicate simple;
    size_t eq_left = 0;
    size_t eq_right = 0;
    double term;
    if (conjunct->AsSimplePredicate(&simple)) {
      const db::ColumnStats* s =
          simple.column < input.num_columns()
              ? stats_.Column(input.column(simple.column).name)
              : nullptr;
      if (s != nullptr) {
        term = s->Selectivity(simple.op, simple.value);
      } else {
        term = simple.op == db::CmpOp::kEq    ? kDefaultEqSel
               : simple.op == db::CmpOp::kNe ? 1.0 - kDefaultEqSel
                                             : kDefaultRangeSel;
      }
    } else if (conjunct->AsColumnEquality(&eq_left, &eq_right) &&
               eq_left < input.num_columns() &&
               eq_right < input.num_columns()) {
      double ndv = std::max(ColumnNdv(input.column(eq_left).name, 1.0),
                            ColumnNdv(input.column(eq_right).name, 1.0));
      term = ndv > 1.0 ? 1.0 / ndv : kDefaultEqSel;
    } else {
      term = kDefaultOpaqueSel;
    }
    sel *= std::clamp(term, 0.0, 1.0);
  }
  return std::clamp(sel, 0.0, 1.0);
}

double CardinalityEstimator::EstimateRows(const db::PlanNode& node) const {
  return Walk(node, nullptr);
}

void CardinalityEstimator::EstimatePlan(
    const db::PlanNode& node, std::vector<NodeEstimate>* out) const {
  Walk(node, out);
}

double CardinalityEstimator::Walk(const db::PlanNode& node,
                                  std::vector<NodeEstimate>* out) const {
  db::PlanSpec spec = node.Spec();
  std::vector<const db::PlanNode*> children = node.Children();
  std::vector<double> child_rows;
  child_rows.reserve(children.size());
  for (const db::PlanNode* child : children) {
    child_rows.push_back(Walk(*child, out));
  }

  double rows = 0.0;
  double cost = 0.0;
  switch (spec.kind) {
    case db::PlanKind::kScan: {
      const db::Table& table = *stats_.catalog().Get(spec.table_name).table;
      rows = static_cast<double>(table.num_rows());
      cost = rows * model_.cpu_tuple_ns;
      break;
    }
    case db::PlanKind::kFilterScan: {
      const db::Table& table = *stats_.catalog().Get(spec.table_name).table;
      double base = static_cast<double>(table.num_rows());
      std::vector<db::ExprPtr> conjuncts;
      if (spec.predicate != nullptr) {
        spec.predicate->CollectConjuncts(&conjuncts, spec.predicate);
      }
      rows = base * Selectivity(spec.predicate, node.schema());
      cost = base * (model_.cpu_tuple_ns +
                     static_cast<double>(conjuncts.size()) *
                         model_.cpu_term_ns);
      break;
    }
    case db::PlanKind::kFilter: {
      std::vector<db::ExprPtr> conjuncts;
      if (spec.predicate != nullptr) {
        spec.predicate->CollectConjuncts(&conjuncts, spec.predicate);
      }
      rows = child_rows[0] * Selectivity(spec.predicate, node.schema());
      cost = child_rows[0] * static_cast<double>(
                 std::max<size_t>(conjuncts.size(), 1)) *
             model_.cpu_term_ns;
      break;
    }
    case db::PlanKind::kProject: {
      rows = child_rows[0];
      cost = child_rows[0] *
             static_cast<double>(spec.exprs.size()) * model_.project_ns;
      break;
    }
    case db::PlanKind::kHashJoin: {
      double sel = 1.0;
      for (size_t k = 0; k < spec.left_keys.size(); ++k) {
        sel *= JoinSelectivity(spec.left_keys[k], child_rows[0],
                               spec.right_keys[k], child_rows[1]);
      }
      rows = std::max(child_rows[0] * child_rows[1] * sel, 1.0);
      cost = model_.JoinCost(spec.join_algo.value_or(default_algo_),
                             child_rows[0], child_rows[1], rows);
      break;
    }
    case db::PlanKind::kAggregate: {
      if (spec.group_by.empty()) {
        rows = 1.0;
      } else {
        double groups = 1.0;
        for (const std::string& g : spec.group_by) {
          groups *= ColumnNdv(g, child_rows[0]);
        }
        rows = std::clamp(groups, 1.0, std::max(child_rows[0], 1.0));
      }
      cost = child_rows[0] * model_.agg_group_ns *
             static_cast<double>(std::max<size_t>(spec.aggregates.size(), 1));
      break;
    }
    case db::PlanKind::kSort: {
      rows = child_rows[0];
      cost = model_.SortCost(child_rows[0]);
      break;
    }
    case db::PlanKind::kLimit: {
      rows = std::min(child_rows[0], static_cast<double>(spec.limit));
      cost = rows * model_.cpu_tuple_ns;
      break;
    }
    case db::PlanKind::kTopN: {
      rows = std::min(child_rows[0], static_cast<double>(spec.limit));
      cost = child_rows[0] *
             Log2Ceil(static_cast<double>(spec.limit) + 2.0) *
             model_.sort_ns;
      break;
    }
  }

  if (out != nullptr) {
    NodeEstimate estimate;
    estimate.kind = spec.kind;
    estimate.op = OpName(spec.kind);
    estimate.rows_out = rows;
    estimate.cost_ns = cost;
    out->push_back(std::move(estimate));
  }
  return rows;
}

}  // namespace opt
}  // namespace perfeval
