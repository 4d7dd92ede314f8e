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

db::Schema ConcatSchemas(const db::Schema& a, const db::Schema& b) {
  std::vector<db::ColumnSpec> specs = a.columns();
  for (const db::ColumnSpec& spec : b.columns()) {
    specs.push_back(spec);
  }
  return db::Schema(std::move(specs));
}

db::Schema SchemaOf(const db::PlanNode& node, const db::Catalog& catalog) {
  db::PlanSpec spec = node.Spec();
  std::vector<const db::PlanNode*> children = node.Children();
  switch (spec.kind) {
    case db::PlanKind::kScan:
    case db::PlanKind::kFilterScan:
      return catalog.Get(spec.table_name).table->schema();
    case db::PlanKind::kFilter:
    case db::PlanKind::kSort:
    case db::PlanKind::kLimit:
    case db::PlanKind::kTopN:
      return SchemaOf(*children[0], catalog);
    case db::PlanKind::kProject: {
      db::Schema child = SchemaOf(*children[0], catalog);
      std::vector<db::ColumnSpec> specs;
      specs.reserve(spec.exprs.size());
      for (size_t i = 0; i < spec.exprs.size(); ++i) {
        specs.push_back({spec.names[i], spec.exprs[i]->ResultType(child)});
      }
      return db::Schema(std::move(specs));
    }
    case db::PlanKind::kHashJoin:
      return ConcatSchemas(SchemaOf(*children[0], catalog),
                           SchemaOf(*children[1], catalog));
    case db::PlanKind::kAggregate: {
      db::Schema child = SchemaOf(*children[0], catalog);
      std::vector<db::ColumnSpec> specs;
      for (const std::string& g : spec.group_by) {
        specs.push_back(child.column(child.MustIndexOf(g)));
      }
      for (const db::AggSpec& agg : spec.aggregates) {
        specs.push_back({agg.output_name, db::AggOutputType(agg, child)});
      }
      return db::Schema(std::move(specs));
    }
  }
  return db::Schema();
}

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

db::Schema OutputSchema(const db::PlanNode& node,
                        const db::Catalog& catalog) {
  return SchemaOf(node, catalog);
}

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

double CardinalityEstimator::EstimateRows(const db::PlanNode& node,
                                          db::Schema* schema_out) const {
  SubtreeInfo info = Walk(node, nullptr);
  if (schema_out != nullptr) {
    *schema_out = std::move(info.schema);
  }
  return info.rows;
}

void CardinalityEstimator::EstimatePlan(
    const db::PlanNode& node, std::vector<NodeEstimate>* out) const {
  Walk(node, out);
}

CardinalityEstimator::SubtreeInfo CardinalityEstimator::Walk(
    const db::PlanNode& node, std::vector<NodeEstimate>* out) const {
  db::PlanSpec spec = node.Spec();
  std::vector<const db::PlanNode*> children = node.Children();
  std::vector<SubtreeInfo> child_info;
  child_info.reserve(children.size());
  for (const db::PlanNode* child : children) {
    child_info.push_back(Walk(*child, out));
  }

  SubtreeInfo info;
  double cost = 0.0;
  switch (spec.kind) {
    case db::PlanKind::kScan: {
      const db::Table& table = *stats_.catalog().Get(spec.table_name).table;
      info.schema = table.schema();
      info.rows = static_cast<double>(table.num_rows());
      cost = info.rows * model_.cpu_tuple_ns;
      break;
    }
    case db::PlanKind::kFilterScan: {
      const db::Table& table = *stats_.catalog().Get(spec.table_name).table;
      info.schema = table.schema();
      double base = static_cast<double>(table.num_rows());
      std::vector<db::ExprPtr> conjuncts;
      if (spec.predicate != nullptr) {
        spec.predicate->CollectConjuncts(&conjuncts, spec.predicate);
      }
      info.rows = base * Selectivity(spec.predicate, info.schema);
      cost = base * (model_.cpu_tuple_ns +
                     static_cast<double>(conjuncts.size()) *
                         model_.cpu_term_ns);
      break;
    }
    case db::PlanKind::kFilter: {
      info.schema = child_info[0].schema;
      std::vector<db::ExprPtr> conjuncts;
      if (spec.predicate != nullptr) {
        spec.predicate->CollectConjuncts(&conjuncts, spec.predicate);
      }
      info.rows =
          child_info[0].rows * Selectivity(spec.predicate, info.schema);
      cost = child_info[0].rows * static_cast<double>(
                 std::max<size_t>(conjuncts.size(), 1)) *
             model_.cpu_term_ns;
      break;
    }
    case db::PlanKind::kProject: {
      std::vector<db::ColumnSpec> specs;
      specs.reserve(spec.exprs.size());
      for (size_t i = 0; i < spec.exprs.size(); ++i) {
        specs.push_back(
            {spec.names[i], spec.exprs[i]->ResultType(child_info[0].schema)});
      }
      info.schema = db::Schema(std::move(specs));
      info.rows = child_info[0].rows;
      cost = child_info[0].rows *
             static_cast<double>(spec.exprs.size()) * model_.project_ns;
      break;
    }
    case db::PlanKind::kHashJoin: {
      info.schema =
          ConcatSchemas(child_info[0].schema, child_info[1].schema);
      double sel = 1.0;
      for (size_t k = 0; k < spec.left_keys.size(); ++k) {
        sel *= JoinSelectivity(spec.left_keys[k], child_info[0].rows,
                               spec.right_keys[k], child_info[1].rows);
      }
      info.rows =
          std::max(child_info[0].rows * child_info[1].rows * sel, 1.0);
      cost = model_.JoinCost(spec.join_algo.value_or(default_algo_),
                             child_info[0].rows, child_info[1].rows,
                             info.rows);
      break;
    }
    case db::PlanKind::kAggregate: {
      std::vector<db::ColumnSpec> specs;
      for (const std::string& g : spec.group_by) {
        specs.push_back(child_info[0].schema.column(
            child_info[0].schema.MustIndexOf(g)));
      }
      for (const db::AggSpec& agg : spec.aggregates) {
        specs.push_back(
            {agg.output_name, db::AggOutputType(agg, child_info[0].schema)});
      }
      info.schema = db::Schema(std::move(specs));
      if (spec.group_by.empty()) {
        info.rows = 1.0;
      } else {
        double groups = 1.0;
        for (const std::string& g : spec.group_by) {
          groups *= ColumnNdv(g, child_info[0].rows);
        }
        info.rows = std::clamp(groups, 1.0, std::max(child_info[0].rows,
                                                     1.0));
      }
      cost = child_info[0].rows * model_.agg_group_ns *
             static_cast<double>(std::max<size_t>(spec.aggregates.size(), 1));
      break;
    }
    case db::PlanKind::kSort: {
      info.schema = child_info[0].schema;
      info.rows = child_info[0].rows;
      cost = model_.SortCost(child_info[0].rows);
      break;
    }
    case db::PlanKind::kLimit: {
      info.schema = child_info[0].schema;
      info.rows =
          std::min(child_info[0].rows, static_cast<double>(spec.limit));
      cost = info.rows * model_.cpu_tuple_ns;
      break;
    }
    case db::PlanKind::kTopN: {
      info.schema = child_info[0].schema;
      info.rows =
          std::min(child_info[0].rows, static_cast<double>(spec.limit));
      cost = child_info[0].rows *
             Log2Ceil(static_cast<double>(spec.limit) + 2.0) *
             model_.sort_ns;
      break;
    }
  }

  if (out != nullptr) {
    NodeEstimate estimate;
    estimate.kind = spec.kind;
    estimate.op = OpName(spec.kind);
    estimate.rows_out = info.rows;
    estimate.cost_ns = cost;
    out->push_back(std::move(estimate));
  }
  return info;
}

}  // namespace opt
}  // namespace perfeval
