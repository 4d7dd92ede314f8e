#include "sql/planner.h"

#include <map>
#include <set>

#include "common/string_util.h"
#include "db/error.h"
#include "opt/optimizer.h"
#include "sql/parser.h"

namespace perfeval {
namespace sql {
namespace {

using db::PlanPtr;
using db::Schema;

Status ErrorAt(const AstExpr& node, const std::string& message) {
  return Status::InvalidArgument(
      StrFormat("%s (at offset %zu)", message.c_str(), node.offset));
}

/// Collects every column name referenced under `node`.
void CollectColumns(const AstExprPtr& node, std::set<std::string>* out) {
  if (node == nullptr) {
    return;
  }
  if (node->kind == AstExprKind::kColumn) {
    out->insert(node->text);
  }
  for (const AstExprPtr& child : node->children) {
    CollectColumns(child, out);
  }
}

/// Collects kAgg nodes in evaluation order.
void CollectAggregates(const AstExprPtr& node,
                       std::vector<AstExprPtr>* out) {
  if (node == nullptr) {
    return;
  }
  if (node->kind == AstExprKind::kAgg) {
    out->push_back(node);
    return;  // aggregates do not nest.
  }
  for (const AstExprPtr& child : node->children) {
    CollectAggregates(child, out);
  }
}

/// Splits a predicate into its top-level AND conjuncts.
void SplitConjuncts(const AstExprPtr& node, std::vector<AstExprPtr>* out) {
  if (node == nullptr) {
    return;
  }
  if (node->kind == AstExprKind::kBinary && node->text == "AND") {
    SplitConjuncts(node->children[0], out);
    SplitConjuncts(node->children[1], out);
    return;
  }
  out->push_back(node);
}

AstExprPtr JoinConjuncts(const std::vector<AstExprPtr>& conjuncts) {
  AstExprPtr result;
  for (const AstExprPtr& conjunct : conjuncts) {
    if (!result) {
      result = conjunct;
      continue;
    }
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExprKind::kBinary;
    node->text = "AND";
    node->offset = conjunct->offset;
    node->children = {result, conjunct};
    result = node;
  }
  return result;
}

/// Binds a scalar AST expression against `schema`. `agg_names` maps
/// aggregate nodes to output-column names in `schema` (empty for pre-
/// aggregation binding, where encountering an aggregate is an error).
Result<db::ExprPtr> BindScalar(
    const AstExprPtr& node, const Schema& schema,
    const std::map<const AstExpr*, std::string>& agg_names) {
  switch (node->kind) {
    case AstExprKind::kColumn: {
      if (schema.IndexOf(node->text) < 0) {
        return ErrorAt(*node, "unknown column '" + node->text + "'");
      }
      return db::Col(schema, node->text);
    }
    case AstExprKind::kIntLit:
      return db::LitInt(node->int_value);
    case AstExprKind::kDoubleLit:
      return db::LitDouble(node->double_value);
    case AstExprKind::kStringLit:
      return db::LitString(node->text);
    case AstExprKind::kDateLit: {
      int32_t days = 0;
      if (!db::ParseDate(node->text, &days)) {
        return ErrorAt(*node, "bad date literal '" + node->text + "'");
      }
      return db::LitDate(node->text);
    }
    case AstExprKind::kNullLit:
      return ErrorAt(*node, "NULL literal is only allowed in INSERT VALUES");
    case AstExprKind::kBinary: {
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr lhs, BindScalar(node->children[0], schema, agg_names));
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr rhs, BindScalar(node->children[1], schema, agg_names));
      const std::string& op = node->text;
      if (op == "AND") {
        return db::And(lhs, rhs);
      }
      if (op == "OR") {
        return db::Or(lhs, rhs);
      }
      if (op == "=") {
        return db::Eq(lhs, rhs);
      }
      if (op == "<>") {
        return db::Ne(lhs, rhs);
      }
      if (op == "<") {
        return db::Lt(lhs, rhs);
      }
      if (op == "<=") {
        return db::Le(lhs, rhs);
      }
      if (op == ">") {
        return db::Gt(lhs, rhs);
      }
      if (op == ">=") {
        return db::Ge(lhs, rhs);
      }
      if (op == "+") {
        return db::Add(lhs, rhs);
      }
      if (op == "-") {
        return db::Sub(lhs, rhs);
      }
      if (op == "*") {
        return db::Mul(lhs, rhs);
      }
      if (op == "/") {
        return db::Div(lhs, rhs);
      }
      return ErrorAt(*node, "unsupported operator '" + op + "'");
    }
    case AstExprKind::kNot: {
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr operand,
          BindScalar(node->children[0], schema, agg_names));
      return db::Not(operand);
    }
    case AstExprKind::kLike: {
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr operand,
          BindScalar(node->children[0], schema, agg_names));
      return db::Like(operand, node->text);
    }
    case AstExprKind::kInList: {
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr operand,
          BindScalar(node->children[0], schema, agg_names));
      if (!node->string_list.empty()) {
        return db::InStrings(operand, node->string_list);
      }
      return db::InInts(operand, node->int_list);
    }
    case AstExprKind::kBetween: {
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr operand,
          BindScalar(node->children[0], schema, agg_names));
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr lo, BindScalar(node->children[1], schema, agg_names));
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr hi, BindScalar(node->children[2], schema, agg_names));
      return db::And(db::Ge(operand, lo), db::Le(operand, hi));
    }
    case AstExprKind::kCase: {
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr condition,
          BindScalar(node->children[0], schema, agg_names));
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr then_expr,
          BindScalar(node->children[1], schema, agg_names));
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr else_expr,
          BindScalar(node->children[2], schema, agg_names));
      return db::If(condition, then_expr, else_expr);
    }
    case AstExprKind::kFunc: {
      if (node->text == "year") {
        if (node->children.size() != 1) {
          return ErrorAt(*node, "year() takes one argument");
        }
        PERFEVAL_ASSIGN_OR_RETURN(
            db::ExprPtr arg,
            BindScalar(node->children[0], schema, agg_names));
        return db::Year(arg);
      }
      if (node->text == "substr" || node->text == "substring") {
        if (node->children.size() != 3 ||
            node->children[1]->kind != AstExprKind::kIntLit ||
            node->children[2]->kind != AstExprKind::kIntLit) {
          return ErrorAt(*node,
                         "substr() takes (expr, int position, int length)");
        }
        PERFEVAL_ASSIGN_OR_RETURN(
            db::ExprPtr arg,
            BindScalar(node->children[0], schema, agg_names));
        return db::Substr(arg,
                          static_cast<size_t>(node->children[1]->int_value),
                          static_cast<size_t>(node->children[2]->int_value));
      }
      return ErrorAt(*node, "unknown function '" + node->text + "'");
    }
    case AstExprKind::kAgg: {
      auto it = agg_names.find(node.get());
      if (it == agg_names.end()) {
        return ErrorAt(*node,
                       "aggregate not allowed here (no GROUP BY context)");
      }
      return db::Col(schema, it->second);
    }
  }
  return ErrorAt(*node, "unsupported expression");
}

/// Default output name of a select item: alias, bare column name, or a
/// positional fallback.
std::string ItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) {
    return item.alias;
  }
  if (item.expr->kind == AstExprKind::kColumn) {
    return item.expr->text;
  }
  if (item.expr->kind == AstExprKind::kAgg) {
    return item.expr->text + "_" + std::to_string(index + 1);
  }
  return "expr_" + std::to_string(index + 1);
}

db::AggOp AggOpFor(const AstExpr& node) {
  if (node.text == "sum") {
    return db::AggOp::kSum;
  }
  if (node.text == "avg") {
    return db::AggOp::kAvg;
  }
  if (node.text == "min") {
    return db::AggOp::kMin;
  }
  if (node.text == "max") {
    return db::AggOp::kMax;
  }
  return node.distinct ? db::AggOp::kCountDistinct : db::AggOp::kCount;
}

/// The planner proper; holds the statement and catalog.
class Planner {
 public:
  Planner(const SelectStatement& statement, const db::Database& database)
      : stmt_(statement), catalog_(database.catalog()) {}

  Result<PlannedQuery> Plan() {
    PERFEVAL_RETURN_IF_ERROR(ResolveTables());
    PERFEVAL_ASSIGN_OR_RETURN(PlanPtr plan, BuildJoinedInput());
    PERFEVAL_RETURN_IF_ERROR(ApplyResidualWhere(&plan));
    bool is_aggregate = !stmt_.group_by.empty() || HasAggregates();
    if (is_aggregate) {
      PERFEVAL_RETURN_IF_ERROR(ApplyAggregation(&plan));
    } else {
      if (stmt_.having != nullptr) {
        return Status::InvalidArgument(
            "HAVING requires GROUP BY or aggregates");
      }
    }
    PERFEVAL_RETURN_IF_ERROR(ApplyOrderProjectLimit(&plan, is_aggregate));
    PlannedQuery out;
    out.plan = std::move(plan);
    out.explain = stmt_.explain;
    return out;
  }

 private:
  /// All tables in FROM/JOIN order with their schemas, plus the
  /// column-name -> table index map (must be unambiguous).
  Status ResolveTables() {
    tables_.push_back(stmt_.from_table);
    for (const JoinClause& join : stmt_.joins) {
      tables_.push_back(join.table);
    }
    for (size_t t = 0; t < tables_.size(); ++t) {
      const std::string& table = tables_[t];
      if (catalog_->Find(table) == nullptr) {
        return Status::NotFound("no table named '" + table + "'");
      }
      const Schema& schema = catalog_->Get(table).table->schema();
      for (const db::ColumnSpec& column : schema.columns()) {
        auto [it, inserted] = column_table_.try_emplace(column.name, t);
        if (!inserted && tables_[it->second] != table) {
          return Status::InvalidArgument(
              "ambiguous column name '" + column.name + "' (in both " +
              tables_[it->second] + " and " + table + ")");
        }
      }
    }
    return Status::OK();
  }

  bool HasAggregates() const {
    std::vector<AstExprPtr> aggs;
    for (const SelectItem& item : stmt_.items) {
      CollectAggregates(item.expr, &aggs);
    }
    CollectAggregates(stmt_.having, &aggs);
    return !aggs.empty();
  }

  /// Which base table (index) a conjunct references, or -1 when it spans
  /// several / references unknown names.
  int SingleTableOf(const AstExprPtr& conjunct) const {
    std::set<std::string> columns;
    CollectColumns(conjunct, &columns);
    int table = -1;
    for (const std::string& column : columns) {
      auto it = column_table_.find(column);
      if (it == column_table_.end()) {
        return -1;
      }
      if (table >= 0 && static_cast<size_t>(table) != it->second) {
        return -1;
      }
      table = static_cast<int>(it->second);
    }
    return table;
  }

  /// Columns of base table `index` referenced anywhere in the statement.
  std::vector<std::string> UsedColumnsOf(size_t index) const {
    std::set<std::string> all;
    for (const SelectItem& item : stmt_.items) {
      CollectColumns(item.expr, &all);
    }
    CollectColumns(stmt_.where, &all);
    for (const JoinClause& join : stmt_.joins) {
      CollectColumns(join.condition, &all);
    }
    for (const std::string& g : stmt_.group_by) {
      all.insert(g);
    }
    CollectColumns(stmt_.having, &all);
    for (const OrderItem& item : stmt_.order_by) {
      all.insert(item.column);
    }
    std::vector<std::string> out;
    for (const std::string& column : all) {
      auto it = column_table_.find(column);
      if (it != column_table_.end() && it->second == index) {
        out.push_back(column);
      }
    }
    return out;
  }

  /// Builds the scans (with pushed-down single-table predicates) and the
  /// left-deep join tree; stores residual WHERE conjuncts in residual_.
  Result<PlanPtr> BuildJoinedInput() {
    std::vector<AstExprPtr> where_conjuncts;
    SplitConjuncts(stmt_.where, &where_conjuncts);
    std::vector<std::vector<AstExprPtr>> pushed(tables_.size());
    for (const AstExprPtr& conjunct : where_conjuncts) {
      int table = SingleTableOf(conjunct);
      if (table >= 0) {
        pushed[static_cast<size_t>(table)].push_back(conjunct);
      } else {
        residual_.push_back(conjunct);
      }
    }

    auto build_base = [&](size_t index) -> Result<PlanPtr> {
      const std::string& name = tables_[index];
      const Schema& schema = catalog_->Get(name).table->schema();
      std::vector<std::string> used = UsedColumnsOf(index);
      if (used.empty()) {
        // A table joined only for its existence still reads its keys via
        // the join condition; empty means "select * from t" style.
        for (const db::ColumnSpec& column : schema.columns()) {
          used.push_back(column.name);
        }
      }
      if (pushed[index].empty()) {
        return db::Scan(name, schema, used);
      }
      AstExprPtr predicate = JoinConjuncts(pushed[index]);
      PERFEVAL_ASSIGN_OR_RETURN(db::ExprPtr bound,
                                BindScalar(predicate, schema, {}));
      return db::FilterScan(name, schema, used, bound);
    };

    PERFEVAL_ASSIGN_OR_RETURN(PlanPtr current, build_base(0));
    for (size_t j = 0; j < stmt_.joins.size(); ++j) {
      PERFEVAL_ASSIGN_OR_RETURN(PlanPtr right, build_base(j + 1));
      PERFEVAL_ASSIGN_OR_RETURN(
          current, BuildJoin(current, right, stmt_.joins[j]));
    }
    return current;
  }

  /// One JOIN: extract 1-2 column equalities, keep the rest as filters.
  Result<PlanPtr> BuildJoin(const PlanPtr& left, const PlanPtr& right,
                            const JoinClause& join) {
    std::vector<AstExprPtr> conjuncts;
    SplitConjuncts(join.condition, &conjuncts);
    std::vector<std::pair<std::string, std::string>> equalities;
    std::vector<AstExprPtr> join_residual;
    for (const AstExprPtr& conjunct : conjuncts) {
      bool is_equality =
          conjunct->kind == AstExprKind::kBinary && conjunct->text == "=" &&
          conjunct->children[0]->kind == AstExprKind::kColumn &&
          conjunct->children[1]->kind == AstExprKind::kColumn;
      if (!is_equality) {
        join_residual.push_back(conjunct);
        continue;
      }
      std::string a = conjunct->children[0]->text;
      std::string b = conjunct->children[1]->text;
      bool a_left = left->schema().IndexOf(a) >= 0;
      bool a_right = right->schema().IndexOf(a) >= 0;
      bool b_left = left->schema().IndexOf(b) >= 0;
      bool b_right = right->schema().IndexOf(b) >= 0;
      if (a_left && b_right) {
        equalities.emplace_back(a, b);
      } else if (b_left && a_right) {
        equalities.emplace_back(b, a);
      } else {
        return ErrorAt(*conjunct,
                       "join condition must compare a column of each side");
      }
    }
    if (equalities.empty() || equalities.size() > 2) {
      return ErrorAt(*join.condition,
                     "JOIN needs one or two column equalities");
    }
    std::vector<std::string> left_keys;
    std::vector<std::string> right_keys;
    for (const auto& [left_key, right_key] : equalities) {
      left_keys.push_back(left_key);
      right_keys.push_back(right_key);
    }
    PlanPtr joined = db::HashJoinWith(left, right, std::move(left_keys),
                                      std::move(right_keys), std::nullopt);
    if (!join_residual.empty()) {
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr bound,
          BindScalar(JoinConjuncts(join_residual), joined->schema(), {}));
      joined = db::Filter(joined, bound);
    }
    return joined;
  }

  Status ApplyResidualWhere(PlanPtr* plan) {
    if (residual_.empty()) {
      return Status::OK();
    }
    PERFEVAL_ASSIGN_OR_RETURN(
        db::ExprPtr predicate,
        BindScalar(JoinConjuncts(residual_), (*plan)->schema(), {}));
    *plan = db::Filter(*plan, predicate);
    return Status::OK();
  }

  /// Extracts aggregates from SELECT and HAVING, builds the Aggregate
  /// node, applies HAVING, and projects the SELECT list over the result.
  /// GROUP BY keys may be base columns or aliases of computed select items
  /// (e.g. `year(o_orderdate) AS y ... GROUP BY y`); computed keys are
  /// materialized by a pre-aggregation projection.
  Status ApplyAggregation(PlanPtr* plan) {
    PERFEVAL_RETURN_IF_ERROR(MaterializeComputedGroupKeys(plan));
    // Validate group-by columns.
    for (const std::string& g : stmt_.group_by) {
      if ((*plan)->schema().IndexOf(g) < 0) {
        return Status::InvalidArgument("unknown GROUP BY column '" + g +
                                       "'");
      }
    }
    // Collect aggregates from SELECT items and HAVING.
    std::vector<AstExprPtr> agg_nodes;
    for (const SelectItem& item : stmt_.items) {
      CollectAggregates(item.expr, &agg_nodes);
    }
    CollectAggregates(stmt_.having, &agg_nodes);
    if (agg_nodes.empty() && stmt_.group_by.empty()) {
      return Status::InvalidArgument("aggregate query without aggregates");
    }
    // Non-aggregate select items must be (or be built from) group keys.
    for (size_t i = 0; i < stmt_.items.size(); ++i) {
      const SelectItem& item = stmt_.items[i];
      std::vector<AstExprPtr> in_item;
      CollectAggregates(item.expr, &in_item);
      if (!in_item.empty()) {
        continue;
      }
      bool is_group_key = false;
      for (const std::string& g : stmt_.group_by) {
        is_group_key |= g == ItemName(item, i);
      }
      if (is_group_key) {
        continue;  // materialized by the pre-aggregation projection.
      }
      std::set<std::string> columns;
      CollectColumns(item.expr, &columns);
      for (const std::string& column : columns) {
        bool grouped = false;
        for (const std::string& g : stmt_.group_by) {
          grouped |= g == column;
        }
        if (!grouped) {
          return ErrorAt(*item.expr,
                         "column '" + column +
                             "' must appear in GROUP BY or inside an "
                             "aggregate");
        }
      }
    }

    // Build agg specs; name each occurrence. A bare aggregate select item
    // takes its alias/default name so HAVING/ORDER BY can reference it.
    std::map<const AstExpr*, std::string> agg_names;
    std::vector<db::AggSpec> specs;
    size_t counter = 0;
    for (size_t i = 0; i < stmt_.items.size(); ++i) {
      const SelectItem& item = stmt_.items[i];
      if (item.expr->kind == AstExprKind::kAgg) {
        agg_names[item.expr.get()] = ItemName(item, i);
      }
    }
    for (const AstExprPtr& node : agg_nodes) {
      std::string name;
      auto it = agg_names.find(node.get());
      if (it != agg_names.end()) {
        name = it->second;
      } else {
        name = "agg_" + std::to_string(++counter);
        agg_names[node.get()] = name;
      }
      db::AggSpec spec;
      spec.op = AggOpFor(*node);
      spec.output_name = name;
      if (!node->children.empty()) {
        PERFEVAL_ASSIGN_OR_RETURN(
            spec.expr, BindScalar(node->children[0], (*plan)->schema(), {}));
      } else if (spec.op != db::AggOp::kCount) {
        return ErrorAt(*node, "aggregate needs an argument");
      }
      specs.push_back(std::move(spec));
    }

    *plan = db::Aggregate(*plan, stmt_.group_by, std::move(specs));

    if (stmt_.having != nullptr) {
      PERFEVAL_ASSIGN_OR_RETURN(
          db::ExprPtr having,
          BindScalar(stmt_.having, (*plan)->schema(), agg_names));
      *plan = db::Filter(*plan, having);
    }

    // Project the SELECT list over the aggregate output. Items whose name
    // is a group key reference the key column directly (it may have been
    // computed pre-aggregation).
    const Schema& aggregated = (*plan)->schema();
    std::vector<db::ExprPtr> exprs;
    std::vector<std::string> names;
    for (size_t i = 0; i < stmt_.items.size(); ++i) {
      const SelectItem& item = stmt_.items[i];
      std::string name = ItemName(item, i);
      bool is_group_key = false;
      for (const std::string& g : stmt_.group_by) {
        is_group_key |= g == name;
      }
      db::ExprPtr expr;
      if (is_group_key) {
        expr = db::Col(aggregated, name);
      } else {
        PERFEVAL_ASSIGN_OR_RETURN(
            expr, BindScalar(item.expr, aggregated, agg_names));
      }
      exprs.push_back(std::move(expr));
      names.push_back(std::move(name));
    }
    *plan = db::Project(*plan, std::move(exprs), std::move(names));
    return Status::OK();
  }

  /// For GROUP BY keys that are aliases of computed select items, inserts
  /// a projection that materializes them (keeping every existing column,
  /// which the scans already pruned to the used set).
  Status MaterializeComputedGroupKeys(PlanPtr* plan) {
    const Schema& input = (*plan)->schema();
    std::vector<std::pair<std::string, AstExprPtr>> computed;
    for (const std::string& g : stmt_.group_by) {
      if (input.IndexOf(g) >= 0) {
        continue;
      }
      const AstExprPtr* source = nullptr;
      for (size_t i = 0; i < stmt_.items.size(); ++i) {
        const SelectItem& item = stmt_.items[i];
        if (ItemName(item, i) != g) {
          continue;
        }
        std::vector<AstExprPtr> aggs;
        CollectAggregates(item.expr, &aggs);
        if (!aggs.empty()) {
          return ErrorAt(*item.expr,
                         "GROUP BY key '" + g + "' contains an aggregate");
        }
        source = &item.expr;
        break;
      }
      if (source == nullptr) {
        return Status::InvalidArgument("unknown GROUP BY column '" + g +
                                       "'");
      }
      computed.emplace_back(g, *source);
    }
    if (computed.empty()) {
      return Status::OK();
    }
    std::vector<db::ExprPtr> exprs;
    std::vector<std::string> names;
    for (const db::ColumnSpec& column : input.columns()) {
      exprs.push_back(db::Col(input, column.name));
      names.push_back(column.name);
    }
    for (const auto& [name, ast] : computed) {
      PERFEVAL_ASSIGN_OR_RETURN(db::ExprPtr expr,
                                BindScalar(ast, input, {}));
      exprs.push_back(std::move(expr));
      names.push_back(name);
    }
    *plan = db::Project(*plan, std::move(exprs), std::move(names));
    return Status::OK();
  }

  Status ApplyOrderProjectLimit(PlanPtr* plan, bool is_aggregate) {
    // Non-aggregate projection (aggregates already projected).
    if (!is_aggregate && !stmt_.select_star) {
      // ORDER BY keys that are not in the projected output must be sorted
      // before projecting.
      std::vector<std::string> names;
      for (size_t i = 0; i < stmt_.items.size(); ++i) {
        names.push_back(ItemName(stmt_.items[i], i));
      }
      bool order_needs_base = false;
      for (const OrderItem& item : stmt_.order_by) {
        bool in_output = false;
        for (const std::string& name : names) {
          in_output |= name == item.column;
        }
        order_needs_base |= !in_output;
      }
      if (order_needs_base && !stmt_.order_by.empty()) {
        PERFEVAL_RETURN_IF_ERROR(ApplySort(plan));
      }
      std::vector<db::ExprPtr> exprs;
      for (size_t i = 0; i < stmt_.items.size(); ++i) {
        PERFEVAL_ASSIGN_OR_RETURN(
            db::ExprPtr expr,
            BindScalar(stmt_.items[i].expr, (*plan)->schema(), {}));
        exprs.push_back(std::move(expr));
      }
      *plan = db::Project(*plan, std::move(exprs), std::move(names));
      if (!order_needs_base && !stmt_.order_by.empty()) {
        PERFEVAL_RETURN_IF_ERROR(ApplySort(plan));
      }
    } else if (!stmt_.order_by.empty()) {
      PERFEVAL_RETURN_IF_ERROR(ApplySort(plan));
    }
    if (stmt_.limit.has_value()) {
      *plan = db::Limit(*plan, *stmt_.limit);
    }
    return Status::OK();
  }

  Status ApplySort(PlanPtr* plan) {
    std::vector<db::SortKey> keys;
    for (const OrderItem& item : stmt_.order_by) {
      if ((*plan)->schema().IndexOf(item.column) < 0) {
        return Status::InvalidArgument("unknown ORDER BY column '" +
                                       item.column + "'");
      }
      keys.push_back({item.column, item.ascending});
    }
    *plan = db::Sort(*plan, std::move(keys));
    return Status::OK();
  }

  const SelectStatement& stmt_;
  /// One pinned catalog version for the whole statement, so schema
  /// references stay valid across a concurrent install.
  std::shared_ptr<const db::Catalog> catalog_;
  std::vector<std::string> tables_;
  std::map<std::string, size_t> column_table_;
  std::vector<AstExprPtr> residual_;
};

}  // namespace

Result<db::ExprPtr> BindWhereExpr(const AstExprPtr& expr,
                                  const db::Schema& schema) {
  return BindScalar(expr, schema, {});
}

Result<PlannedQuery> PlanStatement(const SelectStatement& statement,
                                   const db::Database& database) {
  Planner planner(statement, database);
  Result<PlannedQuery> planned = planner.Plan();
  // Opt-in cost-based optimization (`\opt on`): hand the
  // rule-built plan to the optimizer, which re-derives join order and
  // pins a join algorithm per node from the table statistics. EXPLAIN
  // shows the optimized tree; results are oracle-diffed identical.
  if (planned.ok() && database.optimize()) {
    planned.value().plan = opt::Optimize(planned.value().plan, database).plan;
  }
  return planned;
}

Result<PlannedQuery> PlanQuery(const std::string& sql_text,
                               const db::Database& database) {
  PERFEVAL_ASSIGN_OR_RETURN(SelectStatement statement, Parse(sql_text));
  return PlanStatement(statement, database);
}

Result<db::QueryResult> RunQuery(const std::string& sql_text,
                                 db::Database& database, db::ExecMode mode,
                                 db::SinkKind sink) {
  PERFEVAL_ASSIGN_OR_RETURN(PlannedQuery planned,
                            PlanQuery(sql_text, database));
  if (planned.explain) {
    db::QueryResult result;
    auto table = std::make_shared<db::Table>(
        Schema({{"plan", db::DataType::kString}}));
    for (const std::string& line : Split(db::Explain(planned.plan), '\n')) {
      if (!line.empty()) {
        table->AppendRow({db::Value::String(line)});
      }
    }
    result.table = table;
    return result;
  }
  // Execution errors (checked-arithmetic overflow, checked-mode invariant
  // violations, NULL join keys) surface as QueryError exceptions from deep
  // inside operator loops; convert them back to Status at the API boundary.
  try {
    return database.Run(planned.plan, mode, sink);
  } catch (const db::QueryError& e) {
    return e.ToStatus();
  }
}

}  // namespace sql
}  // namespace perfeval
