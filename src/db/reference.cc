#include "db/reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "db/database.h"
#include "db/error.h"
#include "db/invariants.h"
#include "db/sort.h"

namespace perfeval {
namespace db {
namespace {

using TablePtr = std::shared_ptr<const Table>;

/// Materializes `rows` of `in` into a fresh table, one Value at a time
/// (NULLs ride along through AppendValue).
TablePtr GatherAll(const Table& in, const std::vector<uint32_t>& rows) {
  auto out = std::make_shared<Table>(in.schema());
  out->ReserveRows(rows.size());
  for (size_t c = 0; c < in.num_columns(); ++c) {
    Column& dst = out->column(c);
    const Column& src = in.column(c);
    for (uint32_t r : rows) {
      dst.AppendValue(src.GetValue(r));
    }
  }
  out->FinishBulkLoad();
  return out;
}

/// Filters with the plain row loop: EvalBool already implements the
/// engine's semantics (Kleene 3VL inside the tree, UNKNOWN → not
/// selected at this boundary).
TablePtr FilterRows(const TablePtr& in, const Expr& predicate) {
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < in->num_rows(); ++r) {
    if (predicate.EvalBool(*in, r)) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return GatherAll(*in, rows);
}

int64_t JoinKeyAt(const Column& column, uint32_t row,
                  const std::string& name) {
  if (column.type() != DataType::kInt64) {
    throw QueryError(StatusCode::kInvalidArgument,
                     "join key column " + name + " is not int64");
  }
  if (column.IsNull(row)) {
    throw QueryError(StatusCode::kInvalidArgument,
                     "join key column " + name + " contains NULL (row " +
                         std::to_string(row) +
                         "); NULL join keys are unsupported");
  }
  return column.GetInt64(row);
}

/// Naive equi-join on 1 or 2 int64 key columns: build a key → row-list map
/// from the right side, probe left rows in order. Match order is
/// left-major, right rows in table order — result comparisons that care
/// about order must impose one (ORDER BY) or ignore it.
TablePtr JoinTables(const TablePtr& left, const TablePtr& right,
                    const std::vector<std::string>& left_keys,
                    const std::vector<std::string>& right_keys) {
  using Key = std::pair<int64_t, int64_t>;
  std::map<Key, std::vector<uint32_t>> build;
  const Column& rk0 = right->ColumnByName(right_keys[0]);
  const Column* rk1 =
      right_keys.size() > 1 ? &right->ColumnByName(right_keys[1]) : nullptr;
  for (size_t r = 0; r < right->num_rows(); ++r) {
    Key key{JoinKeyAt(rk0, static_cast<uint32_t>(r), right_keys[0]),
            rk1 != nullptr
                ? JoinKeyAt(*rk1, static_cast<uint32_t>(r), right_keys[1])
                : 0};
    build[key].push_back(static_cast<uint32_t>(r));
  }

  std::vector<uint32_t> out_left;
  std::vector<uint32_t> out_right;
  const Column& lk0 = left->ColumnByName(left_keys[0]);
  const Column* lk1 =
      left_keys.size() > 1 ? &left->ColumnByName(left_keys[1]) : nullptr;
  for (size_t r = 0; r < left->num_rows(); ++r) {
    Key key{JoinKeyAt(lk0, static_cast<uint32_t>(r), left_keys[0]),
            lk1 != nullptr
                ? JoinKeyAt(*lk1, static_cast<uint32_t>(r), left_keys[1])
                : 0};
    auto it = build.find(key);
    if (it == build.end()) {
      continue;
    }
    for (uint32_t rr : it->second) {
      out_left.push_back(static_cast<uint32_t>(r));
      out_right.push_back(rr);
    }
  }

  std::vector<ColumnSpec> specs = left->schema().columns();
  for (const ColumnSpec& spec : right->schema().columns()) {
    specs.push_back(spec);
  }
  auto out = std::make_shared<Table>(Schema(std::move(specs)));
  out->ReserveRows(out_left.size());
  for (size_t c = 0; c < left->num_columns(); ++c) {
    Column& dst = out->column(c);
    const Column& src = left->column(c);
    for (uint32_t r : out_left) {
      dst.AppendValue(src.GetValue(r));
    }
  }
  for (size_t c = 0; c < right->num_columns(); ++c) {
    Column& dst = out->column(left->num_columns() + c);
    const Column& src = right->column(c);
    for (uint32_t r : out_right) {
      dst.AppendValue(src.GetValue(r));
    }
  }
  out->FinishBulkLoad();
  return out;
}

TablePtr ProjectRows(const TablePtr& in, const std::vector<ExprPtr>& exprs,
                     const std::vector<std::string>& names) {
  std::vector<ColumnSpec> specs;
  specs.reserve(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    specs.push_back({names[i], exprs[i]->ResultType(in->schema())});
  }
  auto out = std::make_shared<Table>(Schema(std::move(specs)));
  out->ReserveRows(in->num_rows());
  for (size_t i = 0; i < exprs.size(); ++i) {
    Column& dst = out->column(i);
    for (size_t r = 0; r < in->num_rows(); ++r) {
      dst.AppendValue(exprs[i]->EvalRow(*in, r));
    }
  }
  out->FinishBulkLoad();
  return out;
}

/// Flat (non-morsel) accumulator for one (group, aggregate) pair.
struct RefAggState {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t isum = 0;
  int64_t imin = 0;
  int64_t imax = 0;
  int64_t count = 0;
  std::map<std::string, bool> distinct;
};

TablePtr AggregateRows(const TablePtr& in,
                       const std::vector<std::string>& group_by,
                       const std::vector<AggSpec>& aggregates) {
  const Table& table = *in;
  std::vector<size_t> group_cols;
  for (const std::string& name : group_by) {
    group_cols.push_back(table.schema().MustIndexOf(name));
  }
  std::vector<uint8_t> int_agg(aggregates.size(), 0);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggSpec& spec = aggregates[a];
    int_agg[a] = (spec.op == AggOp::kSum || spec.op == AggOp::kAvg ||
                  spec.op == AggOp::kMin || spec.op == AggOp::kMax) &&
                         spec.expr != nullptr &&
                         spec.expr->ResultType(table.schema()) ==
                             DataType::kInt64
                     ? 1
                     : 0;
  }

  // One serial pass; groups appear in first-occurrence order, doubles
  // accumulate in flat input order.
  std::unordered_map<std::string, size_t> group_index;
  std::vector<uint32_t> first_rows;
  std::vector<std::vector<RefAggState>> states(aggregates.size());
  std::string key;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    key.clear();
    for (size_t c : group_cols) {
      key += table.column(c).GetValue(r).ToString();
      key += '\x1f';
    }
    auto [it, inserted] = group_index.try_emplace(key, group_index.size());
    if (inserted) {
      first_rows.push_back(static_cast<uint32_t>(r));
      for (size_t a = 0; a < aggregates.size(); ++a) {
        states[a].emplace_back();
      }
    }
    size_t g = it->second;
    for (size_t a = 0; a < aggregates.size(); ++a) {
      const AggSpec& spec = aggregates[a];
      RefAggState& state = states[a][g];
      if (spec.op == AggOp::kCount && spec.expr == nullptr) {
        ++state.count;
        continue;
      }
      Value v = spec.expr->EvalRow(table, r);
      if (v.is_null()) {
        continue;  // SQL aggregates skip NULL inputs.
      }
      switch (spec.op) {
        case AggOp::kCount:
          ++state.count;
          break;
        case AggOp::kCountDistinct:
          state.distinct[v.ToString()] = true;
          break;
        default:
          if (int_agg[a] != 0) {
            int64_t i = v.AsInt64();
            if (state.count == 0) {
              state.imin = i;
              state.imax = i;
            } else {
              state.imin = std::min(state.imin, i);
              state.imax = std::max(state.imax, i);
            }
            state.isum = CheckedAdd(state.isum, i, "SUM accumulator");
          } else {
            double d = v.AsDouble();
            if (state.count == 0) {
              state.min = d;
              state.max = d;
            } else {
              state.min = std::min(state.min, d);
              state.max = std::max(state.max, d);
            }
            state.sum += d;
          }
          ++state.count;
          break;
      }
    }
  }
  if (group_cols.empty() && first_rows.empty()) {
    first_rows.push_back(0);  // Global aggregate over zero rows.
    for (size_t a = 0; a < aggregates.size(); ++a) {
      states[a].emplace_back();
    }
  }

  std::vector<ColumnSpec> specs;
  for (size_t c : group_cols) {
    specs.push_back(table.schema().column(c));
  }
  for (const AggSpec& spec : aggregates) {
    specs.push_back({spec.output_name, AggOutputType(spec, table.schema())});
  }
  auto out = std::make_shared<Table>(Schema(std::move(specs)));
  size_t emitted = group_cols.empty() ? 1 : first_rows.size();
  out->ReserveRows(emitted);
  for (size_t g = 0; g < emitted; ++g) {
    for (size_t gc = 0; gc < group_cols.size(); ++gc) {
      out->column(gc).AppendValue(
          table.column(group_cols[gc]).GetValue(first_rows[g]));
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      const RefAggState& state = states[a][g];
      Column& dst = out->column(group_cols.size() + a);
      bool is_int = int_agg[a] != 0;
      switch (aggregates[a].op) {
        case AggOp::kSum:
          if (state.count == 0) {
            dst.AppendValue(Value::Null(dst.type()));
          } else if (is_int) {
            dst.AppendInt64(state.isum);
          } else {
            dst.AppendDouble(state.sum);
          }
          break;
        case AggOp::kAvg:
          if (state.count == 0) {
            dst.AppendValue(Value::Null(dst.type()));
          } else if (is_int) {
            dst.AppendDouble(static_cast<double>(state.isum) /
                             static_cast<double>(state.count));
          } else {
            dst.AppendDouble(state.sum / static_cast<double>(state.count));
          }
          break;
        case AggOp::kMin:
          if (state.count == 0) {
            dst.AppendValue(Value::Null(dst.type()));
          } else if (is_int) {
            dst.AppendInt64(state.imin);
          } else {
            dst.AppendDouble(state.min);
          }
          break;
        case AggOp::kMax:
          if (state.count == 0) {
            dst.AppendValue(Value::Null(dst.type()));
          } else if (is_int) {
            dst.AppendInt64(state.imax);
          } else {
            dst.AppendDouble(state.max);
          }
          break;
        case AggOp::kCount:
          dst.AppendInt64(state.count);
          break;
        case AggOp::kCountDistinct:
          dst.AppendInt64(static_cast<int64_t>(state.distinct.size()));
          break;
      }
    }
  }
  out->FinishBulkLoad();
  return out;
}

TablePtr SortRows(const TablePtr& in, const std::vector<SortKey>& keys,
                  bool top_n, size_t n) {
  std::vector<uint32_t> rows(in->num_rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<uint32_t>(i);
  }
  RowComparator less(*in, keys);
  std::stable_sort(rows.begin(), rows.end(), less);
  if (top_n && rows.size() > n) {
    rows.resize(n);
  }
  return GatherAll(*in, rows);
}

TablePtr Exec(const PlanNode& node, const Catalog& catalog) {
  PlanSpec spec = node.Spec();
  std::vector<const PlanNode*> children = node.Children();
  switch (spec.kind) {
    case PlanKind::kScan:
      return catalog.Get(spec.table_name).table;
    case PlanKind::kFilterScan:
      return FilterRows(catalog.Get(spec.table_name).table,
                        *spec.predicate);
    case PlanKind::kFilter:
      return FilterRows(Exec(*children[0], catalog), *spec.predicate);
    case PlanKind::kProject:
      return ProjectRows(Exec(*children[0], catalog), spec.exprs,
                         spec.names);
    case PlanKind::kHashJoin:
      // Equi-join semantics are algorithm-independent; one naive
      // implementation stands in for hash, radix and merge.
      return JoinTables(Exec(*children[0], catalog),
                        Exec(*children[1], catalog), spec.left_keys,
                        spec.right_keys);
    case PlanKind::kAggregate:
      return AggregateRows(Exec(*children[0], catalog), spec.group_by,
                           spec.aggregates);
    case PlanKind::kSort:
      return SortRows(Exec(*children[0], catalog), spec.sort_keys,
                      /*top_n=*/false, 0);
    case PlanKind::kTopN:
      return SortRows(Exec(*children[0], catalog), spec.sort_keys,
                      /*top_n=*/true, spec.limit);
    case PlanKind::kLimit: {
      TablePtr in = Exec(*children[0], catalog);
      std::vector<uint32_t> rows;
      for (size_t r = 0; r < std::min(in->num_rows(), spec.limit); ++r) {
        rows.push_back(static_cast<uint32_t>(r));
      }
      return GatherAll(*in, rows);
    }
  }
  throw QueryError(StatusCode::kInternal, "unknown plan kind");
}

/// Exact three-way cell order for the canonical row sort: NULL smallest,
/// then by native value. Doubles compare exactly here — near-ties that
/// sort differently in the two tables still land within double_tol of
/// each other position-wise.
int CompareCell(const Column& column, uint32_t a, uint32_t b) {
  bool a_null = column.IsNull(a);
  bool b_null = column.IsNull(b);
  if (a_null || b_null) {
    return a_null == b_null ? 0 : (a_null ? -1 : 1);
  }
  switch (column.type()) {
    case DataType::kInt64: {
      int64_t x = column.GetInt64(a);
      int64_t y = column.GetInt64(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDate: {
      int32_t x = column.GetDate(a);
      int32_t y = column.GetDate(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDouble: {
      double x = column.GetDouble(a);
      double y = column.GetDouble(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kString:
      return column.GetString(a).compare(column.GetString(b));
  }
  return 0;
}

std::vector<uint32_t> CanonicalOrder(const Table& table) {
  std::vector<uint32_t> rows(table.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      int cmp = CompareCell(table.column(c), a, b);
      if (cmp != 0) {
        return cmp < 0;
      }
    }
    return false;
  });
  return rows;
}

std::string DescribeCell(const Column& column, uint32_t row) {
  return column.GetValue(row).ToString();
}

}  // namespace

std::shared_ptr<const Table> ReferenceExecute(const PlanNode& plan,
                                              const Database& database) {
  // One pinned catalog version for the whole plan, as Database::Run does.
  std::shared_ptr<const Catalog> catalog = database.catalog();
  return Exec(plan, *catalog);
}

std::string DiffTables(const Table& actual, const Table& expected,
                       double double_tol, bool ignore_row_order) {
  if (actual.num_columns() != expected.num_columns()) {
    return StrFormat("column count mismatch: %zu vs %zu",
                     actual.num_columns(), expected.num_columns());
  }
  for (size_t c = 0; c < actual.num_columns(); ++c) {
    const ColumnSpec& a = actual.schema().column(c);
    const ColumnSpec& e = expected.schema().column(c);
    if (a.type != e.type) {
      return StrFormat("column %zu (%s) type mismatch", c, a.name.c_str());
    }
  }
  if (actual.num_rows() != expected.num_rows()) {
    return StrFormat("row count mismatch: %zu vs %zu", actual.num_rows(),
                     expected.num_rows());
  }

  std::vector<uint32_t> a_rows;
  std::vector<uint32_t> e_rows;
  if (ignore_row_order) {
    a_rows = CanonicalOrder(actual);
    e_rows = CanonicalOrder(expected);
  } else {
    a_rows.resize(actual.num_rows());
    for (size_t i = 0; i < a_rows.size(); ++i) {
      a_rows[i] = static_cast<uint32_t>(i);
    }
    e_rows = a_rows;
  }

  for (size_t i = 0; i < a_rows.size(); ++i) {
    for (size_t c = 0; c < actual.num_columns(); ++c) {
      const Column& ac = actual.column(c);
      const Column& ec = expected.column(c);
      uint32_t ar = a_rows[i];
      uint32_t er = e_rows[i];
      bool a_null = ac.IsNull(ar);
      bool e_null = ec.IsNull(er);
      if (a_null != e_null) {
        return StrFormat("row %zu column %s: %s vs %s", i,
                         actual.schema().column(c).name.c_str(),
                         DescribeCell(ac, ar).c_str(),
                         DescribeCell(ec, er).c_str());
      }
      if (a_null) {
        continue;
      }
      bool equal;
      if (ac.type() == DataType::kDouble) {
        double x = ac.GetDouble(ar);
        double y = ec.GetDouble(er);
        double scale = std::max(1.0, std::max(std::fabs(x), std::fabs(y)));
        equal = (std::isnan(x) && std::isnan(y)) ||
                std::fabs(x - y) <= double_tol * scale;
      } else {
        equal = ac.GetValue(ar).ToString() == ec.GetValue(er).ToString();
      }
      if (!equal) {
        return StrFormat("row %zu column %s: %s vs %s", i,
                         actual.schema().column(c).name.c_str(),
                         DescribeCell(ac, ar).c_str(),
                         DescribeCell(ec, er).c_str());
      }
    }
  }
  return "";
}

}  // namespace db
}  // namespace perfeval
