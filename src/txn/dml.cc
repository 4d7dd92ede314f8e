#include "txn/dml.h"

#include <utility>
#include <vector>

#include "db/expr.h"
#include "db/types.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace perfeval {
namespace txn {
namespace {

/// Coerces one VALUES literal to the declared type of its target column.
Result<db::Value> CoerceLiteral(const sql::AstExpr& node,
                                const db::ColumnSpec& column) {
  auto mismatch = [&](const char* what) {
    return Status::InvalidArgument(
        std::string(what) + " literal cannot fill " +
        db::DataTypeName(column.type) + " column " + column.name +
        " (at offset " + std::to_string(node.offset) + ")");
  };
  switch (node.kind) {
    case sql::AstExprKind::kNullLit:
      return db::Value::Null(column.type);
    case sql::AstExprKind::kIntLit:
      if (column.type == db::DataType::kInt64) {
        return db::Value::Int64(node.int_value);
      }
      if (column.type == db::DataType::kDouble) {
        return db::Value::Double(static_cast<double>(node.int_value));
      }
      return mismatch("integer");
    case sql::AstExprKind::kDoubleLit:
      if (column.type == db::DataType::kDouble) {
        return db::Value::Double(node.double_value);
      }
      return mismatch("double");
    case sql::AstExprKind::kStringLit:
    case sql::AstExprKind::kDateLit: {
      if (column.type == db::DataType::kString &&
          node.kind == sql::AstExprKind::kStringLit) {
        return db::Value::String(node.text);
      }
      if (column.type == db::DataType::kDate) {
        int32_t days = 0;
        if (!db::ParseDate(node.text, &days)) {
          return Status::InvalidArgument("bad date literal '" + node.text +
                                         "' for column " + column.name);
        }
        return db::Value::Date(days);
      }
      return mismatch(node.kind == sql::AstExprKind::kDateLit ? "date"
                                                              : "string");
    }
    default:
      return Status::InvalidArgument(
          "INSERT values must be literals (at offset " +
          std::to_string(node.offset) + ")");
  }
}

}  // namespace

Result<DmlResult> ExecuteInsert(const sql::InsertStatement& statement,
                                DeltaStore& store) {
  db::Database& database = store.database();
  if (!database.HasTable(statement.table)) {
    return Status::NotFound("no table named " + statement.table);
  }
  // Held, not borrowed: a concurrent install may free the version.
  std::shared_ptr<const db::Table> table =
      database.GetTableShared(statement.table);
  const db::Schema& schema = table->schema();
  std::vector<std::vector<db::Value>> rows;
  rows.reserve(statement.rows.size());
  for (const auto& ast_row : statement.rows) {
    if (ast_row.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "VALUES row has " + std::to_string(ast_row.size()) +
          " values, table " + statement.table + " has " +
          std::to_string(schema.num_columns()) + " columns");
    }
    std::vector<db::Value> row;
    row.reserve(ast_row.size());
    for (size_t c = 0; c < ast_row.size(); ++c) {
      PERFEVAL_ASSIGN_OR_RETURN(db::Value value,
                                CoerceLiteral(*ast_row[c], schema.column(c)));
      row.push_back(std::move(value));
    }
    rows.push_back(std::move(row));
  }

  uint64_t txn = store.Begin();
  Status buffered =
      store.BufferInsert(txn, statement.table, std::move(rows));
  if (!buffered.ok()) {
    store.Abort(txn);
    return buffered;
  }
  DeltaStore::CommitInfo info;
  PERFEVAL_RETURN_IF_ERROR(store.Commit(txn, &info));
  DmlResult result;
  result.rows_affected = info.rows_inserted;
  return result;
}

Result<DmlResult> ExecuteDelete(const sql::DeleteStatement& statement,
                                DeltaStore& store) {
  db::Database& database = store.database();
  if (!database.HasTable(statement.table)) {
    return Status::NotFound("no table named " + statement.table);
  }
  RowPredicate pred;  // null predicate: delete every row.
  if (statement.where != nullptr) {
    std::shared_ptr<const db::Table> table =
        database.GetTableShared(statement.table);
    PERFEVAL_ASSIGN_OR_RETURN(
        db::ExprPtr bound,
        sql::BindWhereExpr(statement.where, table->schema()));
    pred = [bound](const db::Table& table, uint32_t row) {
      return bound->EvalBool(table, row);
    };
  }

  uint64_t txn = store.Begin();
  Status buffered = store.BufferDelete(txn, statement.table, std::move(pred));
  if (!buffered.ok()) {
    store.Abort(txn);
    return buffered;
  }
  DeltaStore::CommitInfo info;
  PERFEVAL_RETURN_IF_ERROR(store.Commit(txn, &info));
  DmlResult result;
  result.rows_affected = info.rows_deleted;
  return result;
}

Result<DmlResult> ExecuteDml(const std::string& sql_text, DeltaStore& store) {
  PERFEVAL_ASSIGN_OR_RETURN(sql::Statement statement,
                            sql::ParseSql(sql_text));
  switch (statement.kind) {
    case sql::Statement::Kind::kInsert:
      return ExecuteInsert(statement.insert, store);
    case sql::Statement::Kind::kDelete:
      return ExecuteDelete(statement.delete_from, store);
    case sql::Statement::Kind::kSelect:
      return Status::InvalidArgument(
          "ExecuteDml only runs INSERT/DELETE; run SELECT through "
          "sql::RunQuery");
  }
  return Status::Internal("unreachable statement kind");
}

}  // namespace txn
}  // namespace perfeval
