#ifndef PERFEVAL_DB_TABLE_H_
#define PERFEVAL_DB_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/column.h"

namespace perfeval {
namespace db {

/// Name and type of one column.
struct ColumnSpec {
  std::string name;
  DataType type;
};

/// An ordered list of named, typed columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const ColumnSpec& column(size_t i) const {
    PERFEVAL_CHECK_LT(i, columns_.size());
    return columns_[i];
  }
  const std::vector<ColumnSpec>& columns() const { return columns_; }

  /// Index of the column named `name`, or -1 when absent.
  int IndexOf(const std::string& name) const;

  /// Like IndexOf but aborts when absent — for code where the schema is
  /// statically known (the TPC-H queries).
  size_t MustIndexOf(const std::string& name) const;

  std::string ToString() const;

 private:
  std::vector<ColumnSpec> columns_;
};

/// A materialized table: a schema plus equal-length columns. Tables are the
/// unit of exchange between operators (operator-at-a-time execution).
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  Column& column(size_t i) {
    PERFEVAL_CHECK_LT(i, columns_.size());
    return columns_[i];
  }
  const Column& column(size_t i) const {
    PERFEVAL_CHECK_LT(i, columns_.size());
    return columns_[i];
  }
  const Column& ColumnByName(const std::string& name) const {
    return columns_[schema_.MustIndexOf(name)];
  }

  /// Appends one row; values must match the schema's types.
  void AppendRow(const std::vector<Value>& values);

  /// Recomputes num_rows after columns were filled directly (bulk load).
  /// All columns must have equal sizes.
  void FinishBulkLoad();

  /// Appends all rows of `other` (identical column count and types
  /// required). Column-wise vector concatenation — the merge step of the
  /// chunk-parallel data generator.
  void AppendTable(const Table& other);

  /// Appends rows `rows` of `other`, in order (identical column count and
  /// types required): a column-wise typed gather.
  void AppendGather(const Table& other, const std::vector<uint32_t>& rows);

  void ReserveRows(size_t n);

  Value ValueAt(size_t row, size_t col) const {
    return column(col).GetValue(row);
  }

  /// True if any column holds a NULL; vectorized kernels that read raw
  /// payload vectors fall back to row-at-a-time Value paths in that case.
  bool has_nulls() const {
    for (const Column& c : columns_) {
      if (c.has_nulls()) {
        return true;
      }
    }
    return false;
  }

  /// Total approximate byte size over all columns.
  size_t ByteSize() const;

  /// First `max_rows` rows rendered as an aligned text table.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_TABLE_H_
