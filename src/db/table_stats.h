#ifndef PERFEVAL_DB_TABLE_STATS_H_
#define PERFEVAL_DB_TABLE_STATS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/expr.h"
#include "db/table.h"
#include "stats/histogram.h"

namespace perfeval {
namespace db {

struct TableLayout;

/// Per-column statistics the cost-based optimizer estimates from: row and
/// NULL counts, min/max (aggregated from the storage layer's zone maps
/// when available), a distinct-count estimate (the Chao1 machinery from
/// db/join.cc, clamped to the row count), and an equi-width
/// stats::Histogram over a deterministic strided sample of the values.
struct ColumnStats {
  std::string name;
  DataType type = DataType::kInt64;
  size_t rows = 0;        ///< total rows (including NULLs).
  size_t null_count = 0;  ///< rows whose value is NULL.
  bool numeric = false;   ///< int64 / date / double.
  double min = 0.0;       ///< valid when numeric and non_null() > 0.
  double max = 0.0;
  size_t distinct = 0;    ///< NDV estimate over non-NULL values.
  /// Equi-width histogram over a strided sample of the non-NULL numeric
  /// values; absent for string columns and all-NULL columns.
  std::optional<stats::Histogram> histogram;

  size_t non_null() const { return rows - null_count; }
  double null_fraction() const {
    return rows == 0 ? 0.0 : static_cast<double>(null_count) /
                                 static_cast<double>(rows);
  }

  /// Estimated fraction of *all* rows satisfying `column <op> value`
  /// (NULLs never match, so the non-NULL fraction scales the estimate).
  /// Equality uses 1/NDV within [min, max]; ranges interpolate the
  /// histogram (uniform within a cell), falling back to linear
  /// interpolation over [min, max] and then to textbook constants when
  /// the column has no usable statistics. Always in [0, 1].
  double Selectivity(CmpOp op, double value) const;
};

/// Statistics of one catalog table, refreshed at load and on every
/// write-path snapshot install (Database::ReplaceTables).
struct TableStats {
  size_t rows = 0;
  std::vector<ColumnStats> columns;  ///< one per schema column, in order.

  /// Stats of the column named `name`, or nullptr when absent.
  const ColumnStats* Find(const std::string& name) const;
};

/// Computes statistics for `table` in one deterministic pass: exact row
/// and NULL counts, min/max taken from the already-computed zone maps
/// when `layout` is given (falling back to a column scan when any zone
/// is invalid), NDV via EstimateDistinctKeys, and a histogram over an
/// evenly strided sample (at most kStatsSampleRows values per column).
/// Pure function of the table contents — thread counts, storage state,
/// and call order never change the result.
TableStats ComputeTableStats(const Table& table,
                             const TableLayout* layout = nullptr);

/// Sample-size bound for the per-column histograms and double/string NDV.
inline constexpr size_t kStatsSampleRows = 65536;

/// Cells per histogram.
inline constexpr int kStatsHistogramCells = 64;

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_TABLE_STATS_H_
