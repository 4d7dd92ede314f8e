#include "db/table_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/check.h"
#include "db/join.h"
#include "db/storage.h"

namespace perfeval {
namespace db {

namespace {

/// Fraction of the non-NULL values strictly below `v`, interpolated from
/// the histogram (uniform within a cell) or linearly over [min, max].
double FracBelow(const ColumnStats& s, double v) {
  if (v <= s.min) {
    return 0.0;
  }
  if (v > s.max) {
    return 1.0;
  }
  if (s.histogram.has_value() && s.histogram->total_count() > 0) {
    double total = static_cast<double>(s.histogram->total_count());
    double below = 0.0;
    for (const stats::HistogramCell& cell : s.histogram->cells()) {
      if (cell.upper <= v) {
        below += static_cast<double>(cell.count);
      } else if (cell.lower < v) {
        double width = cell.upper - cell.lower;
        double part = width > 0.0 ? (v - cell.lower) / width : 0.0;
        below += part * static_cast<double>(cell.count);
      }
    }
    return std::clamp(below / total, 0.0, 1.0);
  }
  if (s.max <= s.min) {
    return v > s.min ? 1.0 : 0.0;
  }
  return std::clamp((v - s.min) / (s.max - s.min), 0.0, 1.0);
}

int64_t DoubleBits(double v) {
  int64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

double ColumnStats::Selectivity(CmpOp op, double value) const {
  if (rows == 0 || non_null() == 0) {
    return 0.0;
  }
  double nonnull_frac =
      static_cast<double>(non_null()) / static_cast<double>(rows);
  // Fraction of the *non-NULL* values matching; scaled by the non-NULL
  // fraction at the end (NULL never satisfies a comparison).
  double eq = distinct > 0
                  ? 1.0 / static_cast<double>(distinct)
                  : 0.1;  // Selinger's default equality selectivity.
  bool have_range = numeric && max >= min;
  bool in_range = !have_range || (value >= min && value <= max);
  double frac;
  switch (op) {
    case CmpOp::kEq:
      frac = in_range ? eq : 0.0;
      break;
    case CmpOp::kNe:
      frac = 1.0 - (in_range ? eq : 0.0);
      break;
    case CmpOp::kLt:
      frac = have_range ? FracBelow(*this, value) : 1.0 / 3.0;
      break;
    case CmpOp::kLe:
      frac = have_range ? FracBelow(*this, value) + (in_range ? eq : 0.0)
                        : 1.0 / 3.0;
      break;
    case CmpOp::kGt:
      frac = have_range
                 ? 1.0 - FracBelow(*this, value) - (in_range ? eq : 0.0)
                 : 1.0 / 3.0;
      break;
    case CmpOp::kGe:
      frac = have_range ? 1.0 - FracBelow(*this, value) : 1.0 / 3.0;
      break;
    default:
      frac = 1.0 / 3.0;
      break;
  }
  return std::clamp(frac, 0.0, 1.0) * nonnull_frac;
}

const ColumnStats* TableStats::Find(const std::string& name) const {
  for (const ColumnStats& c : columns) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

TableStats ComputeTableStats(const Table& table,
                             const TableLayout* layout) {
  TableStats out;
  out.rows = table.num_rows();
  out.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    ColumnStats s;
    s.name = table.schema().column(c).name;
    s.type = column.type();
    s.rows = table.num_rows();
    s.numeric = column.type() != DataType::kString;
    if (column.has_nulls()) {
      for (uint8_t bit : column.null_mask()) {
        s.null_count += bit != 0 ? 1 : 0;
      }
    }

    // min/max: aggregate the storage layer's per-page zone maps when they
    // are available for every chunk (the common case — they were computed
    // at registration); otherwise scan the non-NULL, non-NaN values.
    bool have_minmax = false;
    if (s.numeric && s.non_null() > 0) {
      if (layout != nullptr) {
        size_t chunks = layout->num_chunks;
        bool all_valid = chunks > 0;
        double zmin = 0.0;
        double zmax = 0.0;
        bool first = true;
        for (size_t k = 0; all_valid && k < chunks; ++k) {
          const ZoneMap& zm = layout->zone_map(static_cast<uint32_t>(c),
                                               static_cast<uint32_t>(k));
          if (!zm.valid || zm.has_nan) {
            all_valid = false;
            break;
          }
          zmin = first ? zm.min : std::min(zmin, zm.min);
          zmax = first ? zm.max : std::max(zmax, zm.max);
          first = false;
        }
        if (all_valid) {
          s.min = zmin;
          s.max = zmax;
          have_minmax = true;
        }
      }
      if (!have_minmax) {
        bool first = true;
        for (size_t r = 0; r < table.num_rows(); ++r) {
          if (column.IsNull(r)) {
            continue;
          }
          double v = column.GetNumeric(r);
          if (std::isnan(v)) {
            continue;
          }
          s.min = first ? v : std::min(s.min, v);
          s.max = first ? v : std::max(s.max, v);
          first = false;
          have_minmax = true;
        }
      }
    }

    // NDV: the Chao1 estimator from db/join.cc, clamped to the row count.
    // int64/date payloads feed it directly (no copy when NULL-free);
    // doubles go in as bit patterns, strings as their std::hash values.
    if (s.non_null() > 0) {
      switch (column.type()) {
        case DataType::kInt64:
        case DataType::kDate:
          if (!column.has_nulls()) {
            s.distinct = EstimateDistinctKeys(column.ints());
          } else {
            std::vector<int64_t> keys;
            keys.reserve(s.non_null());
            for (size_t r = 0; r < table.num_rows(); ++r) {
              if (!column.IsNull(r)) {
                keys.push_back(column.ints()[r]);
              }
            }
            s.distinct = EstimateDistinctKeys(keys);
          }
          break;
        case DataType::kDouble: {
          std::vector<int64_t> keys;
          keys.reserve(s.non_null());
          for (size_t r = 0; r < table.num_rows(); ++r) {
            if (!column.IsNull(r)) {
              keys.push_back(DoubleBits(column.doubles()[r]));
            }
          }
          s.distinct = EstimateDistinctKeys(keys);
          break;
        }
        case DataType::kString: {
          std::vector<int64_t> keys;
          keys.reserve(s.non_null());
          // std::hash<std::string_view> hashes a view exactly as
          // std::hash<std::string> hashes the same bytes.
          std::hash<std::string_view> hasher;
          for (size_t r = 0; r < table.num_rows(); ++r) {
            if (!column.IsNull(r)) {
              keys.push_back(
                  static_cast<int64_t>(hasher(column.strings()[r])));
            }
          }
          s.distinct = EstimateDistinctKeys(keys);
          break;
        }
      }
      s.distinct = std::max<size_t>(s.distinct, 1);
    }

    // Histogram over an evenly strided sample of the non-NULL, non-NaN
    // values. The stride is a pure function of the row count, so the
    // sample (and with it every estimate) is deterministic.
    if (s.numeric && have_minmax) {
      stats::Histogram hist(s.min, s.max, kStatsHistogramCells);
      size_t n = table.num_rows();
      size_t stride = std::max<size_t>(1, n / kStatsSampleRows);
      for (size_t r = 0; r < n; r += stride) {
        if (column.IsNull(r)) {
          continue;
        }
        double v = column.GetNumeric(r);
        if (std::isnan(v)) {
          continue;
        }
        hist.Add(v);
      }
      if (hist.total_count() > 0) {
        s.histogram = std::move(hist);
      }
    }
    out.columns.push_back(std::move(s));
  }
  return out;
}

}  // namespace db
}  // namespace perfeval
