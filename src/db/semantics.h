#ifndef PERFEVAL_DB_SEMANTICS_H_
#define PERFEVAL_DB_SEMANTICS_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "db/error.h"
#include "db/invariants.h"
#include "db/plan.h"
#include "db/table.h"

namespace perfeval {
namespace db {

// The SQL rules both production executors share: the columnar engine
// (plan.cc, sort.cc, partial_agg.cc) and the row store
// (engine/row_backend.cc). Only the rules live here — aggregate
// accumulation and emission, sort-key ordering, group identity and NULL
// join keys; each executor keeps its own algorithm (morsel-parallel vs
// flat serial grouping, radix/hash vs ordered-map joins), so the oracle
// still cross-checks different strategies. Header-only so the columnar
// tight loops inline the accumulators.
//
// The reference interpreter (reference.cc) deliberately keeps its own
// copy of every rule: it is the oracle both executors are diffed against,
// and a wrong rule here must show up as a diff, not agree with itself.

// ---- Aggregates ----

/// One finished aggregate value: NULL, an int64 or a double. A tagged
/// scalar rather than a Value, so per-group emission allocates nothing.
struct AggResult {
  enum class Kind : uint8_t { kNull, kInt64, kDouble };
  Kind kind = Kind::kNull;
  int64_t i = 0;
  double d = 0.0;

  static AggResult OfInt(int64_t v) { return {Kind::kInt64, v, 0.0}; }
  static AggResult OfDouble(double v) { return {Kind::kDouble, 0, v}; }
};

/// Accumulator state for one (group, aggregate) pair. Doubles accumulate
/// in `sum`/`min`/`max`; int64-typed aggregates (UsesIntAccumulator) use
/// the exact integer accumulators `isum`/`imin`/`imax` with checked
/// addition — summing int64 through a double silently loses precision
/// past 2^53 and a bare int64 sum silently wraps, both of which turn
/// benchmark output into plausible-looking garbage.
struct AggState {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t isum = 0;
  int64_t imin = 0;
  int64_t imax = 0;
  int64_t count = 0;
  std::unordered_set<std::string> distinct;

  void AddNumeric(double v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    sum += v;
    ++count;
  }

  void AddInt(int64_t v) {
    if (count == 0) {
      imin = v;
      imax = v;
    } else {
      imin = std::min(imin, v);
      imax = std::max(imax, v);
    }
    isum = CheckedAdd(isum, v, "SUM accumulator");
    ++count;
  }

  /// Folds another partial state in. Callers merge partials in morsel
  /// order, so `sum` accumulates in a fixed order at any thread count.
  void MergeFrom(const AggState& other) {
    if (other.count > 0) {
      if (count == 0) {
        min = other.min;
        max = other.max;
        imin = other.imin;
        imax = other.imax;
      } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
        imin = std::min(imin, other.imin);
        imax = std::max(imax, other.imax);
      }
    }
    sum += other.sum;
    isum = CheckedAdd(isum, other.isum, "SUM accumulator");
    count += other.count;
    distinct.insert(other.distinct.begin(), other.distinct.end());
  }

  /// The aggregate's value under `op`, with `is_int` the aggregate's
  /// UsesIntAccumulator. SUM/AVG/MIN/MAX over zero accumulated rows is
  /// NULL, not a fabricated 0 / 0.0 — otherwise an empty group is
  /// indistinguishable from one summing to zero. An int AVG divides the
  /// exact integer sum: double(isum) / count.
  AggResult Result(AggOp op, bool is_int) const {
    if (op == AggOp::kCount) {
      return AggResult::OfInt(count);
    }
    if (op == AggOp::kCountDistinct) {
      return AggResult::OfInt(static_cast<int64_t>(distinct.size()));
    }
    if (count == 0) {
      return {};
    }
    switch (op) {
      case AggOp::kSum:
        return is_int ? AggResult::OfInt(isum) : AggResult::OfDouble(sum);
      case AggOp::kAvg:
        return AggResult::OfDouble(
            (is_int ? static_cast<double>(isum) : sum) /
            static_cast<double>(count));
      case AggOp::kMin:
        return is_int ? AggResult::OfInt(imin) : AggResult::OfDouble(min);
      case AggOp::kMax:
        return is_int ? AggResult::OfInt(imax) : AggResult::OfDouble(max);
      default:
        return {};
    }
  }
};

/// Appends row `r`'s composite group key (one '\x1f'-terminated field per
/// group column) to `*key`. Byte-identical to concatenating
/// `GetValue(r).ToString()` per column — Value renders int64 as plain
/// decimal, strings verbatim and NULL as "NULL" — but the common null-free
/// string/int64 fields skip the Value round trip. Every grouping pass
/// builds its keys here, so all sides agree on group identity.
inline void AppendGroupKey(const Table& table,
                           const std::vector<size_t>& group_cols, uint32_t r,
                           std::string* key) {
  for (size_t c : group_cols) {
    const Column& column = table.column(c);
    if (!column.IsNull(r)) {
      if (column.type() == DataType::kString) {
        *key += column.strings()[r];
        *key += '\x1f';
        continue;
      }
      if (column.type() == DataType::kInt64) {
        char buf[24];
        auto [end, ec] =
            std::to_chars(buf, buf + sizeof(buf), column.ints()[r]);
        key->append(buf, end);
        *key += '\x1f';
        continue;
      }
    }
    *key += column.GetValue(r).ToString();
    *key += '\x1f';
  }
}

// ---- Sort-key ordering ----
//
// Three-way compares (-1, 0, 1) for one sort key, before the key's
// direction flip. A comparator checks NULLs first and compares the values
// only when both are non-NULL.

/// NULL sorts as the smallest value of its type, so NULLs come first
/// ascending and last descending; two NULLs tie. Call when `a_null ||
/// b_null`.
inline int CompareNulls(bool a_null, bool b_null) {
  return a_null == b_null ? 0 : (a_null ? -1 : 1);
}

/// Int64/date keys compare natively (not through a double cast), strings
/// lexicographically.
template <typename T>
inline int CompareKeys(const T& x, const T& y) {
  return x < y ? -1 : (x == y ? 0 : 1);
}

/// Doubles by `<`/`==`, with NaN ordered explicitly — greater than every
/// number, tying with itself. The raw `<`/`==` fallthrough answers
/// "greater" for BOTH Compare(NaN, x) and Compare(x, NaN); that asymmetry
/// breaks strict weak ordering the moment a descending key flips the
/// sign, which is undefined behaviour for std::stable_sort and makes the
/// checked-mode "output ordered" invariant fire on correct permutations.
inline int CompareKeys(double x, double y) {
  bool x_nan = std::isnan(x);
  bool y_nan = std::isnan(y);
  if (x_nan || y_nan) {
    return x_nan == y_nan ? 0 : (x_nan ? 1 : -1);
  }
  return x < y ? -1 : (x == y ? 0 : 1);
}

// ---- Join keys ----

/// NULL join keys are unsupported: the key kernels read raw int64
/// payloads, where a NULL is indistinguishable from its placeholder, so
/// rather than silently joining on placeholders every executor rejects a
/// NULL in a visible key row with this error.
[[noreturn]] inline void RejectNullJoinKey(const std::string& column,
                                           size_t row) {
  throw QueryError(StatusCode::kInvalidArgument,
                   "join key column " + column + " contains NULL (row " +
                       std::to_string(row) +
                       "); NULL join keys are unsupported");
}

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_SEMANTICS_H_
