#ifndef PERFEVAL_DB_INVARIANTS_H_
#define PERFEVAL_DB_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/column.h"
#include "db/error.h"
#include "db/storage.h"

namespace perfeval {
namespace db {

/// Checked int64 arithmetic: the result of a op b, or a QueryError
/// (kOutOfRange) when the mathematical result does not fit in int64 —
/// wrapping silently is exactly the class of bug a benchmark result must
/// never hide (the paper's debug-vs-optimized warning). `what` names the
/// computation for the error message, e.g. "SUM accumulator".
inline int64_t CheckedAdd(int64_t a, int64_t b, const char* what) {
  int64_t result = 0;
  if (__builtin_add_overflow(a, b, &result)) {
    throw QueryError::Overflow(std::string(what) +
                               ": int64 addition overflow");
  }
  return result;
}
inline int64_t CheckedSub(int64_t a, int64_t b, const char* what) {
  int64_t result = 0;
  if (__builtin_sub_overflow(a, b, &result)) {
    throw QueryError::Overflow(std::string(what) +
                               ": int64 subtraction overflow");
  }
  return result;
}
inline int64_t CheckedMul(int64_t a, int64_t b, const char* what) {
  int64_t result = 0;
  if (__builtin_mul_overflow(a, b, &result)) {
    throw QueryError::Overflow(std::string(what) +
                               ": int64 multiplication overflow");
  }
  return result;
}

// Checked-mode operator invariants. Each throws QueryError (kInternal)
// with a description of the first violation; callers only invoke them
// when ExecContext::check is set, so they may be O(input).

/// A selection vector must be strictly increasing: operators that
/// concatenate per-morsel partial selections rely on it for row order,
/// and downstream kernels rely on it for cache-friendly access.
void CheckSelectionStrictlyIncreasing(const std::vector<uint32_t>& selection,
                                      const char* op);

/// A filter's output selection must be a subsequence of its input
/// selection (identity 0..num_input_rows-1 when `input` is nullptr):
/// filters may only drop rows, never duplicate, invent, or reorder them.
void CheckSelectionSubsequence(const std::vector<uint32_t>& output,
                               const std::vector<uint32_t>* input,
                               size_t num_input_rows, const char* op);

/// Recomputes the min/max/has_nan fold over rows [begin, end) of `column`
/// and requires it to match the registered zone map exactly; a stale or
/// corrupt zone map silently prunes live rows. NULL rows count like NaN
/// (zone unusable), mirroring BuildTableLayout.
void CheckZoneMapConsistent(const Column& column, size_t begin, size_t end,
                            const ZoneMap& zone_map,
                            const std::string& context);

/// Join match-count conservation: the number of emitted matches must equal
/// the sum over probe keys of that key's build-side multiplicity,
/// independent of the join algorithm that produced them.
void CheckJoinMatchConservation(const std::vector<int64_t>& probe_keys,
                                const std::vector<int64_t>& build_keys,
                                size_t match_count, const char* op);

/// Sort output must be a permutation of its input row ids.
void CheckPermutation(std::vector<uint32_t> input, std::vector<uint32_t> output,
                      const char* op);

/// Group output must list group-representative rows in global
/// first-occurrence order; `expected` is the serially recomputed order.
void CheckFirstOccurrenceOrder(const std::vector<uint32_t>& expected,
                               const std::vector<uint32_t>& actual,
                               const char* op);

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_INVARIANTS_H_
