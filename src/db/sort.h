#ifndef PERFEVAL_DB_SORT_H_
#define PERFEVAL_DB_SORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/plan.h"
#include "db/table.h"

namespace perfeval {
namespace db {

/// Columnar comparator kernel over a table's sort-key columns: the typed
/// column vectors are resolved once at construction, so a comparison is a
/// few array loads instead of two Value materializations per key (the
/// per-comparison allocation churn of the old Sort path). Shared by Sort,
/// TopN and the parallel merge sort.
///
/// Ordering semantics are db/semantics.h's CompareNulls / CompareKeys:
/// NULL smallest (first ascending, last descending), NaN the greatest
/// double and tying with itself, int64/date natively, strings
/// lexicographically.
class RowComparator {
 public:
  RowComparator(const Table& table, const std::vector<SortKey>& keys);

  /// Strict-weak "row a sorts before row b" under the key list.
  bool Less(uint32_t a, uint32_t b) const {
    for (const Key& key : keys_) {
      int c = CompareOne(key, a, b);
      if (c != 0) {
        return key.ascending ? c < 0 : c > 0;
      }
    }
    return false;
  }

  bool operator()(uint32_t a, uint32_t b) const { return Less(a, b); }

 private:
  struct Key {
    DataType type;
    const int64_t* ints = nullptr;
    const double* doubles = nullptr;
    const std::string* strings = nullptr;
    const uint8_t* nulls = nullptr;  ///< null mask, or nullptr if none.
    bool ascending = true;
  };

  static int CompareOne(const Key& key, uint32_t a, uint32_t b);

  std::vector<Key> keys_;
};

/// Stable-sorts `rows` by `comparator` — byte-identical to
/// std::stable_sort at any `threads` setting. Parallel path: fixed-size
/// chunks (never derived from the thread count) stable-sort in parallel,
/// then pairwise stable merges (left range wins ties) reproduce the
/// serial result; chunk boundaries cannot leak into the output because a
/// stable sort's output is a pure function of input order and comparator.
void StableSortRows(const RowComparator& comparator, int threads,
                    std::vector<uint32_t>* rows);

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_SORT_H_
