#include "db/sort.h"

#include <algorithm>

#include "common/check.h"
#include "db/semantics.h"
#include "sched/parallel_for.h"

namespace perfeval {
namespace db {
namespace {

/// Rows per leaf chunk of the parallel merge sort. Fixed — never derived
/// from the thread count — and large enough that the per-chunk
/// stable_sort amortizes the merge passes.
constexpr size_t kSortChunkRows = 1 << 14;

}  // namespace

RowComparator::RowComparator(const Table& table,
                             const std::vector<SortKey>& keys) {
  keys_.reserve(keys.size());
  for (const SortKey& spec : keys) {
    const Column& column = table.ColumnByName(spec.column);
    Key key;
    key.type = column.type();
    key.ascending = spec.ascending;
    if (column.has_nulls()) {
      key.nulls = column.null_mask().data();
    }
    switch (column.type()) {
      case DataType::kInt64:
      case DataType::kDate:
        key.ints = column.ints().data();
        break;
      case DataType::kDouble:
        key.doubles = column.doubles().data();
        break;
      case DataType::kString:
        key.strings = column.strings().data();
        break;
    }
    keys_.push_back(key);
  }
}

int RowComparator::CompareOne(const Key& key, uint32_t a, uint32_t b) {
  if (key.nulls != nullptr) {
    // NULL payload slots are placeholders; order NULL below every value.
    bool a_null = key.nulls[a] != 0;
    bool b_null = key.nulls[b] != 0;
    if (a_null || b_null) {
      return CompareNulls(a_null, b_null);
    }
  }
  switch (key.type) {
    case DataType::kInt64:
    case DataType::kDate:
      return CompareKeys(key.ints[a], key.ints[b]);
    case DataType::kDouble:
      return CompareKeys(key.doubles[a], key.doubles[b]);
    case DataType::kString:
      return CompareKeys(key.strings[a], key.strings[b]);
  }
  return 0;
}

void StableSortRows(const RowComparator& comparator, int threads,
                    std::vector<uint32_t>* rows) {
  size_t n = rows->size();
  if (threads <= 1 || n <= kSortChunkRows * 2) {
    std::stable_sort(rows->begin(), rows->end(), comparator);
    return;
  }
  size_t num_chunks = (n + kSortChunkRows - 1) / kSortChunkRows;
  sched::ParallelFor(threads, num_chunks, [&](size_t c) {
    size_t begin = c * kSortChunkRows;
    size_t end = std::min(n, begin + kSortChunkRows);
    std::stable_sort(rows->begin() + static_cast<long>(begin),
                     rows->begin() + static_cast<long>(end), comparator);
  });
  // Bottom-up pairwise merges; each level's pairs are independent so they
  // run in parallel. std::merge is stable (left range wins ties), so the
  // final order equals one std::stable_sort over the whole range.
  std::vector<uint32_t> scratch(n);
  std::vector<uint32_t>* src = rows;
  std::vector<uint32_t>* dst = &scratch;
  for (size_t width = kSortChunkRows; width < n; width *= 2) {
    size_t num_pairs = (n + 2 * width - 1) / (2 * width);
    sched::ParallelFor(threads, num_pairs, [&](size_t p) {
      size_t begin = p * 2 * width;
      size_t mid = std::min(n, begin + width);
      size_t end = std::min(n, begin + 2 * width);
      std::merge(src->begin() + static_cast<long>(begin),
                 src->begin() + static_cast<long>(mid),
                 src->begin() + static_cast<long>(mid),
                 src->begin() + static_cast<long>(end),
                 dst->begin() + static_cast<long>(begin), comparator);
    });
    std::swap(src, dst);
  }
  if (src != rows) {
    *rows = std::move(scratch);
  }
}

}  // namespace db
}  // namespace perfeval
