#ifndef PERFEVAL_ENGINE_ROW_PAGER_H_
#define PERFEVAL_ENGINE_ROW_PAGER_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "db/storage.h"
#include "engine/row_layout.h"

namespace perfeval {
namespace engine {

/// Simulated I/O accounting for the row store, mirroring the columnar
/// db::StorageManager's model — same DiskModel charges, same LRU pool
/// budget (a page *count*), same sequential-stream seek discipline — over
/// a row-major page shape: one page holds `rows_per_page` complete tuples
/// (packed stride bytes plus the string payload a serialized row would
/// carry inline). That shape is the design point under test: a row scan
/// always pays full-tuple bytes no matter how few columns the query
/// touches, where the columnar layout reads only the referenced columns.
/// What is held constant vs. what legitimately differs is spelled out in
/// DESIGN.md ("Comparing backends defensibly").
///
/// Thread safety: TouchRows/FlushCaches/ResetStats/StatsSnapshot serialize
/// on one mutex. Determinism is the caller's contract, as with
/// StorageManager: the row executor accounts scan I/O from the
/// coordinating thread in row-range order before fanning compute out, so
/// stats are independent of worker interleaving.
class RowPager {
 public:
  RowPager(db::DiskModel disk, size_t buffer_pool_pages,
           size_t rows_per_page);

  RowPager(const RowPager&) = delete;
  RowPager& operator=(const RowPager&) = delete;

  size_t rows_per_page() const { return rows_per_page_; }

  /// Registers a packed table so page counts and byte sizes are known.
  void RegisterTable(uint32_t table_id, const RowBlock& block);

  /// Re-registers `table_id` with new contents (catalog re-sync after the
  /// write path commits): page sizes are recomputed and every resident
  /// page of the table is evicted — the new version is cold.
  void ReplaceTable(uint32_t table_id, const RowBlock& block);

  /// Number of pages of a registered table.
  size_t NumPages(uint32_t table_id) const;

  /// Touches every page overlapping rows [row_begin, row_end), pages
  /// ascending, and returns the stats delta charged to exactly this call.
  db::StorageStats TouchRows(uint32_t table_id, size_t row_begin,
                             size_t row_end);

  /// Empties the buffer pool — the cold-run "reboot".
  void FlushCaches();

  db::StorageStats StatsSnapshot() const;
  void ResetStats();

 private:
  struct TableMeta {
    /// Exact bytes per page: stride * rows-in-page plus the string
    /// payload of those rows (charged per occurrence, as an inline
    /// row-major serialization would store it).
    std::vector<size_t> page_bytes;
  };

  db::DiskModel disk_;
  size_t buffer_pool_pages_;
  size_t rows_per_page_;

  /// table_id -> page metadata. Written by Register/ReplaceTable (no
  /// concurrent queries: SyncFrom holds the backend catalog exclusively).
  std::unordered_map<uint32_t, TableMeta> tables_;

  mutable std::mutex mu_;
  /// LRU buffer pool: most-recent at front; key = table_id << 32 | page.
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> resident_;
  /// Per-table stream head for sequential-read detection: reading page
  /// p+1 right after page p of the same table costs no seek; hits advance
  /// the head too (OS readahead keeps streaming over warm pages).
  std::unordered_map<uint32_t, uint32_t> stream_heads_;
  db::StorageStats stats_;
};

}  // namespace engine
}  // namespace perfeval

#endif  // PERFEVAL_ENGINE_ROW_PAGER_H_
