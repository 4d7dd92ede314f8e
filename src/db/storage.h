#ifndef PERFEVAL_DB_STORAGE_H_
#define PERFEVAL_DB_STORAGE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/table.h"

namespace perfeval {
namespace db {

/// Cost model of the simulated disk. Substitutes the paper's physical
/// 5400RPM laptop disk (DESIGN.md, substitutions): instead of blocking on
/// real I/O, reads charge deterministic stall time which the measurement
/// layer adds to "real" time. Defaults approximate a 5400RPM laptop drive:
/// ~9ms average access, ~50MB/s sequential transfer.
struct DiskModel {
  int64_t seek_ns = 9'000'000;   ///< charged on non-sequential page reads.
  double ns_per_byte = 20.0;     ///< 1/bandwidth: 20ns/B = 50MB/s.

  /// An SSD-like profile for comparisons.
  static DiskModel Ssd() { return DiskModel{80'000, 2.0}; }
};

/// Min/max statistics of one numeric page — a zone map. Scans with simple
/// range predicates skip pages whose [min, max] cannot match, avoiding both
/// the I/O charge and the scan work. `min`/`max` cover the non-NaN values
/// only; a page containing any NaN sets `has_nan` and must never be pruned
/// (NaN compares false against every bound, so [min, max] says nothing
/// about whether its rows match).
struct ZoneMap {
  double min = 0.0;
  double max = 0.0;
  bool valid = false;    ///< true when the page has at least one non-NaN value.
  bool has_nan = false;  ///< page holds a NaN; pruning must skip this zone.

  /// True when a range predicate may safely skip the page: the zone is
  /// valid, NaN-free, and `might_match` (the predicate's verdict on
  /// [min, max]) is false.
  bool Prunable(bool might_match) const {
    return valid && !has_nan && !might_match;
  }
};

/// Page geometry and zone maps of one column of a table version.
struct ColumnLayout {
  /// Exact bytes per chunk: fixed-width columns charge rows-in-chunk *
  /// value width (the last chunk of a non-divisible row count is
  /// smaller); string columns charge the actual footprint of the rows in
  /// the chunk. Sums to Column::ByteSize().
  std::vector<size_t> chunk_bytes;
  std::vector<ZoneMap> zone_maps;  ///< invalid for string columns.
};

/// The storage layout of one immutable table version: how its rows split
/// into pages, each page's byte size and zone map, and the identity its
/// pages carry in the buffer pool. Built once per version and never
/// mutated, so a query that pinned a version reads consistent metadata
/// for as long as it runs, whatever the write path installs meanwhile.
struct TableLayout {
  uint32_t table_id = 0;
  /// Install count of the table: 0 at registration, +1 per replacement.
  /// Part of every page key, so pages of two versions never alias.
  uint32_t version = 0;
  size_t num_rows = 0;
  size_t num_chunks = 0;  ///< identical for every column.
  std::vector<ColumnLayout> columns;

  const ZoneMap& zone_map(uint32_t column_id, uint32_t chunk) const {
    PERFEVAL_CHECK_LT(column_id, columns.size());
    PERFEVAL_CHECK_LT(chunk, num_chunks);
    return columns[column_id].zone_maps[chunk];
  }
};

/// Table ids a buffer pool can tell apart (the page key holds 12 bits).
inline constexpr uint32_t kMaxTableIds = 4096;

/// Computes the layout of `table` split into `rows_per_page`-row pages.
/// A pure function of the table contents; the caller assigns the id and
/// version.
TableLayout BuildTableLayout(const Table& table, size_t rows_per_page);

/// Buffer-pool and I/O statistics since the last ResetStats(). The write
/// fields are accounted by the write path (txn::VirtualDisk charges WAL
/// appends and fsyncs through the same DiskModel); they stay zero for
/// read-only workloads and ToString() only renders them when nonzero, so
/// existing read-side reports are unchanged.
struct StorageStats {
  int64_t page_hits = 0;
  int64_t page_misses = 0;
  int64_t bytes_read = 0;
  int64_t stall_ns = 0;
  int64_t bytes_written = 0;   ///< durable-write traffic (WAL, checkpoints).
  int64_t fsyncs = 0;          ///< Sync() barriers issued.
  int64_t write_stall_ns = 0;  ///< simulated time charged to writes/syncs.

  StorageStats& operator+=(const StorageStats& other) {
    page_hits += other.page_hits;
    page_misses += other.page_misses;
    bytes_read += other.bytes_read;
    stall_ns += other.stall_ns;
    bytes_written += other.bytes_written;
    fsyncs += other.fsyncs;
    write_stall_ns += other.write_stall_ns;
    return *this;
  }

  std::string ToString() const;
};

/// The storage manager: tracks which pages are resident (LRU buffer pool
/// over the simulated disk) and charges stall time for misses.
///
/// Cold vs. hot runs (paper, slide 32) are implemented exactly as defined
/// there: FlushCaches() produces the "clean state ... achieved via a system
/// reboot"; running a query once re-populates the pool, making later runs
/// hot.
///
/// Thread safety: all page-touch entry points, FlushCaches, ResetStats and
/// StatsSnapshot serialize on one internal mutex, so concurrent query
/// streams may share a StorageManager. Determinism under intra-query
/// parallelism is the caller's contract: parallel scans account their I/O
/// through TouchMorsel from the coordinating thread in chunk order (one
/// morsel at a time), so hits/misses/bytes/stall are independent of how
/// the compute morsels interleave across workers.
///
/// Attribution: every page-touch entry point returns the stats delta it
/// charged, and a query reports the sum of its own touches' deltas. So
/// a query is charged exactly the pages it touched, even while other
/// queries share the pool, and the queries' charges sum to the pool's
/// counters.
///
/// Both executors page through this class: the columnar engine with one
/// page per column chunk, the row store (engine::RowStoreBackend) with
/// one page per run of complete tuples (engine::BuildRowLayout).
///
/// The pool keeps no catalog of its own: every touch passes the
/// TableLayout of the table version being read (a Database passes the
/// one its query pinned), so a running scan never sees metadata change
/// under it.
class StorageManager {
 public:
  StorageManager(DiskModel disk, size_t buffer_pool_pages,
                 size_t rows_per_page);

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  size_t rows_per_page() const { return rows_per_page_; }
  size_t buffer_pool_pages() const { return buffer_pool_pages_; }

  /// Touches all pages of one column of a table version (a full scan)
  /// and returns the stats delta charged to exactly this call.
  StorageStats TouchColumn(const TableLayout& table, uint32_t column_id);

  /// One morsel's I/O, accounted as a unit: touches the pages of every
  /// column in `column_ids` overlapping rows [row_begin, row_end) — in
  /// the given column order, chunks ascending — under a single lock, and
  /// returns the stats delta charged to exactly this call. Parallel scans
  /// invoke this per morsel in chunk order from the coordinator and reduce
  /// the returned deltas in that same order, which makes the aggregate
  /// StorageStats independent of worker interleaving.
  StorageStats TouchMorsel(const TableLayout& table,
                           const std::vector<uint32_t>& column_ids,
                           size_t row_begin, size_t row_end);

  /// Evicts every resident page and stream head of `table_id` whose
  /// version is not `keep_version`: after an install the new version's
  /// pages are cold, exactly as a freshly written file would be.
  void EvictTable(uint32_t table_id, uint32_t keep_version);

  /// Empties the buffer pool — the cold-run "reboot".
  void FlushCaches();

  /// Not synchronized: single-threaded callers (tests, serial tools) only.
  /// Concurrent readers must use StatsSnapshot().
  const StorageStats& stats() const { return stats_; }

  /// Thread-safe copy of the counters.
  StorageStats StatsSnapshot() const;

  void ResetStats();

 private:
  /// Marks one page accessed: buffer-pool hit (free) or miss (charges
  /// the disk model and evicts LRU pages as needed), adding the charge to
  /// `charged`; the caller folds it into stats_. mu_ must be held.
  void TouchPageLocked(const TableLayout& table, uint32_t column_id,
                       uint32_t chunk, StorageStats* charged);

  DiskModel disk_;
  size_t buffer_pool_pages_;
  size_t rows_per_page_;

  /// Guards the buffer pool, stream heads and stats_.
  mutable std::mutex mu_;

  /// LRU buffer pool: most-recent at front.
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> resident_;

  /// Per-column stream heads for sequential-read detection: reading chunk
  /// c+1 of a column right after chunk c of the same column costs no seek,
  /// even when reads of other columns interleave — modelling per-file OS
  /// readahead. Hits advance the head too: a warm page in the middle of a
  /// sequential scan keeps the head moving, so the next miss continues the
  /// stream instead of paying a spurious seek.
  std::unordered_map<uint64_t, uint32_t> stream_heads_;

  StorageStats stats_;
};

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_STORAGE_H_
