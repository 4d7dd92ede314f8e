#ifndef PERFEVAL_ENGINE_ROW_BACKEND_H_
#define PERFEVAL_ENGINE_ROW_BACKEND_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "db/storage.h"
#include "engine/backend.h"
#include "engine/row_layout.h"

namespace perfeval {
namespace engine {

/// The row-store backend: every catalog table is packed into fixed-stride
/// row tuples over a shared string heap (engine/row_layout.h), and plan
/// trees execute row-at-a-time with batching — a genuinely different
/// design point from the columnar engine, not a wrapper over the
/// reference interpreter:
///
///  - No selection vectors: a filter copies surviving tuples (one
///    fixed-stride memcpy each) into a fresh block instead of refining an
///    index vector over columnar arrays.
///  - Tuple-at-a-time CPU cost: general predicates and projections
///    evaluate db::Expr per row over batch-unpacked scratch columns
///    (kDebug always does; kOptimized takes compiled fast paths for
///    simple predicates and column-reference projections that read packed
///    slots directly).
///  - Row-major cache/I/O behavior: a scan touches full tuples no matter
///    how few columns the query needs (each table pages through the
///    backend's db::StorageManager as one BuildRowLayout column), and
///    strings move by (offset, length) slot over a shared heap instead of
///    std::string copies.
///
/// Semantics are the engine's, bit for bit where the contract demands it:
/// Kleene 3VL with UNKNOWN -> not-selected at filter boundaries (via
/// db::Expr), aggregates skip NULLs and yield NULL over zero rows,
/// checked int64 accumulation, groups in first-occurrence order, NULL
/// sorting smallest, joins rejecting non-int64/NULL keys — the
/// backend-vs-backend oracle sweep (tests/sql/oracle_backend_test.cc)
/// holds all of it to zero mismatches against both the columnar engine
/// and the reference interpreter.
///
/// Determinism: results and StorageStats are identical at any `threads`
/// setting — parallel operators partition rows into fixed-size batches
/// (never derived from the thread count), workers fill disjoint ranges,
/// and scan I/O is accounted by the coordinator in row order before
/// compute fans out.
///
/// Thread safety: concurrent Execute() calls are safe (blocks are
/// immutable, the pool locks internally, the catalog is read under a
/// shared mutex); RegisterTable/SyncFrom take the catalog mutex
/// exclusively and must not race in-flight executions of the tables they
/// replace.
class RowStoreBackend : public Backend {
 public:
  struct Options {
    db::DiskModel disk;
    size_t buffer_pool_pages = 256;
    size_t rows_per_page = 4096;
    /// Rows per executor batch: the unpack/evaluate granularity of the
    /// general path and the unit of parallel range partitioning. Fixed
    /// per backend instance; never derived from the thread count.
    size_t batch_rows = 1024;
  };

  RowStoreBackend() : RowStoreBackend(Options()) {}
  explicit RowStoreBackend(Options options);

  /// Convenience: a backend whose pool matches `database`'s storage
  /// configuration (same DiskModel / pool budget / rows per page), with
  /// every catalog table imported.
  static std::unique_ptr<RowStoreBackend> Over(db::Database* database);

  db::BackendKind kind() const override {
    return db::BackendKind::kRowStore;
  }

  void RegisterTable(const std::string& name,
                     std::shared_ptr<db::Table> table) override;

  /// Runs the database's refresh hook, then re-packs every table whose
  /// installed snapshot changed identity since the last sync (and imports
  /// tables this backend has not seen). A re-packed table gets the next
  /// layout version and its older pages are evicted, so it is cold, as
  /// after the columnar install (Database::ReplaceTables).
  void SyncFrom(db::Database* database) override;

  BackendResult Execute(const db::PlanPtr& plan,
                        const ExecOptions& options) override;

  db::StorageStats StorageSnapshot() const override {
    return storage_->StatsSnapshot();
  }

  void FlushCaches() override { storage_->FlushCaches(); }

  const Options& options() const { return options_; }

  /// The packed block of a registered table (tests inspect layouts and
  /// page accounting through this).
  RowBlockPtr GetBlock(const std::string& name) const;
  uint32_t TableId(const std::string& name) const;

 private:
  struct CatalogEntry {
    RowBlockPtr block;
    /// Identity of the columnar snapshot this block was packed from;
    /// SyncFrom re-packs when the database's pointer differs.
    std::shared_ptr<const db::Table> source;
    db::TableLayout layout;  ///< BuildRowLayout of `block`.
  };

  /// Packs `source` and lays the block out as `table_id` at `version`.
  CatalogEntry Pack(std::shared_ptr<const db::Table> source,
                    uint32_t table_id, uint32_t version) const;

  Options options_;
  std::unique_ptr<db::StorageManager> storage_;

  /// Guards the catalog map. Executions hold it shared; registration and
  /// sync hold it exclusively.
  mutable std::shared_mutex catalog_mu_;
  std::unordered_map<std::string, CatalogEntry> tables_;
  uint32_t next_table_id_ = 1;
};

}  // namespace engine
}  // namespace perfeval

#endif  // PERFEVAL_ENGINE_ROW_BACKEND_H_
