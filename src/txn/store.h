#ifndef PERFEVAL_TXN_STORE_H_
#define PERFEVAL_TXN_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "txn/delta.h"
#include "txn/vdisk.h"
#include "txn/wal.h"

namespace perfeval {
namespace txn {

/// Row predicate used to resolve a buffered DELETE at commit time:
/// called per live row of the merged snapshot; true means delete.
using RowPredicate = std::function<bool(const db::Table&, uint32_t row)>;

/// Counters the write-path bench reports alongside VirtualDisk's fsync
/// accounting.
struct DeltaStoreStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;          ///< conflict aborts at apply time.
  uint64_t rows_inserted = 0;
  uint64_t rows_deleted = 0;
  uint64_t checkpoints = 0;
  uint64_t wal_records_replayed = 0;  ///< by the last Open().
  uint64_t torn_tail_bytes = 0;       ///< discarded by the last Open().
};

/// The write path: a WAL-backed delta store layered over a Database's
/// immutable base tables (DESIGN.md S15).
///
/// Transactions buffer INSERTs (rows) and DELETEs (predicates), then
/// Commit():
///
///   1. resolve — under the state lock, DELETE predicates run over the
///      merged snapshot and map matches to physical row positions via the
///      origin map; the record (rows + resolved positions, never
///      predicates) is appended to the WAL. Resolution and append are one
///      critical section, so WAL order == resolution order.
///   2. harden — group commit: the record is fsynced, sharing the fsync
///      with concurrently committing transactions (WalWriter::SyncUpTo).
///   3. apply — records apply to the in-memory deltas strictly in LSN
///      order (commit threads sequence themselves on next_apply_lsn_).
///      Apply is validate-then-apply: a record whose delete targets a row
///      a lower-LSN commit already deleted aborts (kAborted) and changes
///      nothing. Replay runs the identical validation in the identical
///      order, so an aborted commit stays aborted after recovery.
///
/// Readers never see un-hardened data: queries observe deltas only after
/// apply, which happens after fsync. RefreshCatalog() — installed as the
/// Database's refresh hook — folds applied deltas into the catalog: it
/// merges each stale table column-wise (TableDelta::BuildMerged) and
/// installs all of them as one new catalog version
/// (Database::ReplaceTables), so every existing operator, zone map,
/// checked-mode invariant and the reference oracle work unchanged on
/// mutated tables. Installs never wait for queries: a running query keeps
/// reading the catalog version it pinned, and a replaced version is freed
/// when its last reader drops it. Per table, at most the pristine base
/// (which the delta layers over), the current version and versions still
/// pinned by running queries are alive.
///
/// Checkpoint() compacts and serializes the deltas plus the WAL horizon
/// to ckpt.tmp, fsyncs, atomically renames over the checkpoint file, then
/// truncates the WAL — crash-safe at every intermediate site. Open()
/// recovers: pristine base + checkpoint image + replay of WAL records at
/// or above the checkpoint horizon, discarding a torn tail and failing
/// with kDataLoss on mid-log corruption.
///
/// Thread-safe: Begin/Buffer*/Commit/Abort may race freely; Checkpoint
/// and RefreshCatalog may run concurrently with commits.
class DeltaStore {
 public:
  struct Options {
    std::string wal_file = "wal.log";
    std::string ckpt_file = "checkpoint.img";
  };

  /// `database` must hold pristine (never-mutated) base tables and must
  /// outlive the store, as must `disk`.
  DeltaStore(db::Database* database, VirtualDisk* disk, Options options);
  DeltaStore(db::Database* database, VirtualDisk* disk);

  DeltaStore(const DeltaStore&) = delete;
  DeltaStore& operator=(const DeltaStore&) = delete;

  /// Recovers durable state from `disk` (checkpoint + WAL replay) and
  /// installs the refresh hook on the database. Call exactly once,
  /// before any transaction. kDataLoss on corrupt durable state.
  Status Open();

  // ---- Transactions ----

  /// Starts a transaction and returns its id.
  uint64_t Begin();

  /// Buffers rows for insertion into `table`. Validates arity and types
  /// against the schema (InvalidArgument / NotFound); rows become visible
  /// only after Commit. Statements do not see their own transaction's
  /// earlier buffered writes (DELETE resolves against committed state).
  Status BufferInsert(uint64_t txn_id, const std::string& table,
                      std::vector<std::vector<db::Value>> rows);

  /// Buffers a DELETE of every committed row of `table` matching `pred`
  /// (nullptr matches every row). Resolution happens at commit time.
  Status BufferDelete(uint64_t txn_id, const std::string& table,
                      RowPredicate pred);

  /// What a successful commit did (all zero for an empty transaction).
  struct CommitInfo {
    uint64_t rows_inserted = 0;
    uint64_t rows_deleted = 0;
    uint64_t lsn = 0;  ///< 0 when no WAL record was needed.
  };

  /// Commits: resolve + WAL append + group-commit fsync + in-order
  /// apply. OK means the transaction is durable and visible; kAborted
  /// means a write-write conflict and nothing was applied (the WAL
  /// record exists but replay skips it identically). May throw
  /// CrashException under an armed crash point.
  Status Commit(uint64_t txn_id, CommitInfo* info = nullptr);

  /// Drops a transaction's buffered writes without logging anything.
  void Abort(uint64_t txn_id);

  // ---- Maintenance ----

  /// Compacts deltas and installs a checkpoint, truncating the WAL.
  /// Serializes against commits. May throw CrashException.
  Status Checkpoint();

  /// Folds applied deltas into the database catalog (merged snapshots,
  /// one ReplaceTables per call). Installed as the Database refresh hook;
  /// cheap when nothing changed. In checked execution mode, runs
  /// CheckIntegrity first and throws QueryError on violation.
  void RefreshCatalog();

  /// Structural invariants of every delta (see TableDelta::CheckIntegrity).
  Status CheckIntegrity() const;

  /// The merged snapshot of `table` (for tests and the crash fuzzer's
  /// oracle diff; queries read through the catalog instead).
  std::shared_ptr<db::Table> MergedTable(const std::string& table);

  DeltaStoreStats stats() const;
  uint64_t next_lsn() const { return wal_.next_lsn(); }
  db::Database& database() { return *db_; }

  /// Test hook: corrupts one table's delta (see TableDelta::CorruptForTest)
  /// so the checked-mode negative test can prove detection.
  void CorruptForTest(const std::string& table, TableDelta::Corruption kind);

 private:
  struct PendingInsert {
    std::string table;
    std::vector<std::vector<db::Value>> rows;
  };
  struct PendingDelete {
    std::string table;
    RowPredicate pred;
  };
  struct PendingTxn {
    std::vector<PendingInsert> inserts;
    std::vector<PendingDelete> deletes;
  };

  /// Returns the delta for `table`, creating it over the pristine base on
  /// first touch. Caller holds state_mu_. The pristine base is captured
  /// from the catalog, which is safe because the catalog entry is only
  /// ever replaced *after* a delta exists (RefreshCatalog).
  TableDelta& DeltaFor(const std::string& table);

  /// Cached merged snapshot for `table`, rebuilt when stale. Caller
  /// holds state_mu_.
  const MergedSnapshot& MergedFor(const std::string& table);

  /// Validates and applies one record to the deltas. Caller holds
  /// state_mu_. kAborted on conflict (nothing applied).
  Status ApplyRecord(const WalRecord& record);

  db::Database* db_;
  VirtualDisk* disk_;
  Options options_;
  WalWriter wal_;
  bool opened_ = false;

  mutable std::mutex txn_mu_;
  uint64_t next_txn_id_ = 1;
  std::unordered_map<uint64_t, PendingTxn> pending_;

  /// Guards deltas, merged cache, apply sequencing and stats. Lock order:
  /// state_mu_ before the Database's catalog lock (RefreshCatalog's
  /// install); queries never wait on state_mu_ while executing.
  mutable std::mutex state_mu_;
  std::condition_variable apply_cv_;
  uint64_t next_apply_lsn_ = 1;
  std::map<std::string, TableDelta> deltas_;
  std::map<std::string, MergedSnapshot> merged_cache_;
  /// Tables whose catalog entry is behind the applied delta state.
  std::map<std::string, bool> catalog_stale_;
  DeltaStoreStats stats_;
};

}  // namespace txn
}  // namespace perfeval

#endif  // PERFEVAL_TXN_STORE_H_
