#ifndef PERFEVAL_ENGINE_BACKEND_H_
#define PERFEVAL_ENGINE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "db/backend_kind.h"
#include "db/database.h"
#include "db/plan.h"
#include "db/profile.h"
#include "db/storage.h"
#include "db/table.h"

namespace perfeval {
namespace engine {

/// Per-execution knobs a backend must honor. Deliberately the subset of
/// DatabaseOptions whose semantics are backend-independent — everything
/// here is part of the comparison protocol (held constant across
/// backends), while physical knobs like join_algo or morsel policy belong
/// to one backend's implementation and stay out of the interface.
struct ExecOptions {
  db::ExecMode mode = db::ExecMode::kOptimized;
  /// Intra-query parallelism. Both backends guarantee results and
  /// reported StorageStats identical at any setting.
  int threads = 1;
  /// Checked execution: operators assert their own invariants and throw
  /// QueryError on violation. Checked int64 arithmetic is always on.
  bool check = false;
};

/// One backend execution's complete outcome. `table` is the
/// backend-neutral result every backend converts to (what the
/// differential oracle diffs); the timing split keeps the conversion
/// honest: `server_wall_ns` ends when the backend's *native* result is
/// fully materialized (a selection-materialized columnar table; a packed
/// RowBlock), and `finish_ns` is the untimed-by-server conversion of a
/// non-columnar native result into `table`. Benches report both — see
/// DESIGN.md, "Comparing backends defensibly".
struct BackendResult {
  std::shared_ptr<const db::Table> table;
  db::Profiler profile;
  /// Buffer-pool activity charged to exactly this execution.
  db::StorageStats storage;
  /// Measured CPU-side wall time of the server phase.
  int64_t server_wall_ns = 0;
  /// Simulated I/O stall charged inside the server phase
  /// (== storage.stall_ns; kept separate so observed = wall + stall).
  int64_t stall_ns = 0;
  /// Converting the native result to `table` (0 when native is columnar).
  int64_t finish_ns = 0;

  int64_t ObservedServerNs() const { return server_wall_ns + stall_ns; }
};

/// A query-execution backend: a private copy of the catalog in its own
/// physical layout, executing the shared logical plan representation
/// (db::PlanNode / PlanSpec) with per-operator traces and I/O accounting.
/// Two production implementations — the columnar vectorized executor
/// (ColumnarBackend, adapting db::Database) and the packed-tuple row
/// store (RowStoreBackend) — race through one harness, reproducing the
/// paper's two-engines-one-protocol discipline internally.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual db::BackendKind kind() const = 0;
  const char* name() const { return db::BackendKindName(kind()); }

  /// Adds `table` to the backend's catalog in its native layout.
  virtual void RegisterTable(const std::string& name,
                             std::shared_ptr<db::Table> table) = 0;

  /// Folds the database's committed state into this backend's catalog:
  /// runs the write-path refresh hook, then re-imports any table whose
  /// installed snapshot changed since the last sync. Lets a secondary
  /// backend observe exactly the snapshot a Database::Run would.
  virtual void SyncFrom(db::Database* database) = 0;

  /// Executes `plan` against the backend's catalog. Throws db::QueryError
  /// for runtime query failures (overflow, checked-mode violations), as
  /// Database::Run does.
  virtual BackendResult Execute(const db::PlanPtr& plan,
                                const ExecOptions& options) = 0;

  /// Cumulative I/O counters of the backend's buffer pool.
  virtual db::StorageStats StorageSnapshot() const = 0;

  /// Empties the backend's buffer pool — the cold-run "reboot".
  virtual void FlushCaches() = 0;
};

/// Builds a backend over `database`'s catalog and storage configuration:
/// kColumnar adapts the database itself; kRowStore packs every catalog
/// table into row form over a db::StorageManager of its own with the
/// same configuration (same DiskModel, same buffer_pool_pages, same
/// rows_per_page — the held-constant half of the comparison protocol). `database` must outlive the returned backend.
std::unique_ptr<Backend> CreateBackend(db::BackendKind kind,
                                       db::Database* database);

}  // namespace engine
}  // namespace perfeval

#endif  // PERFEVAL_ENGINE_BACKEND_H_
