#ifndef PERFEVAL_DB_DATABASE_H_
#define PERFEVAL_DB_DATABASE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/measurement.h"
#include "db/catalog.h"
#include "db/plan.h"
#include "db/profile.h"
#include "db/sink.h"
#include "db/storage.h"
#include "db/table.h"
#include "db/table_stats.h"

namespace perfeval {
namespace db {

/// Configuration of a Database instance. These knobs are the factors of the
/// engine-screening experiment (DESIGN.md, A1) and of the hot/cold and
/// output-channel reproductions.
struct DatabaseOptions {
  DiskModel disk;
  size_t buffer_pool_pages = 256;
  size_t rows_per_page = 4096;
  SinkModel sink_model;
  /// Worker threads for morsel-driven intra-query parallelism (<= 1 runs
  /// serially). A pure concurrency knob: result relations and reported
  /// StorageStats are bit-identical at any setting; only wall-clock time
  /// may change.
  int threads = 1;
  /// Morsel sizing and the adaptive go-parallel decision (serial below the
  /// cutoff). Defaults to the hwsim-calibrated MorselPolicy::Hardware()
  /// values; tests override it to move the serial/parallel boundary.
  MorselPolicy morsel;
  /// Physical algorithm for equi-join nodes; a performance knob, not a
  /// semantic one (see db/join.h).
  JoinAlgo join_algo = JoinAlgo::kRadix;
  /// Radix fan-out (log2 partitions) for JoinAlgo::kRadix; <= 0 derives it
  /// from the hwsim L2 cache profile (ChooseRadixBits).
  int radix_bits = 0;
  /// Checked execution: operators assert their own invariants and queries
  /// fail with QueryError on violation (see ExecContext::check). SQL shell
  /// `\check on`.
  bool check = false;
  /// Cost-based optimization: when set, the SQL planner hands its rule-
  /// built plan to opt::Optimize, which re-derives join order and picks a
  /// physical join algorithm per node from the table statistics. Opt-in
  /// (SQL shell `\opt on`, bench `--dbOpt=on`); results are oracle-diffed
  /// identical to the rule-only plans.
  bool optimize = false;
};

/// A query's complete outcome: the result table, server-side timing split
/// the way the paper's slide-23 table splits it (server user/real vs client
/// real), operator traces, and the output-channel report.
struct QueryResult {
  std::shared_ptr<const Table> table;
  Profiler profile;

  /// Server-side execution only (plan execution).
  core::Measurement server;
  /// Client-side view: server plus result rendering and sink stall.
  core::Measurement client;

  SinkReport sink;

  /// Buffer-pool activity attributable to this query (hits, misses, bytes
  /// read, stall) — the server-side "where did the time go" counters.
  StorageStats storage;

  /// Wall vs critical-path time of the query's parallel regions (see
  /// ParallelSim in db/plan.h).
  ParallelSim parallel;

  double ServerRealMs() const { return server.ObservedRealMs(); }
  double ServerUserMs() const { return server.user_ms(); }
  double ClientRealMs() const { return client.ObservedRealMs(); }

  /// Server time with every parallel region counted at its critical path
  /// (max per-worker busy time) instead of its measured wall time. On a
  /// host with enough idle cores the two coincide; on an oversubscribed
  /// host — where workers time-slice one core and measured wall cannot
  /// show scaling — this is the defensible "time with real cores" figure.
  /// Benches that report it must label it as modeled, next to the
  /// measured wall time and the host core count.
  int64_t ModeledServerNs() const {
    int64_t ns = server.ObservedRealNs() - parallel.region_wall_ns +
                 parallel.region_critical_ns;
    return ns < 0 ? 0 : ns;
  }
};

/// The engine facade: a catalog of named tables over a StorageManager, and
/// a Run() entry point that executes plans under a chosen ExecMode and
/// result sink, with full timing.
///
/// The catalog is a sequence of immutable versions (db/catalog.h). Every
/// RegisterTable / ReplaceTables publishes a new Catalog with one pointer
/// swap; Run() pins the current one for the whole query, so scans read
/// tables, zone maps and page geometry of one version and a writer never
/// waits for readers. A replaced table version dies when the last query
/// or GetTableShared holder drops it.
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Adds a loaded table to the catalog and computes its layout and
  /// statistics. Aborts on duplicate names.
  void RegisterTable(const std::string& name, std::shared_ptr<Table> table);

  /// One table of an install: its name and its new contents.
  using TableInstall = std::pair<std::string, std::shared_ptr<const Table>>;

  /// Installs new contents, with unchanged schemas, for existing tables —
  /// the write path installing freshly merged base+delta snapshots. All
  /// of `installs` become visible together in one new catalog version, so
  /// no query sees one table of a commit without the others. Each table
  /// keeps its id, gets a fresh layout and statistics (computed before
  /// the swap, outside the catalog lock) and its pages go cold: pages of
  /// older versions are evicted. Queries that pinned the previous version
  /// finish on it undisturbed; it is returned so a caller that installs
  /// under a lock of its own can release it after unlocking.
  std::shared_ptr<const Catalog> ReplaceTables(
      std::vector<TableInstall> installs);

  /// Installs a hook run at the top of every Run() call, before the query
  /// pins its catalog version — the write path uses it to fold freshly
  /// committed deltas into the catalog (ReplaceTables) so every query sees
  /// the latest committed snapshot.
  void SetRefreshHook(std::function<void()> hook);

  /// Pins the current catalog version: everything read through the
  /// returned snapshot stays valid and mutually consistent for as long
  /// as it is held.
  std::shared_ptr<const Catalog> catalog() const;

  bool HasTable(const std::string& name) const;
  /// The current version of a table. The reference is valid only until
  /// the table's next install (ReplaceTables), which may free it; code
  /// that can race with the write path must hold GetTableShared() or a
  /// pinned catalog() instead.
  const Table& GetTable(const std::string& name) const;
  std::shared_ptr<const Table> GetTableShared(const std::string& name) const;
  uint32_t TableId(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  StorageManager& storage() { return *storage_; }
  const DatabaseOptions& options() const { return options_; }

  /// Intra-query parallelism knob; adjustable at runtime (SQL shell
  /// `\threads N`, bench `--dbThreads=N`). Clamped to >= 1.
  int threads() const { return options_.threads; }
  void set_threads(int threads) {
    options_.threads = threads < 1 ? 1 : threads;
  }

  /// Morsel policy knob: morsel size and the adaptive serial/parallel
  /// cutoff. Tests use it to place the decision boundary precisely.
  const MorselPolicy& morsel_policy() const { return options_.morsel; }
  void set_morsel_policy(const MorselPolicy& policy) {
    options_.morsel = policy;
  }

  /// Join algorithm knob; adjustable at runtime (SQL shell `\join ALGO`,
  /// bench `--dbJoin=ALGO`).
  JoinAlgo join_algo() const { return options_.join_algo; }
  void set_join_algo(JoinAlgo algo) { options_.join_algo = algo; }

  /// Radix fan-out override for JoinAlgo::kRadix (<= 0 = auto).
  int radix_bits() const { return options_.radix_bits; }
  void set_radix_bits(int bits) { options_.radix_bits = bits; }

  /// Checked execution knob; adjustable at runtime (SQL shell `\check`).
  bool check() const { return options_.check; }
  void set_check(bool check) { options_.check = check; }

  /// Cost-based optimization knob; adjustable at runtime (SQL shell
  /// `\opt on|off`, bench `--dbOpt=on|off`).
  bool optimize() const { return options_.optimize; }
  void set_optimize(bool optimize) { options_.optimize = optimize; }

  /// Runs the refresh hook (if any) without executing a query: folds
  /// freshly committed write-path deltas into the catalog. Secondary
  /// backends call this before re-syncing their own copies of the
  /// catalog, so they observe the same committed snapshot a Run() would.
  void Refresh() {
    if (refresh_hook_) {
      refresh_hook_();
    }
  }

  /// Statistics of the current version of a catalog table, computed at
  /// RegisterTable and again for every installed version. Never null for
  /// a registered table; keeps its table version alive while held.
  std::shared_ptr<const TableStats> GetTableStats(
      const std::string& name) const;

  /// Empties the buffer pool: the next run is a cold run (slide 32).
  void FlushCaches() { storage_->FlushCaches(); }

  /// Executes `plan`: server phase (plan execution) then client phase
  /// (result rendering into `sink`). Profiling is always collected.
  QueryResult Run(const PlanPtr& plan, ExecMode mode = ExecMode::kOptimized,
                  SinkKind sink = SinkKind::kDiscard,
                  bool use_zone_maps = true);

 private:
  DatabaseOptions options_;
  std::unique_ptr<StorageManager> storage_;
  std::function<void()> refresh_hook_;

  /// Guards the `catalog_` pointer: readers copy it, writers swap it and
  /// evict the superseded pages before releasing it. Never held while
  /// building a version or while one is destroyed. Lock order:
  /// catalog_mu_, then the StorageManager's pool lock.
  mutable std::mutex catalog_mu_;
  std::shared_ptr<const Catalog> catalog_;
};

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_DATABASE_H_
