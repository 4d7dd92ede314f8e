#ifndef PERFEVAL_SHARD_CLUSTER_H_
#define PERFEVAL_SHARD_CLUSTER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/scan_io.h"
#include "db/storage.h"
#include "serve/service.h"
#include "shard/partition.h"
#include "shard/planner.h"
#include "workload/tpch_gen.h"

namespace perfeval {
namespace shard {

/// Configuration of a shard cluster.
struct ShardClusterOptions {
  int num_shards = 2;
  /// Engine configuration of every shard database (per-shard buffer pool,
  /// threads, join algorithm, ...). The disk model can be overridden per
  /// shard via `shard_disk_override`.
  db::DatabaseOptions shard_db;
  /// The per-shard query service (executor width, admission queue).
  serve::ServiceOptions shard_service;
  /// Geometry of the coordinator's logical-I/O replay: rows_per_page,
  /// buffer_pool_pages and disk model of the *single-node* deployment the
  /// cluster's StorageStats must be comparable to. Results are invariant
  /// to this; only the reported logical I/O numbers depend on it.
  db::DatabaseOptions reference;
  PartitionScheme scheme = TpchPartitionScheme();
  /// Per-shard disk-model overrides — the straggler-injection knob
  /// (bench_shard_scaleout slows one shard down with a spinning-disk
  /// model while the rest run the default).
  std::map<int, db::DiskModel> shard_disk_override;
};

/// Per-shard view of one scatter-gather execution, for straggler
/// attribution: the summed server-side timing of the shard's fragment
/// requests, and the shard service's occupancy sampled right after the
/// scatter.
struct ShardExecution {
  serve::ServerTiming timing;
  serve::QueueSnapshot queue;
  /// Fragment requests this shard executed.
  int requests = 0;
};

/// Outcome of one distributed query.
struct ShardedResult {
  /// The merged result, shaped exactly like a single-node QueryResult:
  /// `table` is the final relation, `storage` the *logical* I/O replayed
  /// against the reference layout (bit-identical to single-node by
  /// construction), `server` the coordinator's measured wall time with
  /// the replayed stall as its simulated component.
  db::QueryResult result;
  std::vector<ShardExecution> shards;
  /// Shard with the largest summed server-side time this query — the
  /// straggler that bounds scatter-gather latency (tail amplification:
  /// the coordinator waits for max-over-shards, not the mean).
  int slowest_shard = 0;
  size_t num_fragments = 0;
};

/// A hash-partitioned cluster of N single-node engines behind one
/// coordinator (DESIGN.md S16).
///
/// Scatter-gather contract: Execute() decomposes the plan with
/// PlanDistributed, submits every fragment to the per-shard
/// serve::QueryService instances, gathers fragment results in fixed
/// (fragment, then shard, then shard-local first-occurrence) order, merges
/// partial aggregates at the coordinator, and runs the residual plan over
/// the gathered fragment tables.
///
/// Claim-on-wait: the coordinator thread does not idle while a fragment
/// request sits in a shard's queue. When the gather reaches a request no
/// shard worker has started, it claims the request and runs it itself
/// (serve::PendingResponse::ClaimOrWait) through the shard service's own
/// request path, so deadlines, service stats, realize_stall_scale and the
/// per-shard timing split are the same whichever thread ran it, and the
/// shard's queued job skips the claimed request. The coordinator's caller
/// (a FrontEnd worker, say) thereby lends its thread to the shards, so a
/// cheap fragment need not queue behind another query's expensive one.
///
/// The coordinator keeps no database of its own: each query binds its
/// gathered tables into a query-local db::Catalog as bare versions (no
/// statistics, no layout) and runs the merge aggregates and the residual
/// plan straight through PlanNode::Execute with no StorageManager, under
/// shard 0's live execution settings (threads, morsel policy, join
/// algorithm, radix bits, checked mode; db::Database::ExecSettings).
/// Because gather order is fixed and every
/// shard engine is deterministic at any thread count, the merged result is
/// bit-identical at any per-shard thread count; at different shard counts
/// the result relation is equal as a multiset of rows (double aggregates
/// may differ by reassociation within comparison tolerance).
///
/// StorageStats contract: per-shard page geometry differs from single-node
/// (ceil(rows/page) per shard, split buffer pools), so summed shard stats
/// can never equal single-node numbers. The cluster instead replays each
/// query's logical scan I/O — same code path the engine's scan operators
/// use (db/scan_io.h) — against one StorageManager, touching the global
/// unpartitioned layout of each table, making the merged logical StorageStats
/// bit-identical to single-node by construction. The replay is per-query
/// atomic (a mutex), and each query reports the delta its own replay
/// returned.
class ShardCluster : public db::ScanIoCatalog {
 public:
  explicit ShardCluster(ShardClusterOptions options);
  ~ShardCluster() override;

  ShardCluster(const ShardCluster&) = delete;
  ShardCluster& operator=(const ShardCluster&) = delete;

  /// Adds `table` to the cluster: partitioned tables are split by the
  /// scheme's hash partitioner, replicated tables are shared by every
  /// shard. Also registers the table's *global* layout with the replay
  /// storage manager; tables must be added in the same order a comparable
  /// single-node database would register them (table ids are assigned by
  /// add order on both sides).
  void AddTable(const std::string& name, std::shared_ptr<db::Table> table);

  /// Generates and adds the eight TPC-H tables in the canonical LoadAll
  /// order, so ids and layout match a single-node LoadAll exactly.
  void LoadTpch(workload::TpchGenerator* gen);

  /// Runs `plan` scatter-gather across the cluster.
  ShardedResult Execute(const db::PlanPtr& plan,
                        db::ExecMode mode = db::ExecMode::kOptimized,
                        bool use_zone_maps = true);

  int num_shards() const { return options_.num_shards; }
  db::Database& shard_db(int i) { return *dbs_.at(static_cast<size_t>(i)); }
  serve::QueryService& shard_service(int i) {
    return *services_.at(static_cast<size_t>(i));
  }
  db::StorageManager& replay_storage() { return *replay_storage_; }
  const ShardClusterOptions& options() const { return options_; }

  /// Cold-state reset: empties every shard's buffer pool and the replay
  /// pool (the cross-cluster equivalent of the slide-32 "reboot").
  void FlushCaches();

  /// db::ScanIoCatalog: resolves the global (unpartitioned) layout for the
  /// logical-I/O replay.
  db::ScanTableInfo Lookup(const std::string& table_name) const override;

 private:
  struct CatalogEntry {
    db::Schema schema;
    db::TableLayout layout;  ///< global layout; layout.table_id is the id.
  };

  ShardClusterOptions options_;
  std::vector<std::unique_ptr<db::Database>> dbs_;
  std::vector<std::unique_ptr<serve::QueryService>> services_;
  std::unique_ptr<db::StorageManager> replay_storage_;
  /// Guards the replay (per-query atomic) so concurrent Execute() calls
  /// never interleave their logical-I/O sequences.
  std::mutex replay_mu_;
  /// Global-layout snapshot per table (std::map nodes are stable, so
  /// Lookup can hand out schema and layout pointers).
  std::map<std::string, CatalogEntry> catalog_;
  uint32_t next_table_id_ = 0;
};

}  // namespace shard
}  // namespace perfeval

#endif  // PERFEVAL_SHARD_CLUSTER_H_
