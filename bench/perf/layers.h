#ifndef PERFEVAL_BENCH_PERF_LAYERS_H_
#define PERFEVAL_BENCH_PERF_LAYERS_H_

// Per-layer metrics of a traced window, derived from the spans the
// benchmark recorded around its calls into each layer plus the window
// deltas of counters only the workload can read.

#include <cstdint>
#include <vector>

#include "db/storage.h"
#include "perf_util.h"
#include "trace.h"

namespace perfeval {
namespace perfbench {

/// Span names: one per layer boundary the benchmark crosses.
namespace spans {
inline constexpr const char* kRequest = "request";           // client root
inline constexpr const char* kServeExecute = "serve.execute";  // client
inline constexpr const char* kSqlPlan = "sql.plan";          // client
inline constexpr const char* kTxnRefresh = "txn.refresh";    // executor
inline constexpr const char* kDbRun = "db.run";              // executor
inline constexpr const char* kShardExecute = "shard.execute";  // executor
inline constexpr const char* kTxnCommit = "txn.commit";      // writer
inline constexpr const char* kSetup = "setup";               // setup root
inline constexpr const char* kSetupDatagen = "setup.datagen";
inline constexpr const char* kSetupRegister = "setup.register";
inline constexpr const char* kSetupPrepare = "setup.prepare";
inline constexpr const char* kOptOptimize = "opt.optimize";
}  // namespace spans

/// Attribute keys the spans carry.
namespace attrs {
// serve.execute: the service's own queue-wait split.
inline constexpr const char* kQueueWaitNs = "queue_wait_ns";
// db.run: from the QueryResult.
inline constexpr const char* kHashJoinNs = "op_hashjoin_ns";
inline constexpr const char* kHashJoinRowsIn = "op_hashjoin_rows_in";
inline constexpr const char* kFilterScanNs = "op_filterscan_ns";
inline constexpr const char* kAggregateNs = "op_aggregate_ns";
inline constexpr const char* kFilterNs = "op_filter_ns";
inline constexpr const char* kSortNs = "op_sort_ns";
inline constexpr const char* kOtherNs = "op_other_ns";
inline constexpr const char* kRowsScanned = "rows_scanned";
inline constexpr const char* kResultRows = "result_rows";
inline constexpr const char* kRegions = "regions";
inline constexpr const char* kRegionWallNs = "region_wall_ns";
inline constexpr const char* kRegionCriticalNs = "region_critical_ns";
// txn.refresh: 1 when this call installed a new snapshot.
inline constexpr const char* kInstalled = "installed";
// shard.execute: from the ShardedResult.
inline constexpr const char* kSlowestShardNs = "slowest_shard_ns";
inline constexpr const char* kSlowestQueueNs = "slowest_shard_queue_ns";
inline constexpr const char* kFragments = "fragments";
// txn.commit: when the open-loop schedule wanted it sent, and its outcome.
inline constexpr const char* kDueNs = "due_ns";
inline constexpr const char* kOk = "ok";
// opt.optimize: 1 when the optimizer changed a join order.
inline constexpr const char* kReordered = "reordered";
}  // namespace attrs

struct LayerInputs {
  double window_s = 0.0;
  int setup_repeats = 1;
  /// Successful reads per second of the untraced and the traced window.
  double qps_untraced = 0.0;
  double qps_traced = 0.0;
  /// Buffer-pool activity over the traced window (single node: the
  /// database's pool; sharded: the coordinator's logical-I/O replay).
  db::StorageStats storage;
  /// Write-path disk activity over the traced window (ingest only).
  db::StorageStats writes;
  int64_t rows_acked = 0;
  double rss_growth_mb = 0.0;
};

/// Every per-layer metric, in a fixed order. A layer a workload does not
/// reach reads 0 (no sql.plan spans outside scan_adhoc, no txn spans
/// outside ingest_mix, ...).
std::vector<Metric> DeriveLayerMetrics(const std::vector<Span>& spans,
                                       const LayerInputs& in);

}  // namespace perfbench
}  // namespace perfeval

#endif  // PERFEVAL_BENCH_PERF_LAYERS_H_
