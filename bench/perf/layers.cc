#include "layers.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace perfeval {
namespace perfbench {
namespace {

bool Is(const Span& span, const char* name) {
  return std::strcmp(span.name, name) == 0;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The spans of one read request the per-request residuals need.
struct RequestView {
  const Span* root = nullptr;
  std::vector<const Span*> root_children;  // sql.plan, serve.execute
  int64_t executor_ns = 0;                 // children of serve.execute
  bool executed = false;
};

}  // namespace

std::vector<Metric> DeriveLayerMetrics(const std::vector<Span>& all,
                                       const LayerInputs& in) {
  std::vector<double> queue_wait_ms, exec_ms, overhead_ms, run_ms, plan_ms;
  std::vector<double> commit_ms, commit_due_ms, refresh_ms, execute_ms;
  int64_t reads = 0, runs = 0, sharded = 0, commits_ok = 0;
  int64_t hashjoin_ns = 0, hashjoin_rows = 0, filterscan_ns = 0;
  int64_t aggregate_ns = 0, filter_ns = 0, sort_ns = 0, other_ns = 0;
  int64_t unattributed_ns = 0, rows_scanned = 0, result_rows = 0;
  int64_t regions = 0, region_wall_ns = 0, region_critical_ns = 0;
  int64_t run_total_ns = 0, refresh_total_ns = 0, late_max_ns = 0;
  int64_t slowest_ns = 0, slowest_queue_ns = 0, coordinator_ns = 0;
  int64_t fragments = 0, datagen_ns = 0, register_ns = 0, prepare_ns = 0;
  int64_t optimize_ns = 0, optimized = 0, reordered = 0;

  std::unordered_map<uint64_t, RequestView> requests;
  for (const Span& s : all) {
    if (Is(s, spans::kRequest)) {
      requests[s.request].root = &s;
    } else if (std::strcmp(s.parent, spans::kRequest) == 0) {
      requests[s.request].root_children.push_back(&s);
    } else if (std::strcmp(s.parent, spans::kServeExecute) == 0) {
      requests[s.request].executor_ns += s.DurationNs();
    }

    if (Is(s, spans::kServeExecute)) {
      ++reads;
      requests[s.request].executed = true;
      queue_wait_ms.push_back(Ms(s.Attr(attrs::kQueueWaitNs)));
    } else if (Is(s, spans::kSqlPlan)) {
      plan_ms.push_back(Ms(s.DurationNs()));
    } else if (Is(s, spans::kDbRun)) {
      ++runs;
      run_ms.push_back(Ms(s.DurationNs()));
      run_total_ns += s.DurationNs();
      int64_t ops[] = {s.Attr(attrs::kHashJoinNs), s.Attr(attrs::kFilterScanNs),
                       s.Attr(attrs::kAggregateNs), s.Attr(attrs::kFilterNs),
                       s.Attr(attrs::kSortNs), s.Attr(attrs::kOtherNs)};
      hashjoin_ns += ops[0];
      filterscan_ns += ops[1];
      aggregate_ns += ops[2];
      filter_ns += ops[3];
      sort_ns += ops[4];
      other_ns += ops[5];
      int64_t op_total = 0;
      for (int64_t ns : ops) {
        op_total += ns;
      }
      unattributed_ns += s.DurationNs() - op_total;
      hashjoin_rows += s.Attr(attrs::kHashJoinRowsIn);
      rows_scanned += s.Attr(attrs::kRowsScanned);
      result_rows += s.Attr(attrs::kResultRows);
      regions += s.Attr(attrs::kRegions);
      region_wall_ns += s.Attr(attrs::kRegionWallNs);
      region_critical_ns += s.Attr(attrs::kRegionCriticalNs);
    } else if (Is(s, spans::kTxnRefresh)) {
      refresh_total_ns += s.DurationNs();
      if (s.Attr(attrs::kInstalled) != 0) {
        refresh_ms.push_back(Ms(s.DurationNs()));
      }
    } else if (Is(s, spans::kShardExecute)) {
      ++sharded;
      execute_ms.push_back(Ms(s.DurationNs()));
      // A shard's fragments of one query all run inside shard.execute, but
      // fragments that queued or ran side by side on the shard's workers
      // sum to more than the time they took: cap the sum at the span, which
      // makes the coordinator residual a lower bound.
      const int64_t slowest =
          std::min(s.Attr(attrs::kSlowestShardNs), s.DurationNs());
      slowest_ns += slowest;
      slowest_queue_ns += std::min(s.Attr(attrs::kSlowestQueueNs), slowest);
      coordinator_ns += s.DurationNs() - slowest;
      fragments += s.Attr(attrs::kFragments);
    } else if (Is(s, spans::kTxnCommit)) {
      int64_t due = s.Attr(attrs::kDueNs);
      late_max_ns = std::max(late_max_ns, s.start_ns - due);
      if (s.Attr(attrs::kOk) != 0) {
        ++commits_ok;
        commit_ms.push_back(Ms(s.DurationNs()));
        commit_due_ms.push_back(Ms(s.end_ns - due));
      }
    } else if (Is(s, spans::kSetupDatagen)) {
      datagen_ns += s.DurationNs();
    } else if (Is(s, spans::kSetupRegister)) {
      register_ns += s.DurationNs();
    } else if (Is(s, spans::kSetupPrepare)) {
      prepare_ns += s.DurationNs();
    } else if (Is(s, spans::kOptOptimize)) {
      ++optimized;
      optimize_ns += s.DurationNs();
      reordered += s.Attr(attrs::kReordered);
    }
  }
  for (const auto& [id, view] : requests) {
    if (view.root == nullptr || !view.executed) {
      continue;
    }
    exec_ms.push_back(Ms(view.executor_ns));
    overhead_ms.push_back(Ms(SelfTimeNs(*view.root, view.root_children)));
  }

  const double r = static_cast<double>(runs);
  const double sh = static_cast<double>(sharded);
  const double repeats = static_cast<double>(std::max(in.setup_repeats, 1));
  const int64_t accesses = in.storage.page_hits + in.storage.page_misses;
  return {
      {"serve.queue_wait_ms.p50", Percentile(queue_wait_ms, 50), "ms"},
      {"serve.queue_wait_ms.p99", Percentile(queue_wait_ms, 99), "ms"},
      {"serve.exec_ms.p50", Percentile(exec_ms, 50), "ms"},
      {"serve.exec_ms.p99", Percentile(exec_ms, 99), "ms"},
      {"serve.client_overhead_ms.p50", Percentile(overhead_ms, 50), "ms"},
      {"db.run_ms.p50", Percentile(run_ms, 50), "ms"},
      {"db.run_ms.p99", Percentile(run_ms, 99), "ms"},
      {"db.op.hashjoin_ms_per_query", Ratio(Ms(hashjoin_ns), r), "ms"},
      {"db.op.hashjoin_rows_in_per_query",
       Ratio(static_cast<double>(hashjoin_rows), r), "rows"},
      {"db.op.filterscan_ms_per_query", Ratio(Ms(filterscan_ns), r), "ms"},
      {"db.op.aggregate_ms_per_query", Ratio(Ms(aggregate_ns), r), "ms"},
      {"db.op.filter_ms_per_query", Ratio(Ms(filter_ns), r), "ms"},
      {"db.op.sort_ms_per_query", Ratio(Ms(sort_ns), r), "ms"},
      {"db.op.other_ms_per_query", Ratio(Ms(other_ns), r), "ms"},
      {"db.unattributed_ms_per_query", Ratio(Ms(unattributed_ns), r), "ms"},
      {"db.rows_scanned_per_result_row",
       Ratio(static_cast<double>(rows_scanned),
             static_cast<double>(result_rows)),
       "ratio"},
      {"storage.hit_ratio",
       Ratio(static_cast<double>(in.storage.page_hits),
             static_cast<double>(accesses)),
       "ratio"},
      {"storage.misses_per_query",
       Ratio(static_cast<double>(in.storage.page_misses),
             static_cast<double>(reads)),
       "count"},
      {"storage.sim_stall_ms_per_query",
       Ratio(Ms(in.storage.stall_ns), static_cast<double>(reads)), "ms"},
      {"sched.regions_per_query", Ratio(static_cast<double>(regions), r),
       "count"},
      {"sched.region_wall_ms_per_query", Ratio(Ms(region_wall_ns), r), "ms"},
      {"sched.region_critical_ms_per_query", Ratio(Ms(region_critical_ns), r),
       "ms"},
      {"sched.critical_over_wall",
       Ratio(static_cast<double>(region_critical_ns),
             static_cast<double>(region_wall_ns)),
       "ratio"},
      {"sql.plan_ms.p50", Percentile(plan_ms, 50), "ms"},
      {"sql.plan_ms.p99", Percentile(plan_ms, 99), "ms"},
      {"opt.optimize_ms_per_query",
       Ratio(Ms(optimize_ns), static_cast<double>(optimized)), "ms"},
      {"opt.plans_reordered", static_cast<double>(reordered) / repeats,
       "count"},
      {"txn.commit_ms.p50", Percentile(commit_ms, 50), "ms"},
      {"txn.commit_ms.p90", Percentile(commit_ms, 90), "ms"},
      {"txn.commit_due_latency_ms.p50", Percentile(commit_due_ms, 50), "ms"},
      {"txn.generator_late_ms.max", Ms(late_max_ns), "ms"},
      {"txn.refresh_ms.p50", Percentile(refresh_ms, 50), "ms"},
      {"txn.refresh_ms.p99", Percentile(refresh_ms, 99), "ms"},
      {"txn.refresh_ms_total", Ms(refresh_total_ns), "ms"},
      {"txn.refresh_share",
       Ratio(static_cast<double>(refresh_total_ns),
             static_cast<double>(refresh_total_ns + run_total_ns)),
       "ratio"},
      {"txn.fsyncs_per_commit",
       Ratio(static_cast<double>(in.writes.fsyncs),
             static_cast<double>(commits_ok)),
       "count"},
      {"txn.wal_bytes_per_row",
       Ratio(static_cast<double>(in.writes.bytes_written),
             static_cast<double>(in.rows_acked)),
       "B/row"},
      {"txn.rss_growth_mb_per_commit",
       Ratio(in.rss_growth_mb, static_cast<double>(commits_ok)), "MB"},
      {"txn.ingest_rows_per_s",
       Ratio(static_cast<double>(in.rows_acked), in.window_s), "rows/s"},
      {"shard.execute_ms.p50", Percentile(execute_ms, 50), "ms"},
      {"shard.execute_ms.p99", Percentile(execute_ms, 99), "ms"},
      {"shard.slowest_shard_ms_per_query", Ratio(Ms(slowest_ns), sh), "ms"},
      {"shard.shard_queue_wait_ms_per_query", Ratio(Ms(slowest_queue_ns), sh),
       "ms"},
      {"shard.coordinator_ms_per_query", Ratio(Ms(coordinator_ns), sh), "ms"},
      {"shard.fragments_per_query", Ratio(static_cast<double>(fragments), sh),
       "count"},
      {"setup.datagen_s", static_cast<double>(datagen_ns) / 1e9 / repeats,
       "s"},
      {"setup.register_s", static_cast<double>(register_ns) / 1e9 / repeats,
       "s"},
      {"setup.prepare_s", static_cast<double>(prepare_ns) / 1e9 / repeats,
       "s"},
      {"trace.overhead_pct",
       100.0 * Ratio(in.qps_untraced - in.qps_traced, in.qps_untraced), "%"},
  };
}

}  // namespace perfbench
}  // namespace perfeval
