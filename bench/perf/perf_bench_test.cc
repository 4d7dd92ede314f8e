#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/types.h"
#include "layers.h"
#include "perf_util.h"
#include "serve/service.h"
#include "sql/planner.h"
#include "trace.h"
#include "txn/store.h"
#include "txn/vdisk.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace perfbench {
namespace {

// ---- Percentiles and their support rule ----

TEST(PercentileTest, NearestRankOnRawSamples) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) {
    samples.push_back(i);
  }
  EXPECT_EQ(Percentile(samples, 50), 50.0);
  EXPECT_EQ(Percentile(samples, 99), 99.0);
  EXPECT_EQ(Percentile(samples, 100), 100.0);
  EXPECT_EQ(Percentile({7.0}, 99), 7.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_TRUE(PercentileSupported(5000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_FALSE(PercentileSupported(0, 99));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(19, 50));
}

// ---- Seed determinism of every schedule ----

TEST(ScheduleTest, PermutationsAreSeededPermutationsOf22Queries) {
  for (int client = 0; client < 4; ++client) {
    std::vector<int> order = ClientPermutation(7, client);
    EXPECT_EQ(order, ClientPermutation(7, client));
    std::set<int> distinct(order.begin(), order.end());
    ASSERT_EQ(order.size(), 22u);
    EXPECT_EQ(distinct.size(), 22u);
    EXPECT_EQ(*distinct.begin(), 1);
    EXPECT_EQ(*distinct.rbegin(), 22);
  }
  EXPECT_NE(ClientPermutation(7, 0), ClientPermutation(7, 1));
  EXPECT_NE(ClientPermutation(7, 0), ClientPermutation(8, 0));
}

TEST(ScheduleTest, AdhocTextsAndChoicesAreSeeded) {
  std::vector<std::string> pool = AdhocSqlPool(3);
  EXPECT_EQ(pool, AdhocSqlPool(3));
  EXPECT_NE(pool, AdhocSqlPool(4));
  ASSERT_EQ(pool.size(), 2u * kAdhocParams);
  EXPECT_NE(pool.front().find("GROUP BY l_returnflag"), std::string::npos);
  EXPECT_NE(pool.back().find("l_discount BETWEEN"), std::string::npos);

  std::vector<size_t> first, again;
  int q1 = 0;
  for (uint64_t seq = 0; seq < 1000; ++seq) {
    first.push_back(AdhocChoice(3, seq));
    again.push_back(AdhocChoice(3, seq));
    ASSERT_LT(first.back(), pool.size());
    q1 += first.back() < static_cast<size_t>(kAdhocParams) ? 1 : 0;
  }
  EXPECT_EQ(first, again);
  EXPECT_NEAR(q1 / 1000.0, kAdhocQ1Share, 0.05);
}

TEST(ScheduleTest, WriterRowsAreSeededWithFreshKeys) {
  IngestKeys keys{1500, 150, 200, 10};
  WriterCommit a = WriterRows(5, 0, keys);
  WriterCommit b = WriterRows(5, 0, keys);
  ASSERT_EQ(a.order.size(), b.order.size());
  for (size_t c = 0; c < a.order.size(); ++c) {
    EXPECT_EQ(a.order[c].ToString(), b.order[c].ToString());
  }
  ASSERT_EQ(a.lines.size(), static_cast<size_t>(kLinesPerCommit));
  for (size_t r = 0; r < a.lines.size(); ++r) {
    for (size_t c = 0; c < a.lines[r].size(); ++c) {
      EXPECT_EQ(a.lines[r][c].ToString(), b.lines[r][c].ToString());
    }
  }
  EXPECT_EQ(a.order[0].ToString(), "1501");
  EXPECT_EQ(WriterRows(5, 9, keys).order[0].ToString(), "1510");
  EXPECT_EQ(a.lines[0][0].ToString(), "1501");
}

TEST(ScheduleTest, EveryAdhocTextPlans) {
  db::Database database;
  workload::TpchGenerator(0.002, 11).LoadAll(&database);
  for (const std::string& text : AdhocSqlPool(1)) {
    Result<sql::PlannedQuery> planned = sql::PlanQuery(text, database);
    EXPECT_TRUE(planned.ok()) << text << ": " << planned.status().ToString();
  }
}

TEST(ScheduleTest, WriterRowsChangeNoQueryAnswer) {
  db::Database database;
  workload::TpchGenerator(0.002, 11).LoadAll(&database);
  std::vector<db::PlanPtr> plans;
  std::vector<uint64_t> before;
  for (int q = 1; q <= 22; ++q) {
    plans.push_back(workload::GetTpchQuery(q).Build(database));
    before.push_back(serve::QueryService::FingerprintTable(
        *database.Run(plans.back()).table));
  }
  IngestKeys keys;
  auto count = [&database](const char* table) {
    return static_cast<int64_t>(database.GetTable(table).num_rows());
  };
  keys.max_orderkey = count("orders");
  keys.customers = count("customer");
  keys.parts = count("part");
  keys.suppliers = count("supplier");
  txn::VirtualDisk disk;
  txn::DeltaStore store(&database, &disk);
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t commit = 0; commit < 3; ++commit) {
    WriterCommit rows = WriterRows(1, commit, keys);
    uint64_t txn_id = store.Begin();
    ASSERT_TRUE(store.BufferInsert(txn_id, "orders", {rows.order}).ok());
    ASSERT_TRUE(store.BufferInsert(txn_id, "lineitem", rows.lines).ok());
    ASSERT_TRUE(store.Commit(txn_id).ok());
  }
  database.Refresh();
  EXPECT_EQ(database.GetTable("orders").num_rows(),
            static_cast<size_t>(keys.max_orderkey) + 3);
  for (size_t q = 0; q < plans.size(); ++q) {
    EXPECT_EQ(serve::QueryService::FingerprintTable(
                  *database.Run(plans[q]).table),
              before[q])
        << "Q" << q + 1;
  }
}

// ---- Span self time and residuals ----

Span MakeSpan(uint64_t request, const char* name, const char* parent,
              int64_t start, int64_t end) {
  Span s;
  s.request = request;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(TraceTest, SelfTimeSubtractsTheUnionOfClippedChildren) {
  Span parent = MakeSpan(1, "p", "", 0, 100);
  Span a = MakeSpan(1, "a", "p", 10, 30);
  Span b = MakeSpan(1, "b", "p", 20, 50);   // overlaps a
  Span c = MakeSpan(1, "c", "p", 90, 120);  // runs past the parent
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {&a}), 80);
  EXPECT_EQ(SelfTimeNs(parent, {&a, &b}), 60);
  EXPECT_EQ(SelfTimeNs(parent, {&c, &b, &a}), 50);
  Span whole = MakeSpan(1, "w", "p", -5, 105);
  EXPECT_EQ(SelfTimeNs(parent, {&whole}), 0);
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return m.value;
    }
  }
  ADD_FAILURE() << "no metric " << name;
  return -1.0;
}

TEST(TraceTest, LayerResidualsFromSpans) {
  std::vector<Span> trace;
  trace.push_back(MakeSpan(1, spans::kRequest, "", 0, 10'000'000));
  trace.push_back(MakeSpan(1, spans::kServeExecute, spans::kRequest,
                           1'000'000, 9'000'000));
  trace.back().attrs = {{attrs::kQueueWaitNs, 2'000'000}};
  trace.push_back(MakeSpan(1, spans::kDbRun, spans::kServeExecute, 3'000'000,
                           8'000'000));
  trace.back().attrs = {{attrs::kHashJoinNs, 3'000'000},
                        {attrs::kFilterScanNs, 1'000'000},
                        {attrs::kRowsScanned, 400},
                        {attrs::kResultRows, 4}};
  trace.push_back(MakeSpan(2, spans::kRequest, "", 0, 4'000'000));
  trace.push_back(MakeSpan(2, spans::kServeExecute, spans::kRequest, 0,
                           4'000'000));
  trace.push_back(MakeSpan(2, spans::kShardExecute, spans::kServeExecute,
                           0, 3'000'000));
  trace.back().attrs = {{attrs::kSlowestShardNs, 2'500'000},
                        {attrs::kFragments, 3}};
  // Fragments that overlapped on one shard sum past the span: capped.
  trace.push_back(MakeSpan(3, spans::kShardExecute, spans::kServeExecute,
                           0, 1'000'000));
  trace.back().attrs = {{attrs::kSlowestShardNs, 1'700'000},
                        {attrs::kFragments, 1}};
  LayerInputs in;
  in.window_s = 1.0;
  in.qps_untraced = 100.0;
  in.qps_traced = 95.0;
  std::vector<Metric> m = DeriveLayerMetrics(trace, in);
  EXPECT_DOUBLE_EQ(Find(m, "db.unattributed_ms_per_query"), 1.0);
  EXPECT_DOUBLE_EQ(Find(m, "db.op.hashjoin_ms_per_query"), 3.0);
  EXPECT_DOUBLE_EQ(Find(m, "db.rows_scanned_per_result_row"), 100.0);
  EXPECT_DOUBLE_EQ(Find(m, "shard.coordinator_ms_per_query"), 0.25);
  EXPECT_DOUBLE_EQ(Find(m, "shard.slowest_shard_ms_per_query"), 1.75);
  EXPECT_DOUBLE_EQ(Find(m, "shard.fragments_per_query"), 2.0);
  // Request 1 spends 2 ms outside serve.execute, request 2 none.
  std::vector<double> overhead = {0.0, 2.0};
  EXPECT_DOUBLE_EQ(Find(m, "serve.client_overhead_ms.p50"),
                   Percentile(overhead, 50));
  EXPECT_DOUBLE_EQ(Find(m, "serve.exec_ms.p99"), 5.0);
  EXPECT_DOUBLE_EQ(Find(m, "serve.queue_wait_ms.p99"), 2.0);
  EXPECT_DOUBLE_EQ(Find(m, "trace.overhead_pct"), 5.0);
  EXPECT_DOUBLE_EQ(Find(m, "sql.plan_ms.p50"), 0.0);  // no sql.plan spans
}

// ---- The VmHWM reader ----

TEST(RssTest, ReadsKilobyteFieldsOfProcStatus) {
  const std::string status =
      "Name:\tperf_bench\nVmPeak:\t  999999 kB\nVmHWM:\t   123456 kB\n"
      "VmRSS:\t    65432 kB\nThreads:\t4\n";
  EXPECT_EQ(StatusFieldKb(status, "VmHWM"), 123456);
  EXPECT_EQ(StatusFieldKb(status, "VmRSS"), 65432);
  EXPECT_EQ(StatusFieldKb(status, "VmSwap"), -1);
  EXPECT_EQ(StatusFieldKb(status, "Threads"), -1);  // no kB unit
  EXPECT_EQ(StatusFieldKb("VmHWM:\tlots kB\n", "VmHWM"), -1);
  EXPECT_GT(PeakRssMb(), 0.0);
  EXPECT_GE(PeakRssMb(), CurrentRssMb());
}

}  // namespace
}  // namespace perfbench
}  // namespace perfeval
