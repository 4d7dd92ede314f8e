// Scatter-gather equality and determinism (DESIGN.md S16). The central
// claims under test:
//
//   1. Results: every TPC-H query executed across N shards equals the
//      single-node result at every shard count (multiset comparison with
//      the repo's 1e-9 double tolerance — double SUMs reassociate across
//      shards).
//   2. StorageStats: the coordinator's replayed logical I/O is
//      *bit-identical* to the single-node counters — exact integer
//      equality on hits/misses/bytes/stall, any shard count.
//   3. Determinism: at a fixed shard count the merged result fingerprint
//      is bit-identical at any per-shard thread count.
//   4. Straggler attribution: a shard with a slow disk shows up as
//      slowest_shard with the stall in its timing split.

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/reference.h"
#include "serve/service.h"
#include "shard/cluster.h"
#include "shard/frontend.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace shard {
namespace {

constexpr double kSf = 0.002;
constexpr double kDoubleTol = 1e-9;

db::Database* SingleNode() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(kSf);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

std::unique_ptr<ShardCluster> MakeCluster(int num_shards,
                                          PartitionScheme scheme) {
  ShardClusterOptions options;
  options.num_shards = num_shards;
  options.shard_service.workers = 2;
  options.shard_service.fingerprint_results = false;
  options.scheme = std::move(scheme);
  auto cluster = std::make_unique<ShardCluster>(options);
  workload::TpchGenerator gen(kSf);
  cluster->LoadTpch(&gen);
  return cluster;
}

ShardCluster* Cluster(int num_shards) {
  static std::map<int, std::unique_ptr<ShardCluster>>* clusters =
      new std::map<int, std::unique_ptr<ShardCluster>>();
  auto it = clusters->find(num_shards);
  if (it == clusters->end()) {
    it = clusters
             ->emplace(num_shards,
                       MakeCluster(num_shards, TpchPartitionScheme()))
             .first;
  }
  return it->second.get();
}

/// A two-shard cluster with customer partitioned on c_custkey in a domain
/// of its own, so orders ⨝ customer is not co-located and joins at the
/// coordinator (TpchPartitionScheme replicates customer).
ShardCluster* CustkeyCluster() {
  static ShardCluster* cluster = [] {
    PartitionScheme scheme = TpchPartitionScheme();
    scheme.tables["customer"] = {"c_custkey", "custkey",
                                 0xc7574aa5deadbeefULL};
    return MakeCluster(2, std::move(scheme)).release();
  }();
  return cluster;
}

/// Cold-runs `plan` on the single-node engine and on the cluster and
/// compares result relations (multiset, 1e-9) and the four logical
/// StorageStats fields (exact).
void ExpectShardedMatches(ShardCluster* cluster, const db::PlanPtr& plan,
                          const char* label) {
  SingleNode()->FlushCaches();
  db::QueryResult expected = SingleNode()->Run(plan);
  cluster->FlushCaches();
  ShardedResult actual = cluster->Execute(plan);

  std::string diff = db::DiffTables(*actual.result.table, *expected.table,
                                    kDoubleTol, /*ignore_row_order=*/true);
  EXPECT_EQ(diff, "") << label;
  EXPECT_EQ(actual.result.storage.page_hits, expected.storage.page_hits)
      << label;
  EXPECT_EQ(actual.result.storage.page_misses, expected.storage.page_misses)
      << label;
  EXPECT_EQ(actual.result.storage.bytes_read, expected.storage.bytes_read)
      << label;
  EXPECT_EQ(actual.result.storage.stall_ns, expected.storage.stall_ns)
      << label;
  EXPECT_EQ(actual.result.server.simulated_stall_ns,
            expected.server.simulated_stall_ns)
      << label;
}

class ShardedTpchTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedTpchTest, MatchesSingleNodeAtEveryShardCount) {
  db::PlanPtr plan =
      workload::GetTpchQuery(GetParam()).Build(*SingleNode());
  for (int n : {1, 2, 4, 8}) {
    std::string label = "Q" + std::to_string(GetParam()) + " shards=" +
                        std::to_string(n);
    ExpectShardedMatches(Cluster(n), plan, label.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(All22, ShardedTpchTest, ::testing::Range(1, 23));

TEST(ShardClusterTest, WarmRunStatsAlsoMatch) {
  // The replay shares the engine's buffer-pool semantics, so the hot-run
  // deltas (second execution, pages resident) must match too.
  db::PlanPtr plan = workload::GetTpchQuery(6).Build(*SingleNode());
  ShardCluster* cluster = Cluster(4);
  SingleNode()->FlushCaches();
  cluster->FlushCaches();
  SingleNode()->Run(plan);
  cluster->Execute(plan);
  db::QueryResult expected = SingleNode()->Run(plan);
  ShardedResult actual = cluster->Execute(plan);
  EXPECT_EQ(actual.result.storage.page_hits, expected.storage.page_hits);
  EXPECT_EQ(actual.result.storage.page_misses, expected.storage.page_misses);
  EXPECT_EQ(actual.result.storage.bytes_read, expected.storage.bytes_read);
  EXPECT_EQ(actual.result.storage.stall_ns, expected.storage.stall_ns);
}

TEST(ShardClusterTest, FingerprintBitIdenticalAcrossShardThreads) {
  ShardCluster* cluster = Cluster(4);
  for (int q : {1, 3, 6, 18}) {
    db::PlanPtr plan = workload::GetTpchQuery(q).Build(*SingleNode());
    for (int s = 0; s < cluster->num_shards(); ++s) {
      cluster->shard_db(s).set_threads(1);
    }
    uint64_t fp1 = serve::QueryService::FingerprintTable(
        *cluster->Execute(plan).result.table);
    for (int s = 0; s < cluster->num_shards(); ++s) {
      cluster->shard_db(s).set_threads(4);
    }
    uint64_t fp4 = serve::QueryService::FingerprintTable(
        *cluster->Execute(plan).result.table);
    for (int s = 0; s < cluster->num_shards(); ++s) {
      cluster->shard_db(s).set_threads(1);
    }
    EXPECT_EQ(fp1, fp4) << "Q" << q;
  }
}

TEST(ShardClusterTest, CoordinatorJoinsRunShardZerosAlgorithm) {
  // With customer partitioned on custkey, Q3's residual plan joins
  // gathered fragments at the coordinator (o_custkey=c_custkey); that join
  // must run the configured algorithm, not a default of the coordinator's
  // own.
  ShardCluster* cluster = CustkeyCluster();
  for (int s = 0; s < cluster->num_shards(); ++s) {
    cluster->shard_db(s).set_join_algo(db::JoinAlgo::kHash);
  }
  db::PlanPtr plan = workload::GetTpchQuery(3).Build(*SingleNode());
  ShardedResult result = cluster->Execute(plan);
  for (int s = 0; s < cluster->num_shards(); ++s) {
    cluster->shard_db(s).set_join_algo(db::JoinAlgo::kRadix);
  }
  bool traced = false;
  for (const db::OpTrace& trace : result.result.profile.traces()) {
    if (trace.op.rfind("HashJoin(", 0) == 0) {
      traced = true;
      EXPECT_NE(trace.op.find(", hash)"), std::string::npos) << trace.op;
    }
  }
  EXPECT_TRUE(traced) << "Q3's residual plan has no coordinator join";
}

TEST(ShardClusterTest, CoordinatorJoinsKeepTheirPinnedAlgorithm) {
  // A pinned join that lands in the residual plan runs its pin at the
  // coordinator, not shard 0's session algorithm (radix here).
  ShardCluster* cluster = CustkeyCluster();
  ASSERT_EQ(cluster->shard_db(0).join_algo(), db::JoinAlgo::kRadix);
  db::PlanPtr plan =
      db::HashJoinWith(db::Scan("orders"), db::Scan("customer"),
                       {"o_custkey"}, {"c_custkey"}, db::JoinAlgo::kMerge);
  ExpectShardedMatches(cluster, plan, "pinned merge join");
  ShardedResult result = cluster->Execute(plan);
  bool traced = false;
  for (const db::OpTrace& trace : result.result.profile.traces()) {
    if (trace.op.rfind("HashJoin(", 0) == 0) {
      traced = true;
      EXPECT_NE(trace.op.find(", merge)"), std::string::npos) << trace.op;
    }
  }
  EXPECT_TRUE(traced) << "the residual plan has no coordinator join";
}

TEST(ShardClusterTest, StragglerShardIsAttributed) {
  ShardClusterOptions options;
  options.num_shards = 4;
  options.shard_service.fingerprint_results = false;
  // Shard 2 runs a spinning-rust disk 10x slower than the default model;
  // the others get zero-cost disks so the contrast is unambiguous.
  for (int s = 0; s < 4; ++s) {
    options.shard_disk_override[s] = db::DiskModel{0, 0.0};
  }
  options.shard_disk_override[2] = db::DiskModel{90'000'000, 200.0};
  ShardCluster cluster(options);
  workload::TpchGenerator gen(kSf);
  cluster.LoadTpch(&gen);

  db::PlanPtr plan = workload::GetTpchQuery(6).Build(*SingleNode());
  cluster.FlushCaches();
  ShardedResult result = cluster.Execute(plan);

  EXPECT_EQ(result.slowest_shard, 2);
  for (int s = 0; s < 4; ++s) {
    if (s == 2) {
      continue;
    }
    EXPECT_GT(result.shards[2].timing.exec_ns,
              result.shards[static_cast<size_t>(s)].timing.exec_ns)
        << "shard " << s;
  }
  // A slow disk changes timing, never results or the logical stats.
  SingleNode()->FlushCaches();
  db::QueryResult expected = SingleNode()->Run(plan);
  EXPECT_EQ(db::DiffTables(*result.result.table, *expected.table, kDoubleTol,
                           /*ignore_row_order=*/true),
            "");
  EXPECT_EQ(result.result.storage.bytes_read, expected.storage.bytes_read);
}

TEST(ShardClusterTest, FrontEndServesPlanlessRequestsWithQuotas) {
  ShardCluster* cluster = Cluster(2);
  serve::ServiceOptions options;
  options.workers = 2;
  options.tenant_quotas["capped"] = 1;
  FrontEnd frontend(cluster, options);

  // Plan-less request: the executor builds TPC-H Q6 against the cluster
  // catalog; fingerprint must equal the single-node result's.
  serve::Request request;
  request.query = 6;
  serve::Response response = frontend.Execute(request);
  ASSERT_TRUE(response.status.ok());
  db::PlanPtr plan = workload::GetTpchQuery(6).Build(*SingleNode());
  EXPECT_EQ(response.fingerprint, serve::QueryService::FingerprintTable(
                                      *SingleNode()->Run(plan).table));

  // The front-end enforces per-tenant admission like the single-node
  // service: a tenant at quota is shed without blocking.
  serve::Request held;
  held.query = 1;
  held.tenant = "capped";
  serve::Request second;
  second.query = 6;
  second.tenant = "capped";
  // Submit both back to back; with quota 1 at least one of the two must
  // be admitted, and a rejection (if the first is still outstanding) is
  // immediate with kOverloaded.
  auto h1 = frontend.Submit(held);
  auto h2 = frontend.Submit(second);
  const serve::Response& r1 = h1->Wait();
  const serve::Response& r2 = h2->Wait();
  EXPECT_TRUE(r1.status.ok());
  if (!r2.status.ok()) {
    EXPECT_EQ(r2.status.code(), StatusCode::kOverloaded);
  }
  frontend.Shutdown();
}

// Concurrent scatter-gather: several client threads drive one cluster's
// front-end at once. Run under TSan (ctest -L shard in the sanitizer
// build) this is the data-race check for the coordinator, the per-shard
// services, and the shared replay storage.
TEST(ShardClusterTest, ConcurrentScatterGatherIsRaceFreeAndCorrect) {
  ShardCluster* cluster = Cluster(2);
  db::PlanPtr q1 = workload::GetTpchQuery(1).Build(*SingleNode());
  db::PlanPtr q6 = workload::GetTpchQuery(6).Build(*SingleNode());
  std::shared_ptr<const db::Table> expected1 = SingleNode()->Run(q1).table;
  std::shared_ptr<const db::Table> expected6 = SingleNode()->Run(q6).table;

  serve::ServiceOptions options;
  options.workers = 4;
  FrontEnd frontend(cluster, options);
  constexpr int kClients = 4;
  constexpr int kPerClient = 4;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        bool odd = (c + i) % 2 == 1;
        serve::Request request;
        request.plan = odd ? q6 : q1;
        serve::Response response = frontend.Execute(request);
        if (!response.status.ok()) {
          failures[c] = response.status.ToString();
          return;
        }
        std::string diff =
            db::DiffTables(*response.table, odd ? *expected6 : *expected1,
                           kDoubleTol, /*ignore_row_order=*/true);
        if (!diff.empty()) {
          failures[c] = diff;
          return;
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  frontend.Shutdown();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
}

TEST(ShardClusterTest, PartitionCoversAndSeparatesRows) {
  // The union of per-shard slices is exactly the input, and each row lands
  // on the shard its key hashes to.
  ShardCluster* cluster = Cluster(4);
  size_t total = 0;
  for (int s = 0; s < 4; ++s) {
    total += cluster->shard_db(s).GetTable("lineitem").num_rows();
  }
  EXPECT_EQ(total, SingleNode()->GetTable("lineitem").num_rows());
  // Replicated tables are whole everywhere.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster->shard_db(s).GetTable("nation").num_rows(),
              SingleNode()->GetTable("nation").num_rows());
  }
}

}  // namespace
}  // namespace shard
}  // namespace perfeval
