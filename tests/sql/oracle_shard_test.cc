// Sharded differential oracle (DESIGN.md S16): all 22 TPC-H queries run
// scatter-gather across 2- and 4-shard clusters, swept over execution
// modes and join algorithms on the shard engines, and each merged result
// is diffed against the single-node engine. The distributed path — hash
// partitioning, fragment extraction, partial-aggregate merging, residual
// execution — shares none of its merge logic with single-node execution,
// so agreement here localizes distribution bugs the same way the
// reference oracle localizes engine bugs.
//
// Comparison discipline matches the single-node oracle: multiset row
// comparison (TPC-H spec ordering can tie) with 1e-9 relative tolerance
// on doubles (per-shard partial SUMs reassociate the additions).

#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "db/reference.h"
#include "shard/cluster.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace sql {
namespace {

using db::ExecMode;
using db::JoinAlgo;

constexpr double kShardSf = 0.002;
constexpr double kDoubleTol = 1e-9;

db::Database* ShardOracleDb() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(kShardSf);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

shard::ShardCluster* OracleCluster(int num_shards) {
  static auto* clusters =
      new std::map<int, std::unique_ptr<shard::ShardCluster>>();
  auto it = clusters->find(num_shards);
  if (it == clusters->end()) {
    shard::ShardClusterOptions options;
    options.num_shards = num_shards;
    options.shard_service.workers = 2;
    options.shard_service.fingerprint_results = false;
    auto cluster = std::make_unique<shard::ShardCluster>(options);
    workload::TpchGenerator gen(kShardSf);
    cluster->LoadTpch(&gen);
    it = clusters->emplace(num_shards, std::move(cluster)).first;
  }
  return it->second.get();
}

class ShardedTpchOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedTpchOracleTest, ShardedMatchesSingleNode) {
  db::Database* database = ShardOracleDb();
  db::PlanPtr plan =
      workload::GetTpchQuery(GetParam()).Build(*database);
  ASSERT_NE(plan, nullptr);
  db::QueryResult expected = database->Run(plan);

  const ExecMode kModes[] = {ExecMode::kDebug, ExecMode::kOptimized};
  const JoinAlgo kAlgos[] = {JoinAlgo::kHash, JoinAlgo::kRadix,
                             JoinAlgo::kMerge};
  for (int num_shards : {2, 4}) {
    shard::ShardCluster* cluster = OracleCluster(num_shards);
    for (JoinAlgo algo : kAlgos) {
      for (int s = 0; s < cluster->num_shards(); ++s) {
        cluster->shard_db(s).set_join_algo(algo);
      }
      for (ExecMode mode : kModes) {
        shard::ShardedResult actual = cluster->Execute(plan, mode);
        std::string diff =
            db::DiffTables(*actual.result.table, *expected.table, kDoubleTol,
                           /*ignore_row_order=*/true);
        EXPECT_EQ(diff, "")
            << "shards=" << num_shards << " algo=" << JoinAlgoName(algo)
            << " mode=" << ExecModeName(mode);
      }
    }
    for (int s = 0; s < cluster->num_shards(); ++s) {
      cluster->shard_db(s).set_join_algo(JoinAlgo::kRadix);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All22, ShardedTpchOracleTest,
                         ::testing::Range(1, 23));

}  // namespace
}  // namespace sql
}  // namespace perfeval
