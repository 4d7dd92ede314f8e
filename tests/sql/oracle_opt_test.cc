// Differential oracle for the cost-based optimizer (DESIGN.md S17): the
// optimizer re-orders join trees and pins per-join algorithms, which is
// exactly the kind of rewrite that can silently corrupt results — so every
// TPC-H plan and a fuzzed-query sweep run with the optimizer enabled
// across execution modes x worker threads {1, 4} x shard counts {1, 2},
// and each result is diffed against BOTH the rule-only plan's result and
// the row-at-a-time reference interpreter. Zero mismatches required.
//
// Comparison discipline matches the base oracle: TPC-H as multisets,
// fuzzed queries positionally (they end in a total-order ORDER BY), 1e-9
// relative tolerance on doubles — join reordering reassociates per-group
// double sums, which legitimately differs in the last ulps.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "db/reference.h"
#include "opt/optimizer.h"
#include "shard/cluster.h"
#include "sql/planner.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace sql {
namespace {

using db::ExecMode;

constexpr double kOptSf = 0.002;
constexpr double kDoubleTol = 1e-9;

const ExecMode kModes[] = {ExecMode::kDebug, ExecMode::kOptimized};
const int kThreads[] = {1, 4};

db::Database* OptOracleDb() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(kOptSf);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

shard::ShardCluster* OptOracleCluster() {
  static shard::ShardCluster* cluster = [] {
    shard::ShardClusterOptions options;
    options.num_shards = 2;
    options.shard_service.workers = 2;
    options.shard_service.fingerprint_results = false;
    auto* c = new shard::ShardCluster(options);
    workload::TpchGenerator gen(kOptSf);
    c->LoadTpch(&gen);
    return c;
  }();
  return cluster;
}

/// Runs `optimized` across modes x threads (1 shard) plus the 2-shard
/// scatter-gather path, diffing every result against `expected`.
void DiffOptimizedEverywhere(db::Database* database,
                             const db::PlanPtr& optimized,
                             const db::Table& expected,
                             bool ignore_row_order) {
  for (ExecMode mode : kModes) {
    for (int threads : kThreads) {
      database->set_threads(threads);
      db::QueryResult result = database->Run(optimized, mode);
      EXPECT_EQ(DiffTables(*result.table, expected, kDoubleTol,
                           ignore_row_order),
                "")
          << "mode=" << ExecModeName(mode) << " threads=" << threads
          << "\n" << db::Explain(optimized);
    }
  }
  database->set_threads(1);
  shard::ShardCluster* cluster = OptOracleCluster();
  for (ExecMode mode : kModes) {
    shard::ShardedResult sharded = cluster->Execute(optimized, mode);
    EXPECT_EQ(DiffTables(*sharded.result.table, expected, kDoubleTol,
                         /*ignore_row_order=*/true),
              "")
        << "shards=2 mode=" << ExecModeName(mode) << "\n"
        << db::Explain(optimized);
  }
}

class OptimizedTpchOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizedTpchOracleTest, OptimizerMatchesReferenceAndRulePlan) {
  db::Database* database = OptOracleDb();
  db::PlanPtr rule_plan =
      workload::GetTpchQuery(GetParam()).Build(*database);
  ASSERT_NE(rule_plan, nullptr);
  db::PlanPtr optimized = opt::Optimize(rule_plan, *database).plan;
  ASSERT_NE(optimized, nullptr);

  // Oracle 1: the independent reference interpreter.
  std::shared_ptr<const db::Table> reference =
      db::ReferenceExecute(rule_plan, *database);
  // Oracle 2: the engine on the rule-only plan.
  db::QueryResult rule_result = database->Run(rule_plan);

  DiffOptimizedEverywhere(database, optimized, *reference,
                          /*ignore_row_order=*/true);
  DiffOptimizedEverywhere(database, optimized, *rule_result.table,
                          /*ignore_row_order=*/true);
}

INSTANTIATE_TEST_SUITE_P(All22, OptimizedTpchOracleTest,
                         ::testing::Range(1, 23));

/// Fuzzed join queries with a total-order ORDER BY, planned through the
/// SQL path with the `optimize` knob on — the exact production wiring
/// (`\opt on`).
TEST(OptimizedSqlOracleTest, FuzzedQueriesMatchReferenceAndRulePlan) {
  db::Database* database = OptOracleDb();
  Pcg32 rng(20260808);
  const int kQueries = 60;
  int reordered_plans = 0;
  for (int i = 0; i < kQueries; ++i) {
    std::string agg;
    switch (rng.NextBounded(4)) {
      case 0: agg = "sum(l_quantity)"; break;
      case 1: agg = "avg(l_extendedprice)"; break;
      case 2: agg = "count(*)"; break;
      default: agg = "max(l_extendedprice * (1 - l_discount))"; break;
    }
    std::string group =
        rng.NextBernoulli(0.5) ? "l_returnflag" : "o_orderpriority";
    std::string sql = "SELECT " + group + ", " + agg +
                      " AS agg_val FROM lineitem JOIN orders ON "
                      "l_orderkey = o_orderkey";
    if (rng.NextBernoulli(0.7)) {
      sql += StrFormat(" WHERE l_quantity < %lld",
                       (long long)rng.NextInRange(5, 45));
    }
    sql += " GROUP BY " + group + " ORDER BY " + group;
    SCOPED_TRACE(sql);

    database->set_optimize(false);
    Result<PlannedQuery> rule = PlanQuery(sql, *database);
    ASSERT_TRUE(rule.ok()) << rule.status().ToString();
    database->set_optimize(true);
    Result<PlannedQuery> optimized = PlanQuery(sql, *database);
    database->set_optimize(false);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    if (db::Explain(optimized->plan) != db::Explain(rule->plan)) {
      ++reordered_plans;
    }

    std::shared_ptr<const db::Table> reference =
        db::ReferenceExecute(rule->plan, *database);
    db::QueryResult rule_result = database->Run(rule->plan);
    for (ExecMode mode : kModes) {
      for (int threads : kThreads) {
        database->set_threads(threads);
        db::QueryResult result = database->Run(optimized->plan, mode);
        EXPECT_EQ(DiffTables(*result.table, *reference, kDoubleTol,
                             /*ignore_row_order=*/false),
                  "")
            << "mode=" << ExecModeName(mode) << " threads=" << threads;
        EXPECT_EQ(DiffTables(*result.table, *rule_result.table, kDoubleTol,
                             /*ignore_row_order=*/false),
                  "")
            << "vs rule plan, mode=" << ExecModeName(mode)
            << " threads=" << threads;
      }
    }
    database->set_threads(1);
  }
  // The sweep must actually exercise the optimizer, not no-op through it.
  EXPECT_GT(reordered_plans, 0);
}

/// Plan choice is part of the determinism contract: the knob may not let
/// scheduling state leak into the chosen plan.
TEST(OptimizedSqlOracleTest, PlanChoiceIgnoresThreadCount) {
  db::Database* database = OptOracleDb();
  const std::string sql =
      "SELECT l_returnflag, sum(l_quantity) AS q FROM lineitem "
      "JOIN orders ON l_orderkey = o_orderkey "
      "WHERE o_totalprice > 1000 GROUP BY l_returnflag ORDER BY "
      "l_returnflag";
  database->set_optimize(true);
  database->set_threads(1);
  Result<PlannedQuery> t1 = PlanQuery(sql, *database);
  database->set_threads(4);
  Result<PlannedQuery> t4 = PlanQuery(sql, *database);
  database->set_threads(1);
  database->set_optimize(false);
  ASSERT_TRUE(t1.ok() && t4.ok());
  EXPECT_EQ(db::Explain(t1->plan), db::Explain(t4->plan));
}

}  // namespace
}  // namespace sql
}  // namespace perfeval
