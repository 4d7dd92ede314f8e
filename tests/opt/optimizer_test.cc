// The cost-based plan rewrite (opt/optimizer.h). Safety first: on every
// TPC-H plan the optimized tree must produce the same relation as the
// rule-built tree (multiset-compared, 1e-9 double tolerance — join
// reordering legitimately reassociates double sums), with the same output
// schema, deterministically. Then shape: the pass must actually engage on
// the multi-join queries, leave join-free plans untouched, absorb
// column-equality filters, and pin per-join algorithms the DP chose.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/plan.h"
#include "db/reference.h"
#include "opt/estimator.h"
#include "opt/optimizer.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"
#include "../test_scans.h"

namespace perfeval {
namespace opt {
namespace {

constexpr double kDoubleTol = 1e-9;

db::Database* Db() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(0.005);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

class TpchOptimizeTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchOptimizeTest, OptimizedPlanIsEquivalent) {
  db::Database* database = Db();
  db::PlanPtr plan = workload::GetTpchQuery(GetParam()).Build(*database);
  ASSERT_NE(plan, nullptr);
  OptimizeResult optimized = Optimize(plan, *database);
  ASSERT_NE(optimized.plan, nullptr);

  // Downstream consumers were compiled against the rule plan's schema:
  // the optimizer must reproduce it exactly (names, order, types).
  const db::Schema& before = plan->schema();
  const db::Schema& after = optimized.plan->schema();
  ASSERT_EQ(before.columns().size(), after.columns().size());
  for (size_t i = 0; i < before.columns().size(); ++i) {
    EXPECT_EQ(before.columns()[i].name, after.columns()[i].name);
    EXPECT_EQ(before.columns()[i].type, after.columns()[i].type);
  }

  db::QueryResult expected = database->Run(plan);
  db::QueryResult actual = database->Run(optimized.plan);
  EXPECT_EQ(db::DiffTables(*actual.table, *expected.table, kDoubleTol,
                           /*ignore_row_order=*/true),
            "")
      << db::Explain(optimized.plan);
}

TEST_P(TpchOptimizeTest, RewriteIsDeterministic) {
  db::Database* database = Db();
  db::PlanPtr plan = workload::GetTpchQuery(GetParam()).Build(*database);
  ASSERT_NE(plan, nullptr);
  OptimizeResult a = Optimize(plan, *database);
  OptimizeResult b = Optimize(plan, *database);
  EXPECT_EQ(db::Explain(a.plan), db::Explain(b.plan));
  EXPECT_EQ(a.regions, b.regions);
  EXPECT_EQ(a.reordered, b.reordered);
}

INSTANTIATE_TEST_SUITE_P(All22, TpchOptimizeTest, ::testing::Range(1, 23));

TEST(OptimizerTest, EngagesOnTheJoinQueries) {
  db::Database* database = Db();
  int regions = 0;
  int reordered = 0;
  int pinned = 0;
  for (int q = 1; q <= 22; ++q) {
    db::PlanPtr plan = workload::GetTpchQuery(q).Build(*database);
    OptimizeResult result = Optimize(plan, *database);
    regions += result.regions;
    reordered += result.reordered;
    if (db::Explain(result.plan).find("algo=") != std::string::npos) {
      ++pinned;
    }
  }
  // The 22 plans contain dozens of equi-join regions; the pass must have
  // examined many, re-ordered at least one, and pinned algorithms.
  EXPECT_GT(regions, 10);
  EXPECT_GE(reordered, 1);
  EXPECT_GT(pinned, 5);
}

TEST(OptimizerTest, JoinFreePlansAreUntouched) {
  db::Database* database = Db();
  db::PlanPtr plan = db::Aggregate(ScanOf(*Db(), "lineitem"), {"l_returnflag"},
                                   {{db::AggOp::kCount, nullptr, "n"}});
  OptimizeResult result = Optimize(plan, *database);
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(result.plan.get(), plan.get());
}

TEST(OptimizerTest, AbsorbsColumnEqualityFilterAsJoinEdge) {
  db::Database* database = Db();
  // supplier and customer both join nation; the cross-table equality
  // s_nationkey = c_nationkey arrives as a Filter over a join, which the
  // optimizer may absorb as an edge — results must be unchanged either
  // way.
  db::PlanPtr join = db::HashJoin(
      db::HashJoin(ScanOf(*Db(), "supplier"), ScanOf(*Db(), "nation"),
                   "s_nationkey", "n_nationkey"),
      ScanOf(*Db(), "customer"), "s_nationkey", "c_nationkey");
  const db::Schema& schema = join->schema();
  db::PlanPtr plan = db::Aggregate(
      db::Filter(join, db::Eq(db::Col(schema, "s_nationkey"),
                              db::Col(schema, "c_nationkey"))),
      {"n_name"}, {{db::AggOp::kCount, nullptr, "n"}});
  OptimizeResult optimized = Optimize(plan, *database);
  db::QueryResult expected = database->Run(plan);
  db::QueryResult actual = database->Run(optimized.plan);
  EXPECT_EQ(db::DiffTables(*actual.table, *expected.table, kDoubleTol,
                           /*ignore_row_order=*/true),
            "");
}

TEST(OptimizerTest, ResultsIdenticalAcrossThreadCounts) {
  db::Database* database = Db();
  // The optimized plan must inherit the engine's determinism contract:
  // the same plan, any worker count, identical relations.
  db::PlanPtr plan = workload::GetTpchQuery(5).Build(*database);
  OptimizeResult optimized = Optimize(plan, *database);
  database->set_threads(1);
  db::QueryResult t1 = database->Run(optimized.plan);
  database->set_threads(4);
  db::QueryResult t4 = database->Run(optimized.plan);
  database->set_threads(1);
  EXPECT_EQ(db::DiffTables(*t4.table, *t1.table, /*tolerance=*/0.0,
                           /*ignore_row_order=*/false),
            "");
}

}  // namespace
}  // namespace opt
}  // namespace perfeval
