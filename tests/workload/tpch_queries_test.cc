#include "workload/tpch_queries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "workload/tpch_gen.h"

namespace perfeval {
namespace workload {
namespace {

using db::Database;
using db::ExecMode;
using db::QueryResult;

/// One shared database for the whole suite — generation is the slow part.
Database* SharedDb() {
  static Database* database = [] {
    auto* d = new Database();
    TpchGenerator gen(0.005);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

TEST(TpchQueriesTest, RegistryHasAll22) {
  const std::vector<TpchQuery>& queries = AllTpchQueries();
  ASSERT_EQ(queries.size(), 22u);
  for (int q = 1; q <= 22; ++q) {
    EXPECT_EQ(queries[static_cast<size_t>(q - 1)].number, q);
    EXPECT_FALSE(queries[static_cast<size_t>(q - 1)].name.empty());
    EXPECT_FALSE(
        queries[static_cast<size_t>(q - 1)].simplification.empty());
  }
  EXPECT_EQ(GetTpchQuery(6).name, "Forecasting Revenue Change");
}

class TpchQueryParamTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryParamTest, BuildsAndRuns) {
  Database* database = SharedDb();
  const TpchQuery& query = GetTpchQuery(GetParam());
  db::PlanPtr plan = query.Build(*database);
  ASSERT_NE(plan, nullptr);
  QueryResult result = database->Run(plan);
  ASSERT_NE(result.table, nullptr);
  EXPECT_GT(result.table->num_columns(), 0u);
}

TEST_P(TpchQueryParamTest, DebugAndOptimizedModesAgree) {
  Database* database = SharedDb();
  const TpchQuery& query = GetTpchQuery(GetParam());
  db::PlanPtr plan = query.Build(*database);
  QueryResult optimized = database->Run(plan, ExecMode::kOptimized);
  QueryResult debug = database->Run(plan, ExecMode::kDebug);
  ASSERT_EQ(optimized.table->num_rows(), debug.table->num_rows());
  ASSERT_EQ(optimized.table->num_columns(), debug.table->num_columns());
  for (size_t r = 0; r < optimized.table->num_rows(); ++r) {
    for (size_t c = 0; c < optimized.table->num_columns(); ++c) {
      EXPECT_EQ(optimized.table->ValueAt(r, c).ToString(),
                debug.table->ValueAt(r, c).ToString())
          << "Q" << GetParam() << " row " << r << " col " << c;
    }
  }
}

TEST_P(TpchQueryParamTest, RepeatedRunsAreIdentical) {
  Database* database = SharedDb();
  const TpchQuery& query = GetTpchQuery(GetParam());
  db::PlanPtr plan = query.Build(*database);
  QueryResult first = database->Run(plan);
  QueryResult second = database->Run(plan);
  ASSERT_EQ(first.table->num_rows(), second.table->num_rows());
  for (size_t r = 0; r < first.table->num_rows(); ++r) {
    for (size_t c = 0; c < first.table->num_columns(); ++c) {
      EXPECT_EQ(first.table->ValueAt(r, c).ToString(),
                second.table->ValueAt(r, c).ToString());
    }
  }
}

TEST_P(TpchQueryParamTest, ExplainIsNonTrivial) {
  Database* database = SharedDb();
  db::PlanPtr plan = GetTpchQuery(GetParam()).Build(*database);
  std::string explain = db::Explain(plan);
  EXPECT_GT(explain.size(), 20u);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryParamTest,
                         ::testing::Range(1, 23));

TEST(TpchQueriesTest, Q1ShapeMatchesSpec) {
  Database* database = SharedDb();
  QueryResult result = database->Run(GetTpchQuery(1).Build(*database));
  // Q1 groups by (returnflag, linestatus): exactly the 4 spec groups
  // A/F, N/F, N/O, R/F at any non-trivial scale.
  ASSERT_EQ(result.table->num_rows(), 4u);
  EXPECT_EQ(result.table->num_columns(), 10u);
  EXPECT_EQ(result.table->ValueAt(0, 0).AsString(), "A");
  EXPECT_EQ(result.table->ValueAt(0, 1).AsString(), "F");
  EXPECT_EQ(result.table->ValueAt(3, 0).AsString(), "R");
  // avg_qty must lie inside [1, 50].
  double avg_qty = result.table->ColumnByName("avg_qty").GetDouble(0);
  EXPECT_GE(avg_qty, 1.0);
  EXPECT_LE(avg_qty, 50.0);
  // sum_disc_price <= sum_base_price (discounts only reduce).
  EXPECT_LE(result.table->ColumnByName("sum_disc_price").GetDouble(0),
            result.table->ColumnByName("sum_base_price").GetDouble(0));
}

TEST(TpchQueriesTest, Q6RevenueMatchesManualScan) {
  Database* database = SharedDb();
  QueryResult result = database->Run(GetTpchQuery(6).Build(*database));
  ASSERT_EQ(result.table->num_rows(), 1u);
  double revenue = result.table->ColumnByName("revenue").GetDouble(0);

  // Recompute by hand.
  const db::Table& lineitem = database->GetTable("lineitem");
  int32_t lo = db::DateFromYmd(1994, 1, 1);
  int32_t hi = db::DateFromYmd(1995, 1, 1);
  const auto& ship = lineitem.ColumnByName("l_shipdate").ints();
  const auto& disc = lineitem.ColumnByName("l_discount").doubles();
  const auto& qty = lineitem.ColumnByName("l_quantity").doubles();
  const auto& price = lineitem.ColumnByName("l_extendedprice").doubles();
  double expected = 0.0;
  for (size_t r = 0; r < lineitem.num_rows(); ++r) {
    if (ship[r] >= lo && ship[r] < hi && disc[r] >= 0.05 - 1e-12 &&
        disc[r] <= 0.07 + 1e-12 && qty[r] < 24.0) {
      expected += price[r] * disc[r];
    }
  }
  EXPECT_NEAR(revenue, expected, 1e-6 * std::max(1.0, expected));
}

TEST(TpchQueriesTest, Q13CountsEveryOrderOnce) {
  Database* database = SharedDb();
  QueryResult result = database->Run(GetTpchQuery(13).Build(*database));
  // Sum over c_count * custdist = number of orders passing the comment
  // filter (every order counted exactly once).
  const db::Column& c_count = result.table->ColumnByName("c_count");
  const db::Column& custdist = result.table->ColumnByName("custdist");
  int64_t orders_counted = 0;
  for (size_t r = 0; r < result.table->num_rows(); ++r) {
    orders_counted += c_count.GetInt64(r) * custdist.GetInt64(r);
  }
  EXPECT_GT(orders_counted, 0);
  EXPECT_LE(orders_counted,
            static_cast<int64_t>(database->GetTable("orders").num_rows()));
}

TEST(TpchQueriesTest, Q14PercentageInRange) {
  Database* database = SharedDb();
  QueryResult result = database->Run(GetTpchQuery(14).Build(*database));
  ASSERT_EQ(result.table->num_rows(), 1u);
  double promo = result.table->ColumnByName("promo_revenue").GetDouble(0);
  EXPECT_GE(promo, 0.0);
  EXPECT_LE(promo, 100.0);
}

TEST(TpchQueriesTest, Q18FindsOnlyLargeOrders) {
  Database* database = SharedDb();
  QueryResult result = database->Run(GetTpchQuery(18).Build(*database));
  const db::Column& sum_qty = result.table->ColumnByName("sum_qty");
  for (size_t r = 0; r < result.table->num_rows(); ++r) {
    EXPECT_GT(sum_qty.GetDouble(r), 300.0);
  }
}

TEST(TpchQueriesTest, Q22GroupsByCountryCode) {
  Database* database = SharedDb();
  QueryResult result = database->Run(GetTpchQuery(22).Build(*database));
  const db::Column& code = result.table->ColumnByName("cntrycode");
  std::set<std::string> allowed = {"13", "31", "23", "29", "30", "18",
                                   "17"};
  for (size_t r = 0; r < result.table->num_rows(); ++r) {
    EXPECT_TRUE(allowed.count(std::string(code.GetString(r))) > 0)
        << code.GetString(r);
  }
}

}  // namespace
}  // namespace workload
}  // namespace perfeval
