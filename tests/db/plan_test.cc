#include "db/plan.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "../test_scans.h"

namespace perfeval {
namespace db {
namespace {

/// Builds a small two-table database:
///   sales(item_id, amount, region)   6 rows
///   items(item_id2, label)           3 rows
std::unique_ptr<Database> MakeTestDb() {
  DatabaseOptions options;
  options.rows_per_page = 2;
  options.buffer_pool_pages = 64;
  auto database = std::make_unique<Database>(options);

  auto sales = std::make_shared<Table>(
      Schema({{"item_id", DataType::kInt64},
              {"amount", DataType::kDouble},
              {"region", DataType::kString}}));
  sales->AppendRow({Value::Int64(1), Value::Double(10.0),
                    Value::String("east")});
  sales->AppendRow({Value::Int64(2), Value::Double(20.0),
                    Value::String("west")});
  sales->AppendRow({Value::Int64(1), Value::Double(30.0),
                    Value::String("east")});
  sales->AppendRow({Value::Int64(3), Value::Double(40.0),
                    Value::String("west")});
  sales->AppendRow({Value::Int64(2), Value::Double(50.0),
                    Value::String("east")});
  sales->AppendRow({Value::Int64(9), Value::Double(60.0),
                    Value::String("north")});
  database->RegisterTable("sales", sales);

  auto items = std::make_shared<Table>(Schema(
      {{"item_id2", DataType::kInt64}, {"label", DataType::kString}}));
  items->AppendRow({Value::Int64(1), Value::String("apple")});
  items->AppendRow({Value::Int64(2), Value::String("banana")});
  items->AppendRow({Value::Int64(3), Value::String("cherry")});
  database->RegisterTable("items", items);
  return database;
}

TEST(ScanTest, ReturnsAllRows) {
  auto database = MakeTestDb();
  QueryResult result = database->Run(ScanOf(*database, "sales"));
  EXPECT_EQ(result.table->num_rows(), 6u);
  EXPECT_EQ(result.table->num_columns(), 3u);
}

TEST(ScanDeathTest, DeclaredSchemaMustMatchThePinnedTable) {
  // A scan is built with its table's schema, and its parents bind their
  // expressions against it; a scan run over a version with another schema
  // aborts instead of handing those expressions the wrong columns.
  auto database = MakeTestDb();
  Schema sales = database->GetTable("sales").schema();
  Schema retyped({{sales.column(0).name, DataType::kDouble},
                  sales.column(1), sales.column(2)});
  Schema renamed({{"other", sales.column(0).type}, sales.column(1),
                  sales.column(2)});
  Schema narrower({sales.column(0), sales.column(1)});
  for (const Schema& declared : {retyped, renamed, narrower}) {
    EXPECT_DEATH(database->Run(Scan("sales", declared)),
                 "scan of sales declared")
        << declared.ToString();
    EXPECT_DEATH(database->Run(FilterScan("sales", declared, {},
                                          Gt(Col(sales, "amount"),
                                             LitDouble(25.0)))),
                 "scan of sales declared")
        << declared.ToString();
  }
  EXPECT_EQ(database->Run(Scan("sales", sales)).table->num_rows(), 6u);
}

TEST(FilterScanTest, SelectsMatchingRows) {
  auto database = MakeTestDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = FilterScanOf(*database, "sales", {"item_id", "amount"},
                              Gt(Col(schema, "amount"), LitDouble(25.0)));
  QueryResult result = database->Run(plan);
  EXPECT_EQ(result.table->num_rows(), 4u);
}

TEST(FilterScanTest, ZoneMapsSkipPages) {
  auto database = MakeTestDb();
  const Schema& schema = database->GetTable("sales").schema();
  // amount is sorted ascending: pages are [10,20], [30,40], [50,60].
  // amount <= 15 can only live in the first page.
  PlanPtr plan = FilterScanOf(*database, "sales", {"amount"},
                              Le(Col(schema, "amount"), LitDouble(15.0)));
  database->storage().ResetStats();
  QueryResult with_zone_maps = database->Run(plan, ExecMode::kOptimized,
                                             SinkKind::kDiscard,
                                             /*use_zone_maps=*/true);
  int64_t zone_map_misses = database->storage().stats().page_misses;
  EXPECT_EQ(with_zone_maps.table->num_rows(), 1u);

  database->FlushCaches();
  database->storage().ResetStats();
  QueryResult without = database->Run(plan, ExecMode::kOptimized,
                                      SinkKind::kDiscard,
                                      /*use_zone_maps=*/false);
  EXPECT_EQ(without.table->num_rows(), 1u);
  EXPECT_LT(zone_map_misses, database->storage().stats().page_misses);
}

TEST(FilterTest, ComposesWithScan) {
  auto database = MakeTestDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = Filter(ScanOf(*database, "sales"),
                        Eq(Col(schema, "region"), LitString("east")));
  QueryResult result = database->Run(plan);
  EXPECT_EQ(result.table->num_rows(), 3u);
}

TEST(ProjectTest, ComputesExpressions) {
  auto database = MakeTestDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = Project(
      ScanOf(*database, "sales"),
      {Col(schema, "item_id"), Mul(Col(schema, "amount"), LitDouble(2.0))},
      {"id", "double_amount"});
  QueryResult result = database->Run(plan);
  EXPECT_EQ(result.table->num_rows(), 6u);
  EXPECT_EQ(result.table->schema().column(0).type, DataType::kInt64);
  EXPECT_EQ(result.table->schema().column(1).type, DataType::kDouble);
  EXPECT_DOUBLE_EQ(result.table->column(1).GetDouble(0), 20.0);
  EXPECT_EQ(result.table->column(0).GetInt64(5), 9);
}

TEST(HashJoinTest, InnerJoinSemantics) {
  auto database = MakeTestDb();
  PlanPtr plan = HashJoin(ScanOf(*database, "sales"),
                          ScanOf(*database, "items"), "item_id", "item_id2");
  QueryResult result = database->Run(plan);
  // item 9 has no match; the other 5 sales rows match exactly one item.
  EXPECT_EQ(result.table->num_rows(), 5u);
  EXPECT_EQ(result.table->num_columns(), 5u);
  // Every output row's item_id equals its item_id2.
  const Column& left_key = result.table->ColumnByName("item_id");
  const Column& right_key = result.table->ColumnByName("item_id2");
  for (size_t r = 0; r < result.table->num_rows(); ++r) {
    EXPECT_EQ(left_key.GetInt64(r), right_key.GetInt64(r));
  }
}

TEST(HashJoinTest, DuplicateBuildKeysFanOut) {
  auto database = MakeTestDb();
  // Join items with sales as build side: item 1 matches 2 sales rows.
  PlanPtr plan = HashJoin(ScanOf(*database, "items"),
                          ScanOf(*database, "sales"), "item_id2", "item_id");
  QueryResult result = database->Run(plan);
  EXPECT_EQ(result.table->num_rows(), 5u);
}

TEST(HashJoin2Test, CompositeKeys) {
  DatabaseOptions options;
  auto database = std::make_unique<Database>(options);
  auto left = std::make_shared<Table>(
      Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  left->AppendRow({Value::Int64(1), Value::Int64(1)});
  left->AppendRow({Value::Int64(1), Value::Int64(2)});
  left->AppendRow({Value::Int64(2), Value::Int64(1)});
  database->RegisterTable("left", left);
  auto right = std::make_shared<Table>(
      Schema({{"c", DataType::kInt64}, {"d", DataType::kInt64}}));
  right->AppendRow({Value::Int64(1), Value::Int64(2)});
  right->AppendRow({Value::Int64(2), Value::Int64(2)});
  database->RegisterTable("right", right);
  PlanPtr plan =
      HashJoinWith(ScanOf(*database, "left"), ScanOf(*database, "right"),
                   {"a", "b"}, {"c", "d"}, std::nullopt);
  QueryResult result = database->Run(plan);
  // Only (1,2) matches; single-column join on a=c would produce 2 rows.
  EXPECT_EQ(result.table->num_rows(), 1u);
}

TEST(AggregateTest, GlobalAggregates) {
  auto database = MakeTestDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = Aggregate(
      ScanOf(*database, "sales"), {},
      {{AggOp::kSum, Col(schema, "amount"), "total"},
       {AggOp::kAvg, Col(schema, "amount"), "mean"},
       {AggOp::kMin, Col(schema, "amount"), "lo"},
       {AggOp::kMax, Col(schema, "amount"), "hi"},
       {AggOp::kCount, nullptr, "n"},
       {AggOp::kCountDistinct, Col(schema, "item_id"), "distinct_items"}});
  QueryResult result = database->Run(plan);
  ASSERT_EQ(result.table->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("total").GetDouble(0), 210.0);
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("mean").GetDouble(0), 35.0);
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("lo").GetDouble(0), 10.0);
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("hi").GetDouble(0), 60.0);
  EXPECT_EQ(result.table->ColumnByName("n").GetInt64(0), 6);
  EXPECT_EQ(result.table->ColumnByName("distinct_items").GetInt64(0), 4);
}

TEST(AggregateTest, GroupByStringColumn) {
  auto database = MakeTestDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = Aggregate(ScanOf(*database, "sales"), {"region"},
                           {{AggOp::kSum, Col(schema, "amount"), "total"}});
  PlanPtr sorted = Sort(plan, {{"region", true}});
  QueryResult result = database->Run(sorted);
  ASSERT_EQ(result.table->num_rows(), 3u);
  EXPECT_EQ(result.table->ColumnByName("region").GetString(0), "east");
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("total").GetDouble(0), 90.0);
  EXPECT_EQ(result.table->ColumnByName("region").GetString(1), "north");
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("total").GetDouble(1), 60.0);
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("total").GetDouble(2), 60.0);
}

TEST(AggregateTest, EmptyInputGlobalAggregateYieldsOneRow) {
  auto database = MakeTestDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = Aggregate(
      Filter(ScanOf(*database, "sales"),
             Gt(Col(schema, "amount"), LitDouble(1e9))),
      {}, {{AggOp::kCount, nullptr, "n"}});
  QueryResult result = database->Run(plan);
  ASSERT_EQ(result.table->num_rows(), 1u);
  EXPECT_EQ(result.table->ColumnByName("n").GetInt64(0), 0);
}

TEST(AggregateTest, EmptyInputGroupByYieldsNoRows) {
  auto database = MakeTestDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = Aggregate(
      Filter(ScanOf(*database, "sales"),
             Gt(Col(schema, "amount"), LitDouble(1e9))),
      {"region"}, {{AggOp::kCount, nullptr, "n"}});
  QueryResult result = database->Run(plan);
  EXPECT_EQ(result.table->num_rows(), 0u);
}

TEST(SortTest, MultiKeyWithDirections) {
  auto database = MakeTestDb();
  PlanPtr plan = Sort(ScanOf(*database, "sales"),
                      {{"region", true}, {"amount", false}});
  QueryResult result = database->Run(plan);
  const Column& region = result.table->ColumnByName("region");
  const Column& amount = result.table->ColumnByName("amount");
  // east rows first, amounts descending within region.
  EXPECT_EQ(region.GetString(0), "east");
  EXPECT_DOUBLE_EQ(amount.GetDouble(0), 50.0);
  EXPECT_DOUBLE_EQ(amount.GetDouble(1), 30.0);
  EXPECT_DOUBLE_EQ(amount.GetDouble(2), 10.0);
  EXPECT_EQ(region.GetString(3), "north");
  EXPECT_EQ(region.GetString(4), "west");
  EXPECT_DOUBLE_EQ(amount.GetDouble(4), 40.0);
}

TEST(LimitTest, TruncatesAndPreservesOrder) {
  auto database = MakeTestDb();
  PlanPtr plan =
      Limit(Sort(ScanOf(*database, "sales"), {{"amount", false}}), 2);
  QueryResult result = database->Run(plan);
  ASSERT_EQ(result.table->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("amount").GetDouble(0), 60.0);
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("amount").GetDouble(1), 50.0);
}

TEST(LimitTest, LargerThanInputIsNoop) {
  auto database = MakeTestDb();
  QueryResult result = database->Run(Limit(ScanOf(*database, "sales"), 100));
  EXPECT_EQ(result.table->num_rows(), 6u);
}

TEST(ExecModeTest, DebugAndOptimizedAgreeOnComplexPlan) {
  auto database = MakeTestDb();
  const Schema& sales = database->GetTable("sales").schema();
  PlanPtr plan = Sort(
      Aggregate(
          HashJoin(FilterScanOf(*database, "sales",
                                {"item_id", "amount", "region"},
                                Gt(Col(sales, "amount"), LitDouble(5.0))),
                   ScanOf(*database, "items"), "item_id", "item_id2"),
          {"label"},
          {{AggOp::kSum,
            Mul(Col(sales, "amount"), LitDouble(1.0)), "total"},
           {AggOp::kCount, nullptr, "n"}}),
      {{"label", true}});
  QueryResult optimized = database->Run(plan, ExecMode::kOptimized);
  QueryResult debug = database->Run(plan, ExecMode::kDebug);
  ASSERT_EQ(optimized.table->num_rows(), debug.table->num_rows());
  for (size_t r = 0; r < optimized.table->num_rows(); ++r) {
    for (size_t c = 0; c < optimized.table->num_columns(); ++c) {
      EXPECT_EQ(optimized.table->ValueAt(r, c).ToString(),
                debug.table->ValueAt(r, c).ToString())
          << "row " << r << " col " << c;
    }
  }
}

TEST(ExplainTest, ShowsTreeStructure) {
  auto database = MakeTestDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = Limit(
      Sort(Aggregate(Filter(ScanOf(*database, "sales"),
                            Gt(Col(schema, "amount"), LitDouble(0.0))),
                     {"region"},
                     {{AggOp::kSum, Col(schema, "amount"), "total"}}),
           {{"total", false}}),
      3);
  std::string explain = Explain(plan);
  EXPECT_NE(explain.find("Limit 3"), std::string::npos);
  EXPECT_NE(explain.find("Sort"), std::string::npos);
  EXPECT_NE(explain.find("Aggregate"), std::string::npos);
  EXPECT_NE(explain.find("Filter [amount > 0"), std::string::npos);
  EXPECT_NE(explain.find("Scan sales"), std::string::npos);
  // Children are indented under parents.
  EXPECT_LT(explain.find("Limit"), explain.find("Sort"));
  EXPECT_LT(explain.find("Sort"), explain.find("Aggregate"));
}

TEST(ProfileTest, TracesEveryOperator) {
  auto database = MakeTestDb();
  PlanPtr plan =
      Sort(HashJoin(ScanOf(*database, "sales"), ScanOf(*database, "items"),
                    "item_id", "item_id2"),
           {{"amount", true}});
  QueryResult result = database->Run(plan);
  // Scan, Scan, HashJoin, Sort.
  EXPECT_EQ(result.profile.traces().size(), 4u);
  std::string trace = result.profile.ToString();
  EXPECT_NE(trace.find("HashJoin"), std::string::npos);
  EXPECT_NE(trace.find("Sort"), std::string::npos);
  EXPECT_GE(result.profile.TotalWallNs(), 0);
}

TEST(ModeNamesTest, Stable) {
  EXPECT_NE(std::string(ExecModeName(ExecMode::kDebug)).find("debug"),
            std::string::npos);
  EXPECT_NE(
      std::string(ExecModeName(ExecMode::kOptimized)).find("vectorized"),
      std::string::npos);
}

}  // namespace
}  // namespace db
}  // namespace perfeval
