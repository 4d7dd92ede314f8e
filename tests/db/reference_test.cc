// The row-at-a-time reference interpreter (db/reference.h) — the ground
// truth for the differential oracle harness — and the DiffTables result
// comparator it is paired with.

#include "db/reference.h"

#include <memory>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/plan.h"
#include "../test_scans.h"

namespace perfeval {
namespace db {
namespace {

std::unique_ptr<Database> MakeDb() {
  DatabaseOptions options;
  options.rows_per_page = 2;
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

AggSpec MakeAgg(AggOp op, ExprPtr expr, std::string name) {
  AggSpec spec;
  spec.op = op;
  spec.expr = std::move(expr);
  spec.output_name = std::move(name);
  return spec;
}

TEST(ReferenceTest, MatchesEngineOnFilterJoinAggregateSort) {
  auto database = MakeDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = Sort(
      Aggregate(
          HashJoin(FilterScanOf(*database, "sales", {"item_id", "amount"},
                                Gt(Col(schema, "amount"), LitDouble(5.0))),
                   ScanOf(*database, "items"), "item_id", "item_id2"),
          {"label"},
          {MakeAgg(AggOp::kSum, Col(schema, "amount"), "total"),
           MakeAgg(AggOp::kCount, nullptr, "n")}),
      {{"label", true}});
  std::shared_ptr<const Table> expected =
      ReferenceExecute(plan, *database);
  ASSERT_EQ(expected->num_rows(), 3u);
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    for (int threads : {1, 4}) {
      database->set_threads(threads);
      QueryResult result = database->Run(plan, mode);
      EXPECT_EQ(DiffTables(*result.table, *expected, 1e-9,
                           /*ignore_row_order=*/false),
                "")
          << ExecModeName(mode) << " threads=" << threads;
    }
  }
}

TEST(ReferenceTest, MatchesEngineOnProjectTopNLimit) {
  auto database = MakeDb();
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr projected = Project(
      ScanOf(*database, "sales"),
      {Col(schema, "item_id"),
       Mul(Col(schema, "amount"), LitDouble(2.0))},
      {"item_id", "doubled"});
  for (PlanPtr plan :
       {TopN(projected, {{"doubled", false}}, 3), Limit(projected, 4)}) {
    std::shared_ptr<const Table> expected =
        ReferenceExecute(plan, *database);
    QueryResult result = database->Run(plan);
    EXPECT_EQ(DiffTables(*result.table, *expected, 1e-9, false), "");
  }
}

TEST(ReferenceTest, ScansAllRowsIndependentlyOfZoneMaps) {
  // Seed the same stale-zone-map bug the checked mode catches: the
  // engine prunes pages with the stale map and silently loses the row,
  // while the reference (which never consults zone maps) finds it — so
  // the differential harness flags the divergence.
  auto database = MakeDb();
  auto sales = std::const_pointer_cast<Table>(
      database->GetTableShared("sales"));
  sales->column(1).mutable_doubles()[5] = 6000.0;
  const Schema& schema = database->GetTable("sales").schema();
  PlanPtr plan = FilterScanOf(*database, "sales", {"item_id", "amount"},
                              Gt(Col(schema, "amount"), LitDouble(100.0)));
  std::shared_ptr<const Table> reference =
      ReferenceExecute(plan, *database);
  EXPECT_EQ(reference->num_rows(), 1u);
  QueryResult engine = database->Run(plan);
  EXPECT_NE(DiffTables(*engine.table, *reference, 1e-9, true), "");
}

TEST(DiffTablesTest, EmptyOnEqualAndToleratesTinyDoubleDrift) {
  auto a = std::make_shared<Table>(
      Schema({{"k", DataType::kInt64}, {"x", DataType::kDouble}}));
  a->AppendRow({Value::Int64(1), Value::Double(100.0)});
  a->AppendRow({Value::Int64(2), Value::Double(200.0)});
  auto b = std::make_shared<Table>(a->schema());
  b->AppendRow({Value::Int64(2), Value::Double(200.0 + 1e-10)});
  b->AppendRow({Value::Int64(1), Value::Double(100.0)});
  EXPECT_EQ(DiffTables(*a, *b, 1e-9, /*ignore_row_order=*/true), "");
  EXPECT_NE(DiffTables(*a, *b, 1e-9, /*ignore_row_order=*/false), "");
}

TEST(DiffTablesTest, ReportsCellRowCountAndNullMismatches) {
  auto a = std::make_shared<Table>(Schema({{"x", DataType::kDouble}}));
  a->AppendRow({Value::Double(1.0)});
  auto b = std::make_shared<Table>(a->schema());
  b->AppendRow({Value::Double(2.0)});
  EXPECT_NE(DiffTables(*a, *b, 1e-9, false), "");
  auto c = std::make_shared<Table>(a->schema());
  c->AppendRow({Value::Null(DataType::kDouble)});
  EXPECT_NE(DiffTables(*a, *c, 1e-9, false), "");
  auto d = std::make_shared<Table>(a->schema());
  EXPECT_NE(DiffTables(*a, *d, 1e-9, false), "");
  EXPECT_EQ(DiffTables(*c, *c, 1e-9, false), "");
}

TEST(ReferenceTest, NullAggregateSemanticsMatchEngine) {
  DatabaseOptions options;
  auto database = std::make_unique<Database>(options);
  auto table = std::make_shared<Table>(
      Schema({{"g", DataType::kInt64}, {"x", DataType::kDouble}}));
  table->AppendRow({Value::Int64(1), Value::Double(3.0)});
  table->AppendRow({Value::Int64(1), Value::Null(DataType::kDouble)});
  table->AppendRow({Value::Int64(2), Value::Null(DataType::kDouble)});
  database->RegisterTable("t", table);
  const Schema& schema = table->schema();
  PlanPtr plan = Sort(
      Aggregate(ScanOf(*database, "t"), {"g"},
                {MakeAgg(AggOp::kAvg, Col(schema, "x"), "a"),
                 MakeAgg(AggOp::kCount, Col(schema, "x"), "nx")}),
      {{"g", true}});
  std::shared_ptr<const Table> expected =
      ReferenceExecute(plan, *database);
  ASSERT_EQ(expected->num_rows(), 2u);
  EXPECT_TRUE(expected->column(1).IsNull(1));
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    QueryResult result = database->Run(plan, mode);
    EXPECT_EQ(DiffTables(*result.table, *expected, 1e-9, false), "")
        << ExecModeName(mode);
  }
}

}  // namespace
}  // namespace db
}  // namespace perfeval
