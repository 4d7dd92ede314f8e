// Checked execution mode and checked int64 arithmetic: overflow raises a
// QueryError instead of wrapping, NULL-related aggregate edge cases, and
// the negative tests proving `check = true` actually catches seeded
// invariant violations.

#include <cstdint>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/error.h"
#include "db/plan.h"
#include "../test_scans.h"

namespace perfeval {
namespace db {
namespace {

std::unique_ptr<Database> MakeDb(std::shared_ptr<Table> table,
                                 size_t rows_per_page = 2) {
  DatabaseOptions options;
  options.rows_per_page = rows_per_page;
  options.buffer_pool_pages = 64;
  auto database = std::make_unique<Database>(options);
  database->RegisterTable("t", std::move(table));
  return database;
}

std::shared_ptr<Table> IntTable(const std::vector<int64_t>& values) {
  auto table = std::make_shared<Table>(
      Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (size_t i = 0; i < values.size(); ++i) {
    table->AppendRow({Value::Int64(static_cast<int64_t>(i % 2)),
                      Value::Int64(values[i])});
  }
  return table;
}

AggSpec MakeAgg(AggOp op, ExprPtr expr, std::string name) {
  AggSpec spec;
  spec.op = op;
  spec.expr = std::move(expr);
  spec.output_name = std::move(name);
  return spec;
}

// ---- Checked int64 arithmetic (always on, not gated by `check`) ----

TEST(CheckedArithmeticTest, SumNearInt64MaxThrowsInsteadOfWrapping) {
  const int64_t kBig = std::numeric_limits<int64_t>::max() - 10;
  auto database = MakeDb(IntTable({kBig, kBig}));
  const Schema& schema = database->GetTable("t").schema();
  PlanPtr plan = Aggregate(
      ScanOf(*database, "t"), {},
      {MakeAgg(AggOp::kSum, Col(schema, "v"), "total")});
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    try {
      database->Run(plan, mode);
      FAIL() << "SUM past INT64_MAX must throw, mode="
             << ExecModeName(mode);
    } catch (const QueryError& e) {
      EXPECT_EQ(e.code(), StatusCode::kOutOfRange);
      EXPECT_NE(std::string(e.what()).find("SUM"), std::string::npos);
    }
  }
}

TEST(CheckedArithmeticTest, SumBelowLimitStillWorks) {
  const int64_t kBig = std::numeric_limits<int64_t>::max() - 10;
  auto database = MakeDb(IntTable({kBig, 7}));
  const Schema& schema = database->GetTable("t").schema();
  PlanPtr plan = Aggregate(
      ScanOf(*database, "t"), {},
      {MakeAgg(AggOp::kSum, Col(schema, "v"), "total")});
  QueryResult result = database->Run(plan);
  EXPECT_EQ(result.table->schema().column(0).type, DataType::kInt64);
  EXPECT_EQ(result.table->column(0).GetInt64(0), kBig + 7);
}

TEST(CheckedArithmeticTest, IntSumStaysExactPast2To53) {
  // (1 << 53) + 1 is not representable as a double; the old
  // accumulate-through-double path silently rounded it away.
  const int64_t kBeyondDouble = (int64_t{1} << 53) + 1;
  auto database = MakeDb(IntTable({kBeyondDouble, 2}));
  const Schema& schema = database->GetTable("t").schema();
  PlanPtr plan = Aggregate(
      ScanOf(*database, "t"), {},
      {MakeAgg(AggOp::kSum, Col(schema, "v"), "total"),
       MakeAgg(AggOp::kMax, Col(schema, "v"), "biggest")});
  QueryResult result = database->Run(plan);
  EXPECT_EQ(result.table->column(0).GetInt64(0), kBeyondDouble + 2);
  EXPECT_EQ(result.table->column(1).GetInt64(0), kBeyondDouble);
}

TEST(CheckedArithmeticTest, ExpressionOverflowThrowsInBothModes) {
  const int64_t kBig = std::numeric_limits<int64_t>::max() - 1;
  auto database = MakeDb(IntTable({5, 6}));
  const Schema& schema = database->GetTable("t").schema();
  // v + (INT64_MAX - 1) overflows for any v >= 2.
  PlanPtr plan = Project(ScanOf(*database, "t"),
                         {Add(Col(schema, "v"), LitInt(kBig))}, {"bumped"});
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    EXPECT_THROW(database->Run(plan, mode), QueryError)
        << ExecModeName(mode);
  }
}

TEST(CheckedArithmeticTest, OverflowInParallelMorselsStillThrows) {
  // The throw happens on a sched::ParallelFor worker; ParallelMorsels must
  // carry it back to the coordinator instead of std::terminate-ing.
  const int64_t kBig = std::numeric_limits<int64_t>::max() / 2;
  std::vector<int64_t> values(10000, kBig);
  auto database = MakeDb(IntTable(values), /*rows_per_page=*/1000);
  database->set_threads(4);
  const Schema& schema = database->GetTable("t").schema();
  PlanPtr plan = Aggregate(
      ScanOf(*database, "t"), {},
      {MakeAgg(AggOp::kSum, Col(schema, "v"), "total")});
  EXPECT_THROW(database->Run(plan), QueryError);
}

// ---- NULL aggregate semantics ----

std::shared_ptr<Table> NullableTable() {
  // g | x (double, NULLs) | y (int64, all NULL)
  auto table = std::make_shared<Table>(Schema({{"g", DataType::kInt64},
                                               {"x", DataType::kDouble},
                                               {"y", DataType::kInt64}}));
  table->AppendRow({Value::Int64(1), Value::Double(10.0),
                    Value::Null(DataType::kInt64)});
  table->AppendRow({Value::Int64(1), Value::Null(DataType::kDouble),
                    Value::Null(DataType::kInt64)});
  table->AppendRow({Value::Int64(2), Value::Null(DataType::kDouble),
                    Value::Null(DataType::kInt64)});
  return table;
}

TEST(NullAggregateTest, AvgOverZeroRowsIsNullNotNan) {
  // Regression: AVG over an empty input used to emit 0.0 (and a 0/0 NaN
  // risk); SUM/MIN/MAX fabricated 0.0 too.
  auto database = MakeDb(IntTable({1, 2, 3}));
  const Schema& schema = database->GetTable("t").schema();
  PlanPtr plan = Aggregate(
      FilterScanOf(*database, "t", {"k", "v"},
                   Gt(Col(schema, "v"), LitInt(100))),
      {},
      {MakeAgg(AggOp::kAvg, Col(schema, "v"), "a"),
       MakeAgg(AggOp::kSum, Col(schema, "v"), "s"),
       MakeAgg(AggOp::kMin, Col(schema, "v"), "lo"),
       MakeAgg(AggOp::kCount, nullptr, "n")});
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    QueryResult result = database->Run(plan, mode);
    ASSERT_EQ(result.table->num_rows(), 1u);
    EXPECT_TRUE(result.table->column(0).IsNull(0)) << ExecModeName(mode);
    EXPECT_TRUE(result.table->column(1).IsNull(0));
    EXPECT_TRUE(result.table->column(2).IsNull(0));
    EXPECT_EQ(result.table->column(3).GetInt64(0), 0);
  }
}

TEST(NullAggregateTest, MinMaxAvgOverAllNullColumnIsNull) {
  auto database = MakeDb(NullableTable());
  const Schema& schema = database->GetTable("t").schema();
  PlanPtr plan = Aggregate(
      ScanOf(*database, "t"), {"g"},
      {MakeAgg(AggOp::kMin, Col(schema, "y"), "lo"),
       MakeAgg(AggOp::kMax, Col(schema, "y"), "hi"),
       MakeAgg(AggOp::kAvg, Col(schema, "x"), "a"),
       MakeAgg(AggOp::kCount, Col(schema, "x"), "nx")});
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    QueryResult result = database->Run(plan, mode);
    ASSERT_EQ(result.table->num_rows(), 2u);
    // Group 1 (rows 0,1): y all NULL; x has one non-NULL value 10.
    EXPECT_TRUE(result.table->column(1).IsNull(0));
    EXPECT_TRUE(result.table->column(2).IsNull(0));
    EXPECT_DOUBLE_EQ(result.table->column(3).GetDouble(0), 10.0);
    EXPECT_EQ(result.table->column(4).GetInt64(0), 1);
    // Group 2: everything NULL.
    EXPECT_TRUE(result.table->column(3).IsNull(1)) << ExecModeName(mode);
    EXPECT_EQ(result.table->column(4).GetInt64(1), 0);
  }
}

// ---- Checked mode (ctx.check) negative tests ----

TEST(CheckedModeTest, CatchesSeededStaleZoneMap) {
  // Seed a real invariant violation: mutate a column *after* its zone
  // maps were registered. Plain runs silently prune pages using the stale
  // map; a checked run must refuse.
  auto table = IntTable({1, 2, 3, 4, 5, 6});
  auto database = MakeDb(table);
  table->column(1).mutable_ints()[5] = 600;  // zone map still says <= 6.
  const Schema& schema = database->GetTable("t").schema();
  PlanPtr plan = FilterScanOf(*database, "t", {"k", "v"},
                              Gt(Col(schema, "v"), LitInt(100)));

  EXPECT_NO_THROW(database->Run(plan));  // unchecked: silent wrong answer.

  database->set_check(true);
  try {
    database->Run(plan);
    FAIL() << "checked mode must detect the stale zone map";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInternal);
    EXPECT_NE(std::string(e.what()).find("zone map"), std::string::npos);
  }
}

TEST(CheckedModeTest, CleanQueriesPassAllOperatorChecks) {
  // A join + group + sort pipeline under check=true must run to the same
  // answer as the unchecked run: the assertions are pure observers.
  auto table = IntTable({5, 3, 9, 1, 7, 2, 8, 4});
  auto database = MakeDb(table);
  const Schema& schema = database->GetTable("t").schema();
  PlanPtr plan = Sort(
      Aggregate(FilterScanOf(*database, "t", {"k", "v"},
                             Gt(Col(schema, "v"), LitInt(2))),
                {"k"},
                {MakeAgg(AggOp::kSum, Col(schema, "v"), "total"),
                 MakeAgg(AggOp::kCount, nullptr, "n")}),
      {{"k", true}});
  QueryResult plain = database->Run(plan);
  database->set_check(true);
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    QueryResult checked = database->Run(plan, mode);
    ASSERT_EQ(checked.table->num_rows(), plain.table->num_rows());
    for (size_t r = 0; r < plain.table->num_rows(); ++r) {
      EXPECT_EQ(checked.table->column(0).GetInt64(r),
                plain.table->column(0).GetInt64(r));
      EXPECT_EQ(checked.table->column(1).GetInt64(r),
                plain.table->column(1).GetInt64(r));
    }
  }
}

TEST(CheckedModeTest, JoinChecksPassOnHealthyJoin) {
  auto left = IntTable({10, 20, 30, 40});
  DatabaseOptions options;
  options.rows_per_page = 2;
  auto database = std::make_unique<Database>(options);
  database->RegisterTable("t", left);
  auto right = std::make_shared<Table>(
      Schema({{"k2", DataType::kInt64}, {"w", DataType::kInt64}}));
  right->AppendRow({Value::Int64(0), Value::Int64(100)});
  right->AppendRow({Value::Int64(1), Value::Int64(200)});
  database->RegisterTable("u", right);
  database->set_check(true);
  PlanPtr t = ScanOf(*database, "t");
  PlanPtr u = ScanOf(*database, "u");
  for (JoinAlgo algo : {JoinAlgo::kHash, JoinAlgo::kRadix}) {
    database->set_join_algo(algo);
    QueryResult result = database->Run(HashJoin(t, u, "k", "k2"));
    EXPECT_EQ(result.table->num_rows(), 4u);
  }
  database->set_join_algo(JoinAlgo::kHash);
  QueryResult merged = database->Run(
      HashJoinWith(t, u, {"k"}, {"k2"}, JoinAlgo::kMerge));
  EXPECT_EQ(merged.table->num_rows(), 4u);
}

TEST(NullSemanticsTest, PredicatesOverNullAreFalse) {
  auto database = MakeDb(NullableTable());
  const Schema& schema = database->GetTable("t").schema();
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    QueryResult gt = database->Run(
        Filter(ScanOf(*database, "t"), Gt(Col(schema, "x"), LitDouble(0.0))),
        mode);
    EXPECT_EQ(gt.table->num_rows(), 1u) << ExecModeName(mode);
    // NOT(x > 0) is also false for NULL x: both branches drop the row.
    QueryResult le =
        database->Run(Filter(ScanOf(*database, "t"),
                             Not(Gt(Col(schema, "x"), LitDouble(0.0)))),
                      mode);
    EXPECT_EQ(le.table->num_rows(), 0u) << ExecModeName(mode);
  }
}

TEST(NullSemanticsTest, NullJoinKeysAreRejected) {
  auto database = MakeDb(NullableTable());
  auto other = std::make_shared<Table>(
      Schema({{"k2", DataType::kInt64}, {"w", DataType::kInt64}}));
  other->AppendRow({Value::Int64(1), Value::Int64(5)});
  // Register through a second catalog entry on the same database.
  // NullableTable's y column is all NULL.
  DatabaseOptions options;
  auto database2 = std::make_unique<Database>(options);
  database2->RegisterTable("t", NullableTable());
  database2->RegisterTable("u", other);
  PlanPtr t = ScanOf(*database2, "t");
  PlanPtr u = ScanOf(*database2, "u");
  EXPECT_THROW(database2->Run(HashJoin(t, u, "y", "k2")), QueryError);
  EXPECT_THROW(
      database2->Run(HashJoinWith(t, u, {"y"}, {"k2"}, JoinAlgo::kMerge)),
      QueryError);
}

TEST(NullSemanticsTest, NullsSortFirstAscendingLastDescending) {
  auto database = MakeDb(NullableTable());
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    QueryResult asc =
        database->Run(Sort(ScanOf(*database, "t"), {{"x", true}}), mode);
    EXPECT_TRUE(asc.table->column(1).IsNull(0)) << ExecModeName(mode);
    EXPECT_TRUE(asc.table->column(1).IsNull(1));
    EXPECT_DOUBLE_EQ(asc.table->column(1).GetDouble(2), 10.0);
    QueryResult desc =
        database->Run(Sort(ScanOf(*database, "t"), {{"x", false}}), mode);
    EXPECT_DOUBLE_EQ(desc.table->column(1).GetDouble(0), 10.0);
    EXPECT_TRUE(desc.table->column(1).IsNull(2));
  }
}

}  // namespace
}  // namespace db
}  // namespace perfeval
