// Regressions for three executor assumptions flushed out by racing a
// second backend through the differential oracle (DESIGN.md S18):
//
//   1. The sort comparator's raw `<`/`==` fallthrough answered "greater"
//      for BOTH Compare(NaN, x) and Compare(x, NaN); a descending key
//      direction turned that asymmetry into a strict-weak-ordering
//      violation — undefined behaviour for std::stable_sort, and the
//      checked-mode "output ordered" invariant fired on correct output.
//   2. TopN's unstable partial_sort broke ties arbitrarily, so TopN(k)
//      could keep a different key-equal row than Sort + Limit(k).
//   3. The merge join rejected any input whose BASE column had a null mask,
//      even when the selection vector excluded every NULL row — an input
//      the hash join and the reference interpreter both accept.

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/error.h"
#include "db/plan.h"
#include "db/reference.h"
#include "../test_scans.h"

namespace perfeval {
namespace db {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::shared_ptr<Table> MessyDoubles() {
  auto table = std::make_shared<Table>(
      Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}}));
  int64_t k = 0;
  for (double v : {3.5, kNaN, -1.0, 0.0, kNaN, 7.25, -0.0, 2.0}) {
    table->AppendRow({Value::Int64(k++), Value::Double(v)});
  }
  table->AppendRow({Value::Int64(k++), Value::Null(DataType::kDouble)});
  table->AppendRow({Value::Int64(k++), Value::Double(1.5)});
  table->AppendRow({Value::Int64(k++), Value::Null(DataType::kDouble)});
  return table;
}

TEST(ExecEdgesTest, DescendingSortWithNaNKeysPassesCheckedMode) {
  Database database;
  database.RegisterTable("t", MessyDoubles());
  database.set_check(true);
  const Schema& schema = database.GetTable("t").schema();
  PlanPtr plan = Sort(ScanOf(database, "t"), {{"v", false}, {"k", true}});
  std::shared_ptr<const Table> expected =
      ReferenceExecute(plan, database);
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    QueryResult result = database.Run(plan, mode);
    EXPECT_EQ(DiffTables(*result.table, *expected, 0.0,
                         /*ignore_row_order=*/false),
              "")
        << "mode " << static_cast<int>(mode);
    // NaN orders as the greatest double and NULL as the smallest, so
    // descending puts the NaNs first (in stable input order: k=1 then
    // k=4) and the NULLs last.
    const Table& t = *result.table;
    ASSERT_EQ(t.num_rows(), 11u);
    EXPECT_TRUE(std::isnan(t.column(1).GetDouble(0)));
    EXPECT_TRUE(std::isnan(t.column(1).GetDouble(1)));
    EXPECT_EQ(t.column(0).GetInt64(0), 1);
    EXPECT_EQ(t.column(0).GetInt64(1), 4);
    EXPECT_EQ(t.column(1).GetDouble(2), 7.25);
    EXPECT_TRUE(t.column(1).IsNull(9));
    EXPECT_TRUE(t.column(1).IsNull(10));
  }
  (void)schema;
}

TEST(ExecEdgesTest, TopNBreaksTiesExactlyLikeSortPlusLimit) {
  // Heavily tied keys: only k % 3 distinguishes rows under the sort key,
  // so the cut at n falls inside a tie group and only a stable tie-break
  // keeps TopN and Sort+Limit identical.
  auto table = std::make_shared<Table>(
      Schema({{"g", DataType::kInt64}, {"id", DataType::kInt64},
              {"v", DataType::kDouble}}));
  for (int64_t i = 0; i < 200; ++i) {
    table->AppendRow({Value::Int64(i % 3), Value::Int64(i),
                      Value::Double(i % 5 == 2 ? kNaN : 1.0)});
  }
  Database database;
  database.RegisterTable("t", std::move(table));
  std::vector<SortKey> keys = {{"g", true}, {"v", false}};
  for (size_t n : {1u, 7u, 66u, 67u, 150u, 400u}) {
    PlanPtr top = TopN(ScanOf(database, "t"), keys, n);
    PlanPtr sorted = Limit(Sort(ScanOf(database, "t"), keys), n);
    for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
      QueryResult a = database.Run(top, mode);
      QueryResult b = database.Run(sorted, mode);
      EXPECT_EQ(DiffTables(*a.table, *b.table, 0.0,
                           /*ignore_row_order=*/false),
                "")
          << "n=" << n << " mode " << static_cast<int>(mode);
      std::shared_ptr<const Table> expected =
          ReferenceExecute(top, database);
      EXPECT_EQ(DiffTables(*a.table, *expected, 0.0,
                           /*ignore_row_order=*/false),
                "")
          << "n=" << n << " vs reference";
    }
  }
}

TEST(ExecEdgesTest, MergeJoinAcceptsKeysFilteredPastNulls) {
  auto fact = std::make_shared<Table>(
      Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (int64_t i = 0; i < 60; ++i) {
    if (i % 7 == 2) {
      fact->AppendRow({Value::Null(DataType::kInt64), Value::Int64(i)});
    } else {
      fact->AppendRow({Value::Int64(i % 4), Value::Int64(i)});
    }
  }
  auto dim = std::make_shared<Table>(
      Schema({{"k", DataType::kInt64}, {"name", DataType::kString}}));
  for (int64_t i = 0; i < 4; ++i) {
    dim->AppendRow({Value::Int64(i), Value::String("d" + std::to_string(i))});
  }
  Database database;
  database.RegisterTable("fact", std::move(fact));
  database.RegisterTable("dim", std::move(dim));
  const Schema& fs = database.GetTable("fact").schema();

  // Filter(k >= 0) drops every NULL key (3VL: UNKNOWN is not selected),
  // so the merge join's visible input is NULL-free even though the base
  // column's null mask is not.
  PlanPtr fact_scan = ScanOf(database, "fact");
  PlanPtr dim_scan = ScanOf(database, "dim");
  PlanPtr filtered = Filter(fact_scan, Ge(Col(fs, "k"), LitInt(0)));
  PlanPtr merge =
      Sort(HashJoinWith(filtered, dim_scan, {"k"}, {"k"}, JoinAlgo::kMerge),
           {{"v", true}, {"name", true}});
  PlanPtr hash = Sort(HashJoin(filtered, dim_scan, "k", "k"),
                      {{"v", true}, {"name", true}});
  std::shared_ptr<const Table> expected = ReferenceExecute(merge, database);
  for (ExecMode mode : {ExecMode::kDebug, ExecMode::kOptimized}) {
    QueryResult m = database.Run(merge, mode);
    QueryResult h = database.Run(hash, mode);
    EXPECT_EQ(DiffTables(*m.table, *expected, 0.0,
                         /*ignore_row_order=*/false),
              "")
        << "merge vs reference, mode " << static_cast<int>(mode);
    EXPECT_EQ(DiffTables(*m.table, *h.table, 0.0,
                         /*ignore_row_order=*/false),
              "")
        << "merge vs hash, mode " << static_cast<int>(mode);
  }

  // A NULL key that IS visible must still be rejected, with the row id.
  PlanPtr bad =
      HashJoinWith(fact_scan, dim_scan, {"k"}, {"k"}, JoinAlgo::kMerge);
  try {
    database.Run(bad);
    FAIL() << "visible NULL join key must throw";
  } catch (const QueryError& e) {
    EXPECT_NE(std::string(e.what()).find("contains NULL (row 2)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace db
}  // namespace perfeval
