// String columns as views into shared, immutable byte heaps: copies and
// gathers share bytes instead of copying them, a view never outlives its
// heap, and a column's own heap is never written through another column.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/column.h"
#include "db/database.h"
#include "db/expr.h"
#include "db/reference.h"

namespace perfeval {
namespace db {
namespace {

// Long enough to live outside std::string's inline buffer, so a copied
// std::string would point elsewhere.
std::string Name(int i) {
  return "customer name padded past the inline buffer #" + std::to_string(i);
}

std::shared_ptr<Table> MakeDim(int rows) {
  auto dim = std::make_shared<Table>(
      Schema({{"d_id", DataType::kInt64}, {"d_name", DataType::kString}}));
  for (int i = 0; i < rows; ++i) {
    dim->AppendRow({Value::Int64(i), Value::String(Name(i))});
  }
  return dim;
}

std::shared_ptr<Table> MakeFact(int rows, int dims) {
  auto fact = std::make_shared<Table>(
      Schema({{"f_id", DataType::kInt64}, {"f_dim", DataType::kInt64}}));
  for (int i = 0; i < rows; ++i) {
    fact->AppendRow({Value::Int64(i), Value::Int64((i * 7) % dims)});
  }
  return fact;
}

TEST(StringHeapTest, CopiesShareBytesAndAppendIndependently) {
  Column a(DataType::kString);
  a.AppendString("alpha");
  Column b = a;
  Column c(DataType::kString);
  c = a;
  // The copies read the original's bytes in place.
  EXPECT_EQ(b.GetString(0).data(), a.GetString(0).data());
  EXPECT_EQ(c.GetString(0).data(), a.GetString(0).data());

  b.AppendString("beta");
  a.AppendString("gamma");
  c.AppendGather(a, {1});
  c.AppendString("delta");

  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.GetString(0), "alpha");
  EXPECT_EQ(a.GetString(1), "gamma");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.GetString(0), "alpha");
  EXPECT_EQ(b.GetString(1), "beta");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetString(1), "gamma");
  EXPECT_EQ(c.GetString(1).data(), a.GetString(1).data());
  EXPECT_EQ(c.GetString(2), "delta");
  EXPECT_NE(b.GetString(1).data(), a.GetString(1).data());
}

TEST(StringHeapTest, GatherOutlivesItsSource) {
  Column gathered(DataType::kString);
  {
    Column source(DataType::kString);
    for (int i = 0; i < 5000; ++i) {  // spans several heap blocks.
      source.AppendString(Name(i));
    }
    gathered.AppendGather(source, {4999, 0, 2500});
    Column appended(DataType::kString);
    appended.AppendColumn(source);
    gathered.AppendGather(appended, {1});
  }
  ASSERT_EQ(gathered.size(), 4u);
  EXPECT_EQ(gathered.GetString(0), Name(4999));
  EXPECT_EQ(gathered.GetString(1), Name(0));
  EXPECT_EQ(gathered.GetString(2), Name(2500));
  EXPECT_EQ(gathered.GetString(3), Name(1));
}

TEST(StringHeapTest, ByteSizeChargesLengthPlusStringObject) {
  // Page accounting charges what it charged for std::string payloads.
  Column col(DataType::kString);
  col.AppendString("abc");
  col.AppendString("");
  col.AppendNull();
  EXPECT_EQ(col.ByteSize(), 3 + 3 * sizeof(std::string));
}

TEST(StringHeapTest, ReadersGatherWhileTheWriterAppends) {
  // The delta store's pattern: readers gather from a published column
  // that shares the writer's heap while the writer keeps appending to
  // that heap, and the catalog's column is copied and appended to.
  Database database;
  database.RegisterTable("dim", MakeDim(200));
  std::shared_ptr<const Catalog> pinned = database.catalog();
  const Column& published = pinned->Get("dim").table->column(1);

  Column writer(DataType::kString);
  for (int i = 0; i < 100; ++i) {
    writer.AppendString(Name(i));
  }
  auto snapshot = std::make_shared<const Column>(writer);

  std::atomic<bool> failed{false};
  auto read = [&] {
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < 100; ++r) {
      rows.push_back(99 - r);
    }
    for (int round = 0; round < 50; ++round) {
      Column out(DataType::kString);
      out.AppendGather(*snapshot, rows);
      out.AppendGather(published, rows);
      for (int r = 0; r < 100; ++r) {
        if (out.GetString(r) != Name(99 - r) ||
            out.GetString(100 + r) != Name(99 - r)) {
          failed = true;
        }
      }
    }
  };
  std::thread reader1(read);
  std::thread reader2(read);
  Column own_copy = published;
  for (int i = 100; i < 3000; ++i) {
    writer.AppendString(Name(i));
    own_copy.AppendString(Name(i));
  }
  reader1.join();
  reader2.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(writer.GetString(2999), Name(2999));
  EXPECT_EQ(own_copy.GetString(3099), Name(2999));
  EXPECT_EQ(published.size(), 200u);
}

TEST(JoinGatherTest, OutputStringsPointIntoTheBaseTable) {
  Database database;
  std::shared_ptr<Table> dim = MakeDim(30);
  database.RegisterTable("dim", dim);
  database.RegisterTable("fact", MakeFact(500, 30));
  PlanPtr join = HashJoin(Scan("fact"), Scan("dim"), "f_dim", "d_id");
  Schema join_schema({{"f_id", DataType::kInt64},
                      {"f_dim", DataType::kInt64},
                      {"d_id", DataType::kInt64},
                      {"d_name", DataType::kString}});
  PlanPtr project =
      Project(join, {Col(join_schema, "d_name"), Col(join_schema, "f_dim")},
              {"name", "dim"});
  for (JoinAlgo algo : {JoinAlgo::kHash, JoinAlgo::kRadix, JoinAlgo::kMerge}) {
    SCOPED_TRACE(JoinAlgoName(algo));
    database.set_join_algo(algo);
    QueryResult joined = database.Run(join);
    const Column& names = joined.table->ColumnByName("d_name");
    const Column& keys = joined.table->ColumnByName("f_dim");
    ASSERT_EQ(joined.table->num_rows(), 500u);
    for (size_t r = 0; r < joined.table->num_rows(); ++r) {
      std::string_view base = dim->column(1).GetString(keys.GetInt64(r));
      ASSERT_EQ(names.GetString(r).data(), base.data()) << "row " << r;
    }
    QueryResult projected = database.Run(project);
    ASSERT_EQ(projected.table->num_rows(), 500u);
    for (size_t r = 0; r < projected.table->num_rows(); ++r) {
      std::string_view base = dim->column(1).GetString(
          projected.table->column(1).GetInt64(r));
      ASSERT_EQ(projected.table->column(0).GetString(r).data(), base.data())
          << "row " << r;
    }
  }
}

TEST(JoinGatherTest, ResultSurvivesItsSourceVersion) {
  Database database;
  database.RegisterTable("dim", MakeDim(30));
  database.RegisterTable("fact", MakeFact(500, 30));
  std::weak_ptr<const Table> first_dim = database.GetTableShared("dim");
  QueryResult result =
      database.Run(HashJoin(Scan("fact"), Scan("dim"), "f_dim", "d_id"));
  database.ReplaceTables({{"dim", MakeDim(3)}});
  ASSERT_TRUE(first_dim.expired());
  const Column& names = result.table->ColumnByName("d_name");
  const Column& keys = result.table->ColumnByName("f_dim");
  for (size_t r = 0; r < result.table->num_rows(); ++r) {
    EXPECT_EQ(names.GetString(r), Name(static_cast<int>(keys.GetInt64(r))));
  }
}

TEST(JoinGatherTest, ProjectOfColumnRefsKeepsNulls) {
  Database database;
  auto table = std::make_shared<Table>(Schema({{"i", DataType::kInt64},
                                               {"s", DataType::kString},
                                               {"d", DataType::kDouble},
                                               {"k", DataType::kInt64}}));
  for (int r = 0; r < 40; ++r) {
    table->AppendRow(
        {r % 3 == 0 ? Value::Null(DataType::kInt64) : Value::Int64(r),
         r % 4 == 1 ? Value::Null(DataType::kString) : Value::String(Name(r)),
         r % 5 == 2 ? Value::Null(DataType::kDouble) : Value::Double(r * 0.5),
         Value::Int64(r)});
  }
  database.RegisterTable("t", table);
  const Schema& schema = table->schema();
  PlanPtr filtered = Filter(Scan("t"), Lt(Col(schema, "k"), LitInt(30)));
  PlanPtr plan = Project(filtered,
                         {Col(schema, "s"), Col(schema, "d"), Col(schema, "i"),
                          Col(schema, "s")},
                         {"s", "d", "i", "s2"});
  std::shared_ptr<const Table> expected = ReferenceExecute(plan, database);
  for (ExecMode mode : {ExecMode::kOptimized, ExecMode::kDebug}) {
    SCOPED_TRACE(ExecModeName(mode));
    QueryResult result = database.Run(plan, mode);
    EXPECT_EQ(DiffTables(*result.table, *expected, 0.0, false), "");
    ASSERT_EQ(result.table->num_rows(), 30u);
    for (size_t r = 0; r < 30; ++r) {
      EXPECT_EQ(result.table->column(0).IsNull(r), r % 4 == 1);
      EXPECT_EQ(result.table->column(1).IsNull(r), r % 5 == 2);
      EXPECT_EQ(result.table->column(2).IsNull(r), r % 3 == 0);
      EXPECT_EQ(result.table->column(3).IsNull(r), r % 4 == 1);
    }
  }
}

}  // namespace
}  // namespace db
}  // namespace perfeval
