// Per-column statistics (db/table_stats.h): the optimizer's input. The
// contract under test: exact row/NULL counts, min/max agreeing with the
// data (zone-map path and scan path), NDV clamped to the row count,
// histogram-backed selectivities inside [0, 1] that rank intuitively,
// and determinism — stats are a pure function of table contents.

#include <memory>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/table_stats.h"

namespace perfeval {
namespace db {
namespace {

std::shared_ptr<Table> MakeInts(int n, int null_every = 0) {
  auto table = std::make_shared<Table>(
      Schema({{"k", DataType::kInt64}, {"x", DataType::kDouble}}));
  for (int i = 0; i < n; ++i) {
    if (null_every > 0 && i % null_every == 0) {
      table->column(0).AppendNull();
    } else {
      table->column(0).AppendInt64(i % 100);
    }
    table->column(1).AppendDouble(static_cast<double>(i));
  }
  table->FinishBulkLoad();
  return table;
}

TEST(TableStatsTest, CountsMinMaxAndNdv) {
  TableStats stats = ComputeTableStats(*MakeInts(1000));
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_EQ(stats.rows, 1000u);

  const ColumnStats* k = stats.Find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->rows, 1000u);
  EXPECT_EQ(k->null_count, 0u);
  EXPECT_TRUE(k->numeric);
  EXPECT_DOUBLE_EQ(k->min, 0.0);
  EXPECT_DOUBLE_EQ(k->max, 99.0);
  // k cycles through 100 values; the estimate must be clamped to rows
  // and land near the truth on this easy input.
  EXPECT_LE(k->distinct, 1000u);
  EXPECT_GE(k->distinct, 50u);
  EXPECT_LE(k->distinct, 200u);
  EXPECT_TRUE(k->histogram.has_value());

  const ColumnStats* x = stats.Find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_DOUBLE_EQ(x->min, 0.0);
  EXPECT_DOUBLE_EQ(x->max, 999.0);
  EXPECT_EQ(stats.Find("nope"), nullptr);
}

TEST(TableStatsTest, NullsAreCountedAndScaleSelectivity) {
  TableStats stats = ComputeTableStats(*MakeInts(1000, /*null_every=*/4));
  const ColumnStats* k = stats.Find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->null_count, 250u);
  EXPECT_EQ(k->non_null(), 750u);
  EXPECT_DOUBLE_EQ(k->null_fraction(), 0.25);
  // NULLs never match: even the whole range can select at most the
  // non-NULL fraction.
  EXPECT_LE(k->Selectivity(CmpOp::kLe, 99.0), 0.75 + 1e-9);
  EXPECT_GE(k->Selectivity(CmpOp::kLe, 99.0), 0.5);
}

TEST(TableStatsTest, SelectivityRanksAndClamps) {
  TableStats stats = ComputeTableStats(*MakeInts(10000));
  const ColumnStats* x = stats.Find("x");
  ASSERT_NE(x, nullptr);
  // Out-of-range predicates are free lunches.
  EXPECT_DOUBLE_EQ(x->Selectivity(CmpOp::kLt, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(x->Selectivity(CmpOp::kGt, 1e9), 0.0);
  EXPECT_DOUBLE_EQ(x->Selectivity(CmpOp::kEq, -5.0), 0.0);
  // x is uniform over [0, 9999]: the histogram interpolation should be
  // close to the true fractions and must rank monotonically.
  double q10 = x->Selectivity(CmpOp::kLt, 1000.0);
  double q50 = x->Selectivity(CmpOp::kLt, 5000.0);
  double q90 = x->Selectivity(CmpOp::kLt, 9000.0);
  EXPECT_NEAR(q10, 0.10, 0.03);
  EXPECT_NEAR(q50, 0.50, 0.03);
  EXPECT_NEAR(q90, 0.90, 0.03);
  EXPECT_LT(q10, q50);
  EXPECT_LT(q50, q90);
  // Equality on a (nearly) unique column is tiny but positive.
  double eq = x->Selectivity(CmpOp::kEq, 1234.0);
  EXPECT_GT(eq, 0.0);
  EXPECT_LT(eq, 0.01);
}

TEST(TableStatsTest, PureFunctionOfContents) {
  std::shared_ptr<Table> table = MakeInts(5000, /*null_every=*/7);
  TableStats a = ComputeTableStats(*table);
  TableStats b = ComputeTableStats(*table);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t i = 0; i < a.columns.size(); ++i) {
    EXPECT_EQ(a.columns[i].null_count, b.columns[i].null_count);
    EXPECT_EQ(a.columns[i].distinct, b.columns[i].distinct);
    EXPECT_DOUBLE_EQ(a.columns[i].min, b.columns[i].min);
    EXPECT_DOUBLE_EQ(a.columns[i].max, b.columns[i].max);
  }
}

TEST(TableStatsTest, DatabaseRefreshesStatsOnRegisterAndReplace) {
  Database database;
  database.RegisterTable("t", MakeInts(100));
  std::shared_ptr<const TableStats> first = database.GetTableStats("t");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rows, 100u);

  database.ReplaceTables({{"t", MakeInts(300)}});
  std::shared_ptr<const TableStats> second = database.GetTableStats("t");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->rows, 300u);
  // The old snapshot stays valid for readers that captured it.
  EXPECT_EQ(first->rows, 100u);
}

}  // namespace
}  // namespace db
}  // namespace perfeval
