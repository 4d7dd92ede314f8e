#include "db/column.h"

#include <gtest/gtest.h>

namespace perfeval {
namespace db {
namespace {

TEST(ColumnTest, Int64AppendAndGet) {
  Column col(DataType::kInt64);
  col.AppendInt64(10);
  col.AppendInt64(-5);
  EXPECT_EQ(col.size(), 2u);
  EXPECT_EQ(col.GetInt64(0), 10);
  EXPECT_EQ(col.GetInt64(1), -5);
}

TEST(ColumnTest, DoubleColumn) {
  Column col(DataType::kDouble);
  col.AppendDouble(1.5);
  EXPECT_DOUBLE_EQ(col.GetDouble(0), 1.5);
  EXPECT_DOUBLE_EQ(col.GetNumeric(0), 1.5);
}

TEST(ColumnTest, StringColumn) {
  Column col(DataType::kString);
  col.AppendString("hello");
  EXPECT_EQ(col.GetString(0), "hello");
  EXPECT_EQ(col.strings().size(), 1u);
}

TEST(ColumnTest, DateColumnSharesIntStorage) {
  Column col(DataType::kDate);
  col.AppendDate(DateFromYmd(1995, 6, 17));
  EXPECT_EQ(col.GetDate(0), DateFromYmd(1995, 6, 17));
  EXPECT_DOUBLE_EQ(col.GetNumeric(0),
                   static_cast<double>(DateFromYmd(1995, 6, 17)));
}

TEST(ColumnTest, AppendValueDispatchesOnType) {
  Column ints(DataType::kInt64);
  ints.AppendValue(Value::Int64(3));
  EXPECT_EQ(ints.GetValue(0), Value::Int64(3));
  Column dates(DataType::kDate);
  dates.AppendValue(Value::Date(10));
  EXPECT_EQ(dates.GetValue(0).AsDate(), 10);
  Column strs(DataType::kString);
  strs.AppendValue(Value::String("s"));
  EXPECT_EQ(strs.GetValue(0).AsString(), "s");
}

TEST(ColumnTest, ByteSizeScalesWithRows) {
  Column col(DataType::kInt64);
  for (int i = 0; i < 100; ++i) {
    col.AppendInt64(i);
  }
  EXPECT_EQ(col.ByteSize(), 100 * sizeof(int64_t));
}

TEST(ColumnTest, StringByteSizeIncludesContent) {
  Column col(DataType::kString);
  col.AppendString(std::string(1000, 'x'));
  EXPECT_GE(col.ByteSize(), 1000u);
}

TEST(ColumnTest, NullMaskTracksAppends) {
  Column col(DataType::kInt64);
  col.AppendInt64(1);
  EXPECT_FALSE(col.has_nulls());
  col.AppendNull();
  col.AppendInt64(3);
  ASSERT_TRUE(col.has_nulls());
  ASSERT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_TRUE(col.GetValue(1).is_null());
}

// Regression: NoteAppend materialized the mask with assign(size()-1, 0),
// which is empty when the very first append is the NULL, and the guarded
// push_back then silently dropped the flag — a leading NULL came back as
// the placeholder value 0. Flushed out by the differential oracle via
// single-group aggregates whose first output cell is NULL.
TEST(ColumnTest, LeadingNullIsNotDropped) {
  Column col(DataType::kInt64);
  col.AppendNull();
  ASSERT_TRUE(col.has_nulls());
  ASSERT_EQ(col.size(), 1u);
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_TRUE(col.GetValue(0).is_null());
  col.AppendInt64(7);
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_FALSE(col.IsNull(1));
  EXPECT_EQ(col.GetInt64(1), 7);
}

TEST(ColumnTest, AppendGatherCopiesRowsAndNulls) {
  Column src(DataType::kString);
  src.AppendString("a");
  src.AppendNull();
  src.AppendString("c");
  Column dst(DataType::kString);
  dst.AppendString("x");
  dst.AppendGather(src, {2, 1, 2});
  ASSERT_EQ(dst.size(), 4u);
  ASSERT_TRUE(dst.has_nulls());
  EXPECT_EQ(dst.GetString(0), "x");
  EXPECT_FALSE(dst.IsNull(0));  // backfilled row stays non-NULL.
  EXPECT_EQ(dst.GetString(1), "c");
  EXPECT_TRUE(dst.IsNull(2));
  EXPECT_EQ(dst.GetString(3), "c");
  EXPECT_FALSE(dst.IsNull(3));
}

TEST(ColumnTest, AppendGatherOfNonNullRowsKeepsMaskLazy) {
  // Same as appending the rows one value at a time: no NULL gathered, no
  // mask, so null-free fast paths downstream stay available.
  Column src(DataType::kInt64);
  src.AppendInt64(1);
  src.AppendNull();
  src.AppendInt64(3);
  Column leading(DataType::kInt64);  // first gathered row is the NULL.
  leading.AppendGather(src, {1, 0});
  ASSERT_TRUE(leading.has_nulls());
  EXPECT_TRUE(leading.IsNull(0));
  EXPECT_FALSE(leading.IsNull(1));

  Column dst(DataType::kInt64);
  dst.AppendGather(src, {0, 2});
  EXPECT_FALSE(dst.has_nulls());
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.GetInt64(0), 1);
  EXPECT_EQ(dst.GetInt64(1), 3);
  // Once a NULL exists, later gathers extend the mask row for row.
  dst.AppendGather(src, {1, 0});
  ASSERT_TRUE(dst.has_nulls());
  EXPECT_FALSE(dst.IsNull(1));
  EXPECT_TRUE(dst.IsNull(2));
  EXPECT_FALSE(dst.IsNull(3));
}

TEST(ColumnDeathTest, TypeMismatchAborts) {
  Column col(DataType::kInt64);
  EXPECT_DEATH(col.AppendDouble(1.0), "CHECK failed");
  EXPECT_DEATH(col.AppendString("x"), "CHECK failed");
  Column strs(DataType::kString);
  strs.AppendString("x");
  EXPECT_DEATH(strs.GetNumeric(0), "GetNumeric on string");
}

}  // namespace
}  // namespace db
}  // namespace perfeval
