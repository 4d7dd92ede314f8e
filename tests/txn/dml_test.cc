// The SQL DML front-end: INSERT INTO ... VALUES and DELETE FROM ...
// WHERE parsed, bound against the catalog, and executed through the
// delta store — including literal coercion, NULLs, multi-row VALUES,
// and the error paths.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "db/database.h"
#include "db/plan.h"
#include "txn/dml.h"
#include "txn/store.h"
#include "txn/vdisk.h"
#include "../test_scans.h"

namespace perfeval {
namespace txn {
namespace {

std::unique_ptr<db::Database> MakeDb() {
  auto database = std::make_unique<db::Database>();
  auto t = std::make_shared<db::Table>(db::Schema({
      {"id", db::DataType::kInt64},
      {"price", db::DataType::kDouble},
      {"name", db::DataType::kString},
      {"shipped", db::DataType::kDate},
  }));
  for (int i = 0; i < 4; ++i) {
    t->AppendRow({db::Value::Int64(i), db::Value::Double(i * 1.5),
                  db::Value::String("row" + std::to_string(i)),
                  db::Value::Date(9000 + i)});
  }
  database->RegisterTable("items", std::move(t));
  return database;
}

class DmlTest : public ::testing::Test {
 protected:
  DmlTest() : database_(MakeDb()), store_(database_.get(), &disk_) {
    Status s = store_.Open();
    PERFEVAL_CHECK(s.ok()) << s.ToString();
  }

  size_t NumRows() { return store_.MergedTable("items")->num_rows(); }

  std::unique_ptr<db::Database> database_;
  VirtualDisk disk_;
  DeltaStore store_;
};

TEST_F(DmlTest, InsertSingleRowWithAllTypes) {
  auto result = ExecuteDml(
      "INSERT INTO items VALUES (10, 2.5, 'widget', DATE '1995-01-01')",
      store_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 1u);
  auto merged = store_.MergedTable("items");
  ASSERT_EQ(merged->num_rows(), 5u);
  EXPECT_EQ(merged->ValueAt(4, 0).AsInt64(), 10);
  EXPECT_DOUBLE_EQ(merged->ValueAt(4, 1).AsDouble(), 2.5);
  EXPECT_EQ(merged->ValueAt(4, 2).AsString(), "widget");
}

TEST_F(DmlTest, InsertMultiRowValuesAndCoercions) {
  // Int literal into a double column widens; a plain string fills a date
  // column; negative literals carry their sign; NULL takes the column type.
  auto result = ExecuteDml(
      "INSERT INTO items VALUES"
      " (-5, 1, '1997-03-15', '1997-03-15'),"
      " (6, NULL, NULL, NULL)",
      store_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 2u);
  auto merged = store_.MergedTable("items");
  ASSERT_EQ(merged->num_rows(), 6u);
  EXPECT_EQ(merged->ValueAt(4, 0).AsInt64(), -5);
  EXPECT_DOUBLE_EQ(merged->ValueAt(4, 1).AsDouble(), 1.0);
  EXPECT_EQ(merged->ValueAt(4, 2).AsString(), "1997-03-15");
  EXPECT_FALSE(merged->ValueAt(4, 3).is_null());
  EXPECT_TRUE(merged->ValueAt(5, 1).is_null());
  EXPECT_TRUE(merged->ValueAt(5, 2).is_null());
  EXPECT_TRUE(merged->ValueAt(5, 3).is_null());
}

TEST_F(DmlTest, DeleteWithWherePredicate) {
  auto result = ExecuteDml("DELETE FROM items WHERE id >= 2", store_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 2u);
  EXPECT_EQ(NumRows(), 2u);
  // Expressions over any column work — the full WHERE binder is in play.
  auto more =
      ExecuteDml("DELETE FROM items WHERE price * 2.0 > 0.5 AND id = 1",
                 store_);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_EQ(more->rows_affected, 1u);
  EXPECT_EQ(NumRows(), 1u);
}

TEST_F(DmlTest, DeleteWithoutWhereClearsTable) {
  auto result = ExecuteDml("DELETE FROM items", store_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 4u);
  EXPECT_EQ(NumRows(), 0u);
  // Deleting from the now-empty table affects nothing.
  auto again = ExecuteDml("DELETE FROM items", store_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows_affected, 0u);
}

TEST_F(DmlTest, InsertThenDeleteOwnRows) {
  ASSERT_TRUE(
      ExecuteDml("INSERT INTO items VALUES (100, 0.0, 'x', NULL)", store_)
          .ok());
  auto result = ExecuteDml("DELETE FROM items WHERE id = 100", store_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 1u);
  EXPECT_EQ(NumRows(), 4u);
}

TEST_F(DmlTest, ErrorsDoNotMutate) {
  struct Case {
    const char* sql;
    StatusCode code;
  };
  const Case cases[] = {
      {"INSERT INTO ghost VALUES (1, 2.0, 'a', NULL)", StatusCode::kNotFound},
      {"DELETE FROM ghost", StatusCode::kNotFound},
      // Arity mismatch.
      {"INSERT INTO items VALUES (1, 2.0)", StatusCode::kInvalidArgument},
      // Type mismatch: string into the int column.
      {"INSERT INTO items VALUES ('one', 2.0, 'a', NULL)",
       StatusCode::kInvalidArgument},
      // Double into the int column does not silently truncate.
      {"INSERT INTO items VALUES (1.5, 2.0, 'a', NULL)",
       StatusCode::kInvalidArgument},
      // Bad date text.
      {"INSERT INTO items VALUES (1, 2.0, 'a', 'not-a-date')",
       StatusCode::kInvalidArgument},
      // Non-literal VALUES entry.
      {"INSERT INTO items VALUES (1 + 1, 2.0, 'a', NULL)",
       StatusCode::kInvalidArgument},
      // Unknown column in WHERE.
      {"DELETE FROM items WHERE ghost = 1", StatusCode::kInvalidArgument},
      // NULL literal outside INSERT VALUES.
      {"DELETE FROM items WHERE id = NULL", StatusCode::kInvalidArgument},
      // Parse errors.
      {"INSERT items VALUES (1)", StatusCode::kInvalidArgument},
      {"DELETE items", StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    auto result = ExecuteDml(c.sql, store_);
    EXPECT_FALSE(result.ok()) << c.sql;
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), c.code) << c.sql << " -> "
                                                << result.status().ToString();
    }
    EXPECT_EQ(NumRows(), 4u) << c.sql;
  }
  EXPECT_EQ(store_.stats().rows_inserted, 0u);
  EXPECT_EQ(store_.stats().rows_deleted, 0u);
}

TEST_F(DmlTest, SelectIsRejectedWithPointerToRunQuery) {
  auto result = ExecuteDml("SELECT id FROM items", store_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("RunQuery"), std::string::npos);
}

TEST_F(DmlTest, DmlAndQueriesInterleaveOnOneDatabase) {
  ASSERT_TRUE(
      ExecuteDml("INSERT INTO items VALUES (50, 9.5, 'fifty', NULL)", store_)
          .ok());
  EXPECT_EQ(database_->Run(ScanOf(*database_, "items")).table->num_rows(), 5u);
  ASSERT_TRUE(ExecuteDml("DELETE FROM items WHERE id < 2", store_).ok());
  EXPECT_EQ(database_->Run(ScanOf(*database_, "items")).table->num_rows(), 3u);
}

}  // namespace
}  // namespace txn
}  // namespace perfeval
