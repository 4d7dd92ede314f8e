#include <algorithm>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "db/database.h"
#include "db/plan.h"

namespace perfeval {
namespace db {
namespace {

/// Random two-table database with controllable key ranges, so joins have
/// duplicates on both sides and unmatched keys.
std::unique_ptr<Database> MakeRandomDb(size_t left_rows, size_t right_rows,
                                       int64_t key_range, uint64_t seed,
                                       bool sorted_keys) {
  auto database = std::make_unique<Database>();
  Pcg32 rng(seed);
  auto make = [&](const char* key_name, const char* value_name,
                  size_t rows) {
    auto table = std::make_shared<Table>(
        Schema({{key_name, DataType::kInt64},
                {value_name, DataType::kInt64}}));
    std::vector<int64_t> keys;
    for (size_t i = 0; i < rows; ++i) {
      keys.push_back(rng.NextInRange(0, key_range));
    }
    if (sorted_keys) {
      std::sort(keys.begin(), keys.end());
    }
    for (size_t i = 0; i < rows; ++i) {
      table->AppendRow({Value::Int64(keys[i]),
                        Value::Int64(static_cast<int64_t>(i))});
    }
    return table;
  };
  database->RegisterTable("l", make("lk", "lv", left_rows));
  database->RegisterTable("r", make("rk", "rv", right_rows));
  return database;
}

/// Sorted multiset of rendered rows — join output order is not specified.
std::multiset<std::string> RowSet(const Table& table) {
  std::multiset<std::string> out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row += table.ValueAt(r, c).ToString();
      row += "|";
    }
    out.insert(row);
  }
  return out;
}

/// The sort-merge join: the equi-join operator pinned to JoinAlgo::kMerge.
PlanPtr MergePinned(PlanPtr left, PlanPtr right, std::string left_key,
                    std::string right_key) {
  return HashJoinWith(std::move(left), std::move(right), {left_key},
                      {right_key}, JoinAlgo::kMerge);
}

struct JoinCase {
  size_t left_rows;
  size_t right_rows;
  int64_t key_range;
  bool sorted;
};

// Names each case by its fields: gtest's default prints the struct's raw
// bytes, padding included, which differ from build to build.
void PrintTo(const JoinCase& c, std::ostream* os) {
  *os << c.left_rows << "x" << c.right_rows << " rows, keys 0.."
      << c.key_range << (c.sorted ? ", sorted" : ", random");
}

class MergeVsHashTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(MergeVsHashTest, SameResultAsHashJoin) {
  const JoinCase& c = GetParam();
  auto database = MakeRandomDb(c.left_rows, c.right_rows, c.key_range, 77,
                               c.sorted);
  PlanPtr hash = HashJoin(Scan("l"), Scan("r"), "lk", "rk");
  PlanPtr merge = MergePinned(Scan("l"), Scan("r"), "lk", "rk");
  QueryResult hash_result = database->Run(hash);
  QueryResult merge_result = database->Run(merge);
  EXPECT_EQ(hash_result.table->num_rows(), merge_result.table->num_rows());
  EXPECT_EQ(RowSet(*hash_result.table), RowSet(*merge_result.table));
}

TEST_P(MergeVsHashTest, DebugModeAgrees) {
  const JoinCase& c = GetParam();
  auto database = MakeRandomDb(c.left_rows, c.right_rows, c.key_range, 78,
                               c.sorted);
  PlanPtr merge = MergePinned(Scan("l"), Scan("r"), "lk", "rk");
  QueryResult optimized = database->Run(merge, ExecMode::kOptimized);
  QueryResult debug = database->Run(merge, ExecMode::kDebug);
  EXPECT_EQ(RowSet(*optimized.table), RowSet(*debug.table));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MergeVsHashTest,
    ::testing::Values(JoinCase{100, 100, 20, false},   // heavy duplicates.
                      JoinCase{100, 100, 20, true},    // pre-sorted.
                      JoinCase{500, 50, 1000, false},  // mostly unmatched.
                      JoinCase{1, 1, 1, false},        // single rows.
                      JoinCase{200, 0, 10, false},     // empty right side.
                      JoinCase{0, 200, 10, false}));   // empty left side.

TEST(MergeJoinTest, DescendingClusteredInputMustStillSort) {
  // Keys clustered in DESCENDING order: monotone, but not the ascending
  // (key, row) order the skip-sort fast path detects. Taking the fast
  // path here would emit garbage matches, so this guards the detector's
  // direction.
  auto database = std::make_unique<Database>();
  auto make = [&](const char* key_name, const char* value_name,
                  uint64_t seed) {
    Pcg32 rng(seed);
    auto table = std::make_shared<Table>(
        Schema({{key_name, DataType::kInt64},
                {value_name, DataType::kInt64}}));
    std::vector<int64_t> keys;
    for (size_t i = 0; i < 400; ++i) {
      keys.push_back(rng.NextInRange(0, 60));
    }
    std::sort(keys.begin(), keys.end(), std::greater<int64_t>());
    for (size_t i = 0; i < keys.size(); ++i) {
      table->AppendRow({Value::Int64(keys[i]),
                        Value::Int64(static_cast<int64_t>(i))});
    }
    return table;
  };
  database->RegisterTable("l", make("lk", "lv", 21));
  database->RegisterTable("r", make("rk", "rv", 22));
  PlanPtr hash = HashJoin(Scan("l"), Scan("r"), "lk", "rk");
  PlanPtr merge = MergePinned(Scan("l"), Scan("r"), "lk", "rk");
  for (ExecMode mode : {ExecMode::kOptimized, ExecMode::kDebug}) {
    QueryResult hash_result = database->Run(hash, mode);
    QueryResult merge_result = database->Run(merge, mode);
    ASSERT_GT(hash_result.table->num_rows(), 0u);
    EXPECT_EQ(RowSet(*hash_result.table), RowSet(*merge_result.table));
  }
}

class EmptyInputJoinTest : public ::testing::TestWithParam<JoinAlgo> {};

TEST_P(EmptyInputJoinTest, EmptySidesYieldEmptyJoins) {
  // Plan-level edge cases for every physical algorithm: empty build side,
  // empty probe side, both empty. The schema must survive even when no
  // row does.
  for (auto [left_rows, right_rows] :
       {std::pair<size_t, size_t>{0, 200}, {200, 0}, {0, 0}}) {
    auto database = MakeRandomDb(left_rows, right_rows, 10, 31, false);
    database->set_join_algo(GetParam());
    for (PlanPtr plan : {HashJoin(Scan("l"), Scan("r"), "lk", "rk"),
                         MergePinned(Scan("l"), Scan("r"), "lk", "rk")}) {
      for (ExecMode mode : {ExecMode::kOptimized, ExecMode::kDebug}) {
        QueryResult result = database->Run(plan, mode);
        EXPECT_EQ(result.table->num_rows(), 0u);
        EXPECT_EQ(result.table->num_columns(), 4u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, EmptyInputJoinTest,
                         ::testing::Values(JoinAlgo::kHash,
                                           JoinAlgo::kRadix),
                         [](const auto& info) {
                           return JoinAlgoName(info.param);
                         });

TEST(MergeJoinTest, FilteredInputsJoinCorrectly) {
  auto database = MakeRandomDb(300, 300, 50, 5, false);
  const Schema& left = database->GetTable("l").schema();
  PlanPtr merge = MergePinned(
      FilterScan("l", {"lk", "lv"}, Lt(Col(left, "lk"), LitInt(25))),
      Scan("r"), "lk", "rk");
  QueryResult result = database->Run(merge);
  const Column& lk = result.table->ColumnByName("lk");
  const Column& rk = result.table->ColumnByName("rk");
  for (size_t r = 0; r < result.table->num_rows(); ++r) {
    EXPECT_LT(lk.GetInt64(r), 25);
    EXPECT_EQ(lk.GetInt64(r), rk.GetInt64(r));
  }
}

TEST(MergeJoinTest, ExplainNamesTheOperator) {
  auto database = MakeRandomDb(10, 10, 5, 1, false);
  PlanPtr merge = MergePinned(Scan("l"), Scan("r"), "lk", "rk");
  EXPECT_NE(Explain(merge).find("HashJoin [lk = rk] algo=merge"),
            std::string::npos);
}

TEST(TopNTest, MatchesSortPlusLimitOnUniqueKeys) {
  auto database = MakeRandomDb(500, 1, 1'000'000, 9, false);
  PlanPtr top = TopN(Scan("l"), {{"lk", true}}, 10);
  PlanPtr sorted = Limit(Sort(Scan("l"), {{"lk", true}}), 10);
  QueryResult top_result = database->Run(top);
  QueryResult sorted_result = database->Run(sorted);
  ASSERT_EQ(top_result.table->num_rows(), 10u);
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(top_result.table->ValueAt(r, 0).AsInt64(),
              sorted_result.table->ValueAt(r, 0).AsInt64());
  }
}

TEST(TopNTest, DescendingAndMultiKey) {
  auto database = MakeRandomDb(200, 1, 20, 11, false);
  PlanPtr top = TopN(Scan("l"), {{"lk", false}, {"lv", true}}, 5);
  QueryResult result = database->Run(top);
  ASSERT_EQ(result.table->num_rows(), 5u);
  for (size_t r = 1; r < 5; ++r) {
    int64_t prev_k = result.table->ValueAt(r - 1, 0).AsInt64();
    int64_t cur_k = result.table->ValueAt(r, 0).AsInt64();
    EXPECT_GE(prev_k, cur_k);
    if (prev_k == cur_k) {
      EXPECT_LE(result.table->ValueAt(r - 1, 1).AsInt64(),
                result.table->ValueAt(r, 1).AsInt64());
    }
  }
}

TEST(TopNTest, NLargerThanInputReturnsAllSorted) {
  auto database = MakeRandomDb(20, 1, 1'000'000, 13, false);
  QueryResult result =
      database->Run(TopN(Scan("l"), {{"lk", true}}, 100));
  EXPECT_EQ(result.table->num_rows(), 20u);
  for (size_t r = 1; r < 20; ++r) {
    EXPECT_LE(result.table->ValueAt(r - 1, 0).AsInt64(),
              result.table->ValueAt(r, 0).AsInt64());
  }
}

TEST(TopNTest, DebugModeAgrees) {
  auto database = MakeRandomDb(300, 1, 1'000'000, 15, false);
  PlanPtr top = TopN(Scan("l"), {{"lk", true}}, 7);
  QueryResult optimized = database->Run(top, ExecMode::kOptimized);
  QueryResult debug = database->Run(top, ExecMode::kDebug);
  EXPECT_EQ(RowSet(*optimized.table), RowSet(*debug.table));
}

}  // namespace
}  // namespace db
}  // namespace perfeval
