// Tests for the cache-conscious join engine (db/join.h) and the parallel
// sort kernels (db/sort.h): kernel correctness, the duplicate-heavy
// capacity regression, determinism at any thread count, and the
// engine-level join_algo knob. Lives in db_parallel_test so the `db` ctest
// label runs it under PERFEVAL_SANITIZE=thread.

#include "db/join.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "db/database.h"
#include "db/sort.h"
#include "sql/planner.h"

namespace perfeval {
namespace db {
namespace {

TEST(FlatKeyIndexTest, LookupReturnsRowsInInsertionOrder) {
  FlatKeyIndex index;
  index.Insert(7, 100);
  index.Insert(3, 200);
  index.Insert(7, 300);
  index.Insert(7, 400);
  std::vector<uint32_t> rows;
  EXPECT_EQ(index.Lookup(7, &rows), 3u);
  EXPECT_EQ(rows, (std::vector<uint32_t>{100, 300, 400}));
  rows.clear();
  EXPECT_EQ(index.Lookup(3, &rows), 1u);
  EXPECT_EQ(rows, (std::vector<uint32_t>{200}));
  rows.clear();
  EXPECT_EQ(index.Lookup(99, &rows), 0u);
  EXPECT_EQ(index.num_keys(), 2u);
  EXPECT_EQ(index.num_rows(), 4u);
}

TEST(FlatKeyIndexTest, GrowsPastInitialEstimateAndKeepsChains) {
  FlatKeyIndex index(/*expected_distinct=*/4, /*expected_rows=*/4);
  for (int64_t k = 0; k < 5000; ++k) {
    index.Insert(k, static_cast<uint32_t>(k));
    index.Insert(k, static_cast<uint32_t>(k) + 100000);
  }
  EXPECT_EQ(index.num_keys(), 5000u);
  for (int64_t k = 0; k < 5000; ++k) {
    std::vector<uint32_t> rows;
    ASSERT_EQ(index.Lookup(k, &rows), 2u) << "key " << k;
    EXPECT_EQ(rows[0] + 100000, rows[1]);
  }
}

TEST(FlatKeyIndexTest, DuplicateHeavyBuildIsSizedByDistinctKeys) {
  // Regression for the old `hash_table.reserve(right.num_rows())`: 100k
  // build rows over 100 distinct keys must size the slot array for ~100
  // keys, not reserve one bucket per row (a 1000x overshoot).
  constexpr size_t kRows = 100000;
  constexpr int64_t kDistinct = 100;
  std::vector<int64_t> keys(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    keys[i] = static_cast<int64_t>(i) % kDistinct;
  }
  size_t estimate = EstimateDistinctKeys(keys);
  EXPECT_GE(estimate, static_cast<size_t>(kDistinct));
  EXPECT_LE(estimate, kRows / 100);  // nowhere near one per row.
  // All-distinct keys estimate at the other extreme: near one per row.
  std::vector<int64_t> unique(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    unique[i] = static_cast<int64_t>(i);
  }
  EXPECT_GE(EstimateDistinctKeys(unique), kRows / 2);

  FlatKeyIndex index(estimate, kRows);
  for (size_t i = 0; i < kRows; ++i) {
    index.Insert(keys[i], static_cast<uint32_t>(i));
  }
  EXPECT_EQ(index.num_keys(), static_cast<size_t>(kDistinct));
  EXPECT_EQ(index.num_rows(), kRows);
  // Slots stay sized by distinct keys; duplicates only extend the chains.
  EXPECT_LE(index.capacity(), 4096u);
}

TEST(EstimateDistinctKeysTest, ExactForSmallInputs) {
  EXPECT_EQ(EstimateDistinctKeys({}), 0u);
  EXPECT_EQ(EstimateDistinctKeys({5, 5, 5, 5}), 1u);
  EXPECT_EQ(EstimateDistinctKeys({1, 2, 3, 2, 1}), 3u);
}

TEST(EstimateDistinctKeysTest, DuplicateFreeInputNeverExceedsRowCount) {
  // Chao1 blow-up regression: with a duplicate-free input every sampled
  // key is a singleton, so f1 = sample size and f2 = 0, and the raw
  // d + f1^2 / (2 (f2 + 1)) estimate is ~d + d^2/2 — half a million for
  // a 1024-key sample, far beyond the input. The estimate must clamp to
  // the row count (an upper bound on the true distinct count).
  for (size_t n : {2000u, 10000u, 100000u}) {
    std::vector<int64_t> unique(n);
    for (size_t i = 0; i < n; ++i) {
      unique[i] = static_cast<int64_t>(i * 7 + 3);
    }
    size_t estimate = EstimateDistinctKeys(unique);
    EXPECT_LE(estimate, n) << "n=" << n;
    EXPECT_GE(estimate, n / 2) << "n=" << n;
  }
}

TEST(ChooseRadixBitsTest, GrowsWithBuildSizeAndIsCapped) {
  EXPECT_EQ(ChooseRadixBits(0), 0);
  EXPECT_EQ(ChooseRadixBits(1000), 0);  // fits one L2-sized partition.
  int bits_1m = ChooseRadixBits(1 << 20);
  EXPECT_GT(bits_1m, 0);
  EXPECT_LE(ChooseRadixBits(1 << 22), kMaxRadixBits);
  EXPECT_GE(ChooseRadixBits(1 << 22), bits_1m);
  EXPECT_EQ(ChooseRadixBits(size_t{1} << 40), kMaxRadixBits);
}

// ---- Match kernels ----

struct Sides {
  std::vector<int64_t> build_keys;
  std::vector<uint32_t> build_rows;
  std::vector<int64_t> probe_keys;
  std::vector<uint32_t> probe_rows;
};

/// Duplicate-rich random sides; big enough to span many morsels.
Sides MakeSides(size_t build_n, size_t probe_n, int64_t key_space,
                uint64_t seed) {
  Pcg32 rng(seed);
  Sides s;
  for (size_t i = 0; i < build_n; ++i) {
    s.build_keys.push_back(rng.NextInRange(0, key_space - 1));
    s.build_rows.push_back(static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < probe_n; ++i) {
    s.probe_keys.push_back(rng.NextInRange(0, key_space - 1));
    s.probe_rows.push_back(static_cast<uint32_t>(i));
  }
  return s;
}

using MatchPairs = std::vector<std::pair<uint32_t, uint32_t>>;

MatchPairs SortedPairs(const JoinMatches& m) {
  MatchPairs pairs;
  for (size_t i = 0; i < m.size(); ++i) {
    pairs.emplace_back(m.probe_rows[i], m.build_rows[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Test-local reference join, independent of every kernel: an ordered map
/// from key to build rows in insertion order, probed in probe-row order.
JoinMatches ReferenceJoinMatch(const Sides& s) {
  std::map<int64_t, std::vector<uint32_t>> build;
  for (size_t i = 0; i < s.build_keys.size(); ++i) {
    build[s.build_keys[i]].push_back(s.build_rows[i]);
  }
  JoinMatches out;
  for (size_t i = 0; i < s.probe_keys.size(); ++i) {
    auto it = build.find(s.probe_keys[i]);
    if (it == build.end()) {
      continue;
    }
    for (uint32_t build_row : it->second) {
      out.probe_rows.push_back(s.probe_rows[i]);
      out.build_rows.push_back(build_row);
    }
  }
  return out;
}

TEST(JoinMatchTest, AllAlgorithmsAgreeOnTheMatchSet) {
  Sides s = MakeSides(20000, 30000, 5000, 1);
  JoinMatches reference = ReferenceJoinMatch(s);
  JoinMatches hash = FlatHashJoinMatch(s.build_keys, s.build_rows,
                                       s.probe_keys, s.probe_rows, 1);
  JoinMatches radix = RadixJoinMatch(s.build_keys, s.build_rows,
                                     s.probe_keys, s.probe_rows, 5, 1);
  JoinMatches merge = MergeJoinMatch(s.build_keys, s.build_rows,
                                     s.probe_keys, s.probe_rows, 1);
  ASSERT_GT(reference.size(), 0u);
  // The flat table emits in probe-row order, each key's build rows in
  // insertion order: exactly the reference's order.
  EXPECT_EQ(hash.probe_rows, reference.probe_rows);
  EXPECT_EQ(hash.build_rows, reference.build_rows);
  // Radix and merge emit in their own fixed orders; the match set is the
  // same.
  MatchPairs expected = SortedPairs(reference);
  EXPECT_EQ(SortedPairs(radix), expected);
  EXPECT_EQ(SortedPairs(merge), expected);
}

TEST(JoinMatchTest, MergeSortSkipKeepsTheEmissionOrder) {
  // A side whose (key, row) pairs arrive ascending skips its sort; one
  // ascending by key only (rows descending within a key) must still sort.
  // Either way the matches are byte-identical to the unsorted input's.
  Sides s = MakeSides(3000, 4000, 500, 3);
  JoinMatches expected = MergeJoinMatch(s.build_keys, s.build_rows,
                                        s.probe_keys, s.probe_rows, 1);
  ASSERT_GT(expected.size(), 0u);
  auto arrange = [](std::vector<int64_t>* keys, std::vector<uint32_t>* rows,
                    bool rows_descending) {
    std::vector<std::pair<int64_t, uint32_t>> pairs;
    for (size_t i = 0; i < keys->size(); ++i) {
      pairs.emplace_back((*keys)[i], (*rows)[i]);
    }
    std::sort(pairs.begin(), pairs.end(), [&](const auto& a, const auto& b) {
      if (a.first != b.first) {
        return a.first < b.first;
      }
      return rows_descending ? a.second > b.second : a.second < b.second;
    });
    for (size_t i = 0; i < pairs.size(); ++i) {
      (*keys)[i] = pairs[i].first;
      (*rows)[i] = pairs[i].second;
    }
  };
  for (bool rows_descending : {false, true}) {
    Sides t = s;
    arrange(&t.build_keys, &t.build_rows, rows_descending);
    arrange(&t.probe_keys, &t.probe_rows, rows_descending);
    JoinMatches merge = MergeJoinMatch(t.build_keys, t.build_rows,
                                       t.probe_keys, t.probe_rows, 2);
    EXPECT_EQ(merge.probe_rows, expected.probe_rows) << rows_descending;
    EXPECT_EQ(merge.build_rows, expected.build_rows) << rows_descending;
  }
}

TEST(JoinMatchTest, EveryAlgorithmHandlesEmptyInputs) {
  Sides s = MakeSides(100, 100, 50, 2);
  const std::vector<int64_t> no_keys;
  const std::vector<uint32_t> no_rows;
  for (JoinAlgo algo : {JoinAlgo::kHash, JoinAlgo::kRadix, JoinAlgo::kMerge}) {
    SCOPED_TRACE(JoinAlgoName(algo));
    // Empty build side.
    EXPECT_EQ(JoinMatch(algo, no_keys, no_rows, s.probe_keys, s.probe_rows,
                        0, 4)
                  .size(),
              0u);
    // Empty probe side.
    EXPECT_EQ(JoinMatch(algo, s.build_keys, s.build_rows, no_keys, no_rows,
                        0, 4)
                  .size(),
              0u);
    // Both empty.
    EXPECT_EQ(JoinMatch(algo, no_keys, no_rows, no_keys, no_rows, 0, 4)
                  .size(),
              0u);
  }
}

TEST(JoinMatchTest, ThreadCountNeverChangesTheOutput) {
  Sides s = MakeSides(30000, 50000, 2000, 3);
  for (JoinAlgo algo :
       {JoinAlgo::kHash, JoinAlgo::kRadix, JoinAlgo::kMerge}) {
    SCOPED_TRACE(JoinAlgoName(algo));
    JoinMatches serial = JoinMatch(algo, s.build_keys, s.build_rows,
                                   s.probe_keys, s.probe_rows, 6, 1);
    for (int threads : {2, 3, 8}) {
      SCOPED_TRACE(threads);
      JoinMatches parallel = JoinMatch(algo, s.build_keys, s.build_rows,
                                       s.probe_keys, s.probe_rows, 6,
                                       threads);
      EXPECT_EQ(parallel.probe_rows, serial.probe_rows);
      EXPECT_EQ(parallel.build_rows, serial.build_rows);
    }
  }
}

TEST(JoinMatchTest, RadixBitSettingsAgreeOnTheMatchSet) {
  Sides s = MakeSides(10000, 20000, 700, 4);
  MatchPairs expected = SortedPairs(ReferenceJoinMatch(s));
  for (int bits : {1, 3, 8, kMaxRadixBits}) {
    SCOPED_TRACE(bits);
    JoinMatches radix = RadixJoinMatch(s.build_keys, s.build_rows,
                                       s.probe_keys, s.probe_rows, bits, 4);
    EXPECT_EQ(SortedPairs(radix), expected);
  }
}

// ---- Parallel sort kernels ----

TEST(StableSortRowsTest, MatchesSerialStableSortAtAnyThreadCount) {
  // Duplicate-rich keys make stability observable: ties must keep input
  // order. 100k rows spans several sort chunks.
  constexpr size_t kRows = 100000;
  Table table(Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}}));
  Pcg32 rng(17);
  for (size_t i = 0; i < kRows; ++i) {
    table.AppendRow({Value::Int64(rng.NextInRange(0, 99)),
                     Value::Double(rng.NextDouble())});
  }
  RowComparator comparator(
      table, {{"k", /*ascending=*/true}, {"v", /*ascending=*/false}});
  std::vector<uint32_t> expected(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    expected[i] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t> serial = expected;
  std::stable_sort(serial.begin(), serial.end(), comparator);
  for (int threads : {1, 2, 5, 8}) {
    SCOPED_TRACE(threads);
    std::vector<uint32_t> rows = expected;
    StableSortRows(comparator, threads, &rows);
    EXPECT_EQ(rows, serial);
  }
}

// ---- Engine-level knob ----

TEST(JoinAlgoTest, ParseAndNameRoundTrip) {
  for (JoinAlgo algo : {JoinAlgo::kHash, JoinAlgo::kRadix, JoinAlgo::kMerge}) {
    Result<JoinAlgo> parsed = ParseJoinAlgo(JoinAlgoName(algo));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, algo);
  }
  EXPECT_FALSE(ParseJoinAlgo("quantum").ok());
  EXPECT_FALSE(ParseJoinAlgo("legacy").ok());
}

TEST(JoinAlgoTest, AllAlgorithmsProduceTheSameOrderedQueryResult) {
  // An ORDER BY pins the output relation, so every join algorithm must
  // render identically — in both execution modes, serial and parallel.
  Database database;
  auto orders = std::make_shared<Table>(
      Schema({{"o_id", DataType::kInt64}, {"o_cust", DataType::kInt64}}));
  auto cust = std::make_shared<Table>(
      Schema({{"c_id", DataType::kInt64}, {"c_name", DataType::kString}}));
  Pcg32 rng(23);
  for (int64_t i = 0; i < 50; ++i) {
    cust->AppendRow({Value::Int64(i),
                     Value::String("c" + std::to_string(i))});
  }
  for (int64_t i = 0; i < 5000; ++i) {
    orders->AppendRow({Value::Int64(i),
                       Value::Int64(rng.NextInRange(0, 49))});
  }
  database.RegisterTable("orders", orders);
  database.RegisterTable("cust", cust);
  const std::string sql_text =
      "SELECT c_name, count(*) AS n FROM orders JOIN cust "
      "ON o_cust = c_id GROUP BY c_name ORDER BY c_name";

  std::string baseline;
  for (JoinAlgo algo : {JoinAlgo::kHash, JoinAlgo::kRadix, JoinAlgo::kMerge}) {
    SCOPED_TRACE(JoinAlgoName(algo));
    database.set_join_algo(algo);
    for (ExecMode mode : {ExecMode::kOptimized, ExecMode::kDebug}) {
      SCOPED_TRACE(ExecModeName(mode));
      for (int threads : {1, 8}) {
        SCOPED_TRACE(threads);
        database.set_threads(threads);
        Result<QueryResult> result = sql::RunQuery(sql_text, database, mode);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::string rendered = result->table->ToString(1000);
        if (baseline.empty()) {
          baseline = rendered;
        } else {
          EXPECT_EQ(rendered, baseline);
        }
      }
    }
  }
  database.set_threads(1);
  database.set_join_algo(JoinAlgo::kRadix);
}

}  // namespace
}  // namespace db
}  // namespace perfeval
