// Differential oracle over a *mutating* database: randomized interleaved
// INSERT/DELETE batches run through the write path (txn::DeltaStore)
// between TPC-H queries, and after every batch all affected queries must
// still agree with the row-at-a-time reference — across execution modes,
// worker-thread counts {1, 8} and join algorithms. The reference reads
// the same merged catalog snapshots the engine scans, but shares none of
// the engine's fast paths, so any disagreement localizes a wrong-result
// bug in the merge (delete bitmaps, insert side, zone-map rebuilds)
// rather than in the query itself.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "db/reference.h"
#include "txn/store.h"
#include "txn/vdisk.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace sql {
namespace {

using db::ExecMode;
using db::JoinAlgo;

constexpr double kDoubleTol = 1e-9;

/// One randomized mutation batch against `table`: a handful of inserted
/// rows cloned from live rows (always schema-valid) and a DELETE of one
/// seeded key-residue class, committed as a single transaction.
void MutateTable(txn::DeltaStore& store, const std::string& table,
                 Pcg32& rng) {
  auto merged = store.MergedTable(table);
  ASSERT_GT(merged->num_rows(), 0u);
  size_t cols = merged->schema().num_columns();
  std::vector<std::vector<db::Value>> rows;
  int num_inserts = 4 + static_cast<int>(rng.NextBounded(8));
  for (int i = 0; i < num_inserts; ++i) {
    size_t src = rng.NextBounded(static_cast<uint32_t>(merged->num_rows()));
    std::vector<db::Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      row.push_back(merged->ValueAt(src, c));
    }
    rows.push_back(std::move(row));
  }
  int64_t residue = static_cast<int64_t>(rng.NextBounded(97));

  uint64_t txn_id = store.Begin();
  ASSERT_TRUE(store.BufferInsert(txn_id, table, std::move(rows)).ok());
  // Column 0 is the table's leading key (l_orderkey / o_orderkey / ...):
  // one residue class deletes a scattered ~1% slice.
  ASSERT_TRUE(store
                  .BufferDelete(txn_id, table,
                                [residue](const db::Table& t, uint32_t r) {
                                  return t.ValueAt(r, 0).AsInt64() % 97 ==
                                         residue;
                                })
                  .ok());
  txn::DeltaStore::CommitInfo info;
  Status committed = store.Commit(txn_id, &info);
  ASSERT_TRUE(committed.ok()) << committed.ToString();
}

TEST(SqlOracleMutationTest, Tpch22StaysBitIdenticalUnderInterleavedDml) {
  db::Database database;
  workload::TpchGenerator gen(0.002);
  gen.LoadAll(&database);
  txn::VirtualDisk disk;
  txn::DeltaStore store(&database, &disk);
  {
    Status opened = store.Open();
    ASSERT_TRUE(opened.ok()) << opened.ToString();
  }

  Pcg32 rng(MixSeed(20260808, 0xD31, 0x7));
  const ExecMode kModes[] = {ExecMode::kDebug, ExecMode::kOptimized};
  const int kThreads[] = {1, 8};
  const JoinAlgo kJoinAlgos[] = {JoinAlgo::kHash, JoinAlgo::kRadix,
                                 JoinAlgo::kMerge};

  int engine_runs = 0;
  for (int q = 1; q <= 22; ++q) {
    // Mutate between queries: lineitem every round, orders every third,
    // with a checkpoint (delta compaction) partway through the sweep.
    MutateTable(store, "lineitem", rng);
    if (q % 3 == 0) {
      MutateTable(store, "orders", rng);
    }
    if (q == 11) {
      Status ckpt = store.Checkpoint();
      ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
    }
    // The reference reads the catalog directly and does not trigger the
    // refresh hook: fold the freshly committed deltas in first.
    store.RefreshCatalog();

    const workload::TpchQuery& query = workload::GetTpchQuery(q);
    db::PlanPtr plan = query.Build(database);
    ASSERT_NE(plan, nullptr) << "Q" << q;
    std::shared_ptr<const db::Table> expected =
        db::ReferenceExecute(plan, database);

    for (JoinAlgo algo : kJoinAlgos) {
      database.set_join_algo(algo);
      for (ExecMode mode : kModes) {
        for (int threads : kThreads) {
          database.set_threads(threads);
          db::QueryResult result = database.Run(plan, mode);
          std::string diff = DiffTables(*result.table, *expected, kDoubleTol,
                                        /*ignore_row_order=*/true);
          EXPECT_EQ(diff, "")
              << "Q" << q << " algo=" << JoinAlgoName(algo)
              << " mode=" << ExecModeName(mode) << " threads=" << threads;
          ++engine_runs;
        }
      }
    }
    database.set_threads(1);
    database.set_join_algo(JoinAlgo::kRadix);
  }
  EXPECT_EQ(engine_runs, 22 * 3 * 2 * 2);

  // The write path really mutated what the queries scanned.
  txn::DeltaStoreStats stats = store.stats();
  EXPECT_EQ(stats.commits, 22u + 7u);
  EXPECT_GT(stats.rows_inserted, 0u);
  EXPECT_GT(stats.rows_deleted, 0u);
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_TRUE(store.CheckIntegrity().ok());
}

}  // namespace
}  // namespace sql
}  // namespace perfeval
