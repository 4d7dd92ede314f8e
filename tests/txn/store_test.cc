// DeltaStore: transactions over the immutable column store. Covers
// commit visibility through the catalog (queries see committed deltas),
// abort semantics, validation, checkpoint + WAL recovery round trips,
// torn-tail repair, replayed conflict aborts, per-record atomicity
// across tables, the checked-mode integrity gate, and a TSan-targeted
// concurrent ingest + scan test.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/error.h"
#include "db/plan.h"
#include "db/reference.h"
#include "txn/store.h"
#include "txn/wal.h"
#include "../test_scans.h"

namespace perfeval {
namespace txn {
namespace {

// A fresh pristine database: recovery always starts from one of these
// plus the durable state, exactly like a process restart.
std::unique_ptr<db::Database> MakeDb() {
  db::DatabaseOptions options;
  options.rows_per_page = 4;
  auto database = std::make_unique<db::Database>(options);
  auto t = std::make_shared<db::Table>(
      db::Schema({{"id", db::DataType::kInt64}, {"v", db::DataType::kInt64}}));
  for (int i = 0; i < 8; ++i) {
    t->AppendRow({db::Value::Int64(i), db::Value::Int64(i % 3)});
  }
  database->RegisterTable("t", std::move(t));
  auto u = std::make_shared<db::Table>(
      db::Schema({{"k", db::DataType::kInt64}, {"s", db::DataType::kString}}));
  u->AppendRow({db::Value::Int64(1), db::Value::String("one")});
  database->RegisterTable("u", std::move(u));
  return database;
}

std::vector<std::vector<db::Value>> IntRows(std::vector<int64_t> ids) {
  std::vector<std::vector<db::Value>> rows;
  for (int64_t id : ids) {
    rows.push_back({db::Value::Int64(id), db::Value::Int64(id % 3)});
  }
  return rows;
}

RowPredicate IdEquals(int64_t id) {
  return [id](const db::Table& table, uint32_t row) {
    return table.ValueAt(row, 0).AsInt64() == id;
  };
}

Status CommitInsert(DeltaStore& store, const std::string& table,
                    std::vector<std::vector<db::Value>> rows,
                    DeltaStore::CommitInfo* info = nullptr) {
  uint64_t txn = store.Begin();
  Status s = store.BufferInsert(txn, table, std::move(rows));
  if (!s.ok()) {
    store.Abort(txn);
    return s;
  }
  return store.Commit(txn, info);
}

TEST(DeltaStoreTest, CommittedInsertIsVisibleToQueries) {
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());

  DeltaStore::CommitInfo info;
  ASSERT_TRUE(CommitInsert(store, "t", IntRows({100, 101}), &info).ok());
  EXPECT_EQ(info.rows_inserted, 2u);
  EXPECT_GT(info.lsn, 0u);

  // The refresh hook folds the delta in at the top of Run().
  db::QueryResult result = database->Run(ScanOf(*database, "t"));
  EXPECT_EQ(result.table->num_rows(), 10u);
  EXPECT_EQ(store.MergedTable("t")->num_rows(), 10u);

  DeltaStoreStats stats = store.stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.rows_inserted, 2u);
}

TEST(DeltaStoreTest, DeleteResolvesPredicateAtCommit) {
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());

  uint64_t txn = store.Begin();
  ASSERT_TRUE(store.BufferDelete(txn, "t", IdEquals(3)).ok());
  DeltaStore::CommitInfo info;
  ASSERT_TRUE(store.Commit(txn, &info).ok());
  EXPECT_EQ(info.rows_deleted, 1u);
  EXPECT_EQ(database->Run(ScanOf(*database, "t")).table->num_rows(), 7u);

  // A second delete of the same id resolves against committed state:
  // nothing matches, the commit is trivially empty — not a conflict.
  uint64_t txn2 = store.Begin();
  ASSERT_TRUE(store.BufferDelete(txn2, "t", IdEquals(3)).ok());
  DeltaStore::CommitInfo info2;
  ASSERT_TRUE(store.Commit(txn2, &info2).ok());
  EXPECT_EQ(info2.rows_deleted, 0u);
  EXPECT_EQ(info2.lsn, 0u);
}

TEST(DeltaStoreTest, NullPredicateDeletesEveryRow) {
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  uint64_t txn = store.Begin();
  ASSERT_TRUE(store.BufferDelete(txn, "t", nullptr).ok());
  DeltaStore::CommitInfo info;
  ASSERT_TRUE(store.Commit(txn, &info).ok());
  EXPECT_EQ(info.rows_deleted, 8u);
  EXPECT_EQ(database->Run(ScanOf(*database, "t")).table->num_rows(), 0u);
}

TEST(DeltaStoreTest, AbortedAndUnknownTransactionsChangeNothing) {
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());

  uint64_t txn = store.Begin();
  ASSERT_TRUE(store.BufferInsert(txn, "t", IntRows({500})).ok());
  store.Abort(txn);
  EXPECT_EQ(database->Run(ScanOf(*database, "t")).table->num_rows(), 8u);
  // The aborted id is gone: committing it now is an error, not a replay.
  EXPECT_EQ(store.Commit(txn).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.BufferInsert(99999, "t", IntRows({1})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.stats().aborts, 0u);  // explicit aborts are not conflicts.
}

TEST(DeltaStoreTest, BufferInsertValidatesSchema) {
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  uint64_t txn = store.Begin();
  EXPECT_EQ(store.BufferInsert(txn, "nope", IntRows({1})).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.BufferDelete(txn, "nope", nullptr).code(),
            StatusCode::kNotFound);
  // Wrong arity.
  EXPECT_EQ(
      store.BufferInsert(txn, "t", {{db::Value::Int64(1)}}).code(),
      StatusCode::kInvalidArgument);
  // Wrong type.
  EXPECT_EQ(store
                .BufferInsert(txn, "t",
                              {{db::Value::Int64(1),
                                db::Value::String("not an int")}})
                .code(),
            StatusCode::kInvalidArgument);
  // NULLs must carry the declared column type.
  EXPECT_TRUE(store
                  .BufferInsert(txn, "t",
                                {{db::Value::Int64(1),
                                  db::Value::Null(db::DataType::kInt64)}})
                  .ok());
  store.Abort(txn);
}

TEST(DeltaStoreTest, EmptyCommitNeedsNoWal) {
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  uint64_t txn = store.Begin();
  DeltaStore::CommitInfo info;
  ASSERT_TRUE(store.Commit(txn, &info).ok());
  EXPECT_EQ(info.lsn, 0u);
  EXPECT_EQ(disk.stats().fsyncs, 0);
  EXPECT_EQ(store.stats().commits, 1u);
}

TEST(DeltaStoreTest, MultiTableCommitIsAtomicAndVisible) {
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  uint64_t txn = store.Begin();
  ASSERT_TRUE(store.BufferInsert(txn, "t", IntRows({100})).ok());
  ASSERT_TRUE(store
                  .BufferInsert(txn, "u",
                                {{db::Value::Int64(2),
                                  db::Value::String("two")}})
                  .ok());
  ASSERT_TRUE(store.BufferDelete(txn, "t", IdEquals(0)).ok());
  ASSERT_TRUE(store.Commit(txn).ok());
  // +1 -1
  EXPECT_EQ(database->Run(ScanOf(*database, "t")).table->num_rows(), 8u);
  EXPECT_EQ(database->Run(ScanOf(*database, "u")).table->num_rows(), 2u);
}

TEST(DeltaStoreTest, RecoveryFromWalAloneRestoresExactState) {
  VirtualDisk disk;
  std::shared_ptr<db::Table> expected_t;
  std::shared_ptr<db::Table> expected_u;
  {
    auto database = MakeDb();
    DeltaStore store(database.get(), &disk);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(CommitInsert(store, "t", IntRows({100, 101, 102})).ok());
    uint64_t txn = store.Begin();
    ASSERT_TRUE(store.BufferDelete(txn, "t", IdEquals(101)).ok());
    ASSERT_TRUE(store.Commit(txn).ok());
    ASSERT_TRUE(
        CommitInsert(store, "u",
                     {{db::Value::Int64(7), db::Value::String("seven")}})
            .ok());
    expected_t = store.MergedTable("t");
    expected_u = store.MergedTable("u");
  }
  disk.Reopen();  // power cut: only synced bytes survive (all commits are).

  auto database = MakeDb();
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.stats().wal_records_replayed, 3u);
  EXPECT_EQ(db::DiffTables(*store.MergedTable("t"), *expected_t, 0.0, false),
            "");
  EXPECT_EQ(db::DiffTables(*store.MergedTable("u"), *expected_u, 0.0, false),
            "");
  // Queries on the recovered database see the recovered state directly.
  EXPECT_EQ(database->Run(ScanOf(*database, "t")).table->num_rows(),
            expected_t->num_rows());
  // The recovered store accepts new commits with continuing LSNs.
  ASSERT_TRUE(CommitInsert(store, "t", IntRows({200})).ok());
}

TEST(DeltaStoreTest, CheckpointTruncatesWalAndRecoveryUsesIt) {
  VirtualDisk disk;
  std::shared_ptr<db::Table> expected;
  {
    auto database = MakeDb();
    DeltaStore store(database.get(), &disk);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(CommitInsert(store, "t", IntRows({100, 101})).ok());
    uint64_t txn = store.Begin();
    ASSERT_TRUE(store.BufferDelete(txn, "t", IdEquals(100)).ok());
    ASSERT_TRUE(store.Commit(txn).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_EQ(disk.Size("wal.log"), 0u);
    // Post-checkpoint commits land in the (fresh) WAL.
    ASSERT_TRUE(CommitInsert(store, "t", IntRows({300})).ok());
    expected = store.MergedTable("t");
    EXPECT_EQ(store.stats().checkpoints, 1u);
  }
  disk.Reopen();

  auto database = MakeDb();
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  // Only the post-checkpoint record replays; the rest came from the image.
  EXPECT_EQ(store.stats().wal_records_replayed, 1u);
  EXPECT_EQ(db::DiffTables(*store.MergedTable("t"), *expected, 0.0, false),
            "");
}

TEST(DeltaStoreTest, TornWalTailIsDiscardedAndRepaired) {
  VirtualDisk disk;
  {
    auto database = MakeDb();
    DeltaStore store(database.get(), &disk);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(CommitInsert(store, "t", IntRows({100})).ok());
  }
  // A torn append: half a frame past the last synced record.
  disk.Append("wal.log", std::string("\x40\x00\x00\x00\x99", 5));
  {
    auto database = MakeDb();
    DeltaStore store(database.get(), &disk);
    ASSERT_TRUE(store.Open().ok());
    EXPECT_EQ(store.stats().torn_tail_bytes, 5u);
    EXPECT_EQ(store.stats().wal_records_replayed, 1u);
    EXPECT_EQ(store.MergedTable("t")->num_rows(), 9u);
  }
  // The repair truncated the tail durably: reopening is clean.
  disk.Reopen();
  auto database = MakeDb();
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.stats().torn_tail_bytes, 0u);
}

// Hand-crafts a WAL whose second record conflicts with the first — the
// state a crash leaves when two concurrent committers raced, the loser
// was reported kAborted, and both records are on the log. Replay must
// skip the loser entirely: its conflicting delete AND its insert (the
// record is atomic), exactly as the runtime outcome.
TEST(DeltaStoreTest, ReplayedConflictAbortsWholeRecordIdentically) {
  VirtualDisk disk;
  WalWriter writer(&disk, "wal.log");
  WalRecord winner;
  winner.txn_id = 1;
  WalOp del;
  del.kind = WalOp::Kind::kDelete;
  del.table = "t";
  del.base_rows = {0};
  winner.ops.push_back(del);
  writer.Append(winner);

  WalRecord loser;
  loser.txn_id = 2;
  WalOp ins;
  ins.kind = WalOp::Kind::kInsert;
  ins.table = "u";
  ins.rows = {{db::Value::Int64(666), db::Value::String("never")}};
  loser.ops.push_back(ins);
  loser.ops.push_back(del);  // same base row: a write-write conflict.
  writer.Append(loser);
  writer.SyncUpTo(2);

  auto database = MakeDb();
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.stats().wal_records_replayed, 2u);
  EXPECT_EQ(store.MergedTable("t")->num_rows(), 7u);  // one delete applied.
  EXPECT_EQ(store.MergedTable("u")->num_rows(), 1u);  // loser's insert skipped.
  // The recovered LSN counter accounts for both records.
  EXPECT_EQ(store.next_lsn(), 3u);
}

TEST(DeltaStoreTest, WalLsnGapIsDataLoss) {
  VirtualDisk disk;
  WalRecord r1;
  r1.lsn = 1;
  r1.txn_id = 1;
  WalOp op;
  op.kind = WalOp::Kind::kDelete;
  op.table = "t";
  op.base_rows = {0};
  r1.ops.push_back(op);
  WalRecord r3 = r1;
  r3.lsn = 3;
  r3.ops[0].base_rows = {1};
  disk.Append("wal.log", EncodeWalRecord(r1) + EncodeWalRecord(r3));

  auto database = MakeDb();
  DeltaStore store(database.get(), &disk);
  Status s = store.Open();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.message().find("LSN gap"), std::string::npos);
}

TEST(DeltaStoreTest, ReplayedRecordAgainstWrongSchemaIsDataLoss) {
  VirtualDisk disk;
  WalRecord r1;
  r1.lsn = 1;
  r1.txn_id = 1;
  WalOp op;
  op.kind = WalOp::Kind::kInsert;
  op.table = "t";
  op.rows = {{db::Value::String("wrong"), db::Value::Int64(1)}};
  r1.ops.push_back(op);
  disk.Append("wal.log", EncodeWalRecord(r1));
  auto database = MakeDb();
  DeltaStore store(database.get(), &disk);
  EXPECT_EQ(store.Open().code(), StatusCode::kDataLoss);

  VirtualDisk disk2;
  r1.ops[0].table = "ghost";
  disk2.Append("wal.log", EncodeWalRecord(r1));
  auto database2 = MakeDb();
  DeltaStore store2(database2.get(), &disk2);
  EXPECT_EQ(store2.Open().code(), StatusCode::kDataLoss);
}

TEST(DeltaStoreTest, CorruptCheckpointImageIsDataLoss) {
  VirtualDisk disk;
  {
    auto database = MakeDb();
    DeltaStore store(database.get(), &disk);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(CommitInsert(store, "t", IntRows({100})).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  // The checkpoint only ever appears whole (fsync-then-rename), so damage
  // to it is corruption, never a torn write.
  std::string image = disk.ReadAll("checkpoint.img");
  disk.Remove("checkpoint.img");
  image[image.size() / 2] ^= 0x40;
  disk.Append("checkpoint.img", image);
  auto database = MakeDb();
  DeltaStore store(database.get(), &disk);
  EXPECT_EQ(store.Open().code(), StatusCode::kDataLoss);
}

TEST(DeltaStoreTest, StaleCheckpointTmpIsDiscardedAtOpen) {
  VirtualDisk disk;
  disk.Append("checkpoint.img.tmp", "half-written never-renamed image");
  auto database = MakeDb();
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_FALSE(disk.Exists("checkpoint.img.tmp"));
}

// The checked-mode negative test: seeded delta corruption must turn the
// next checked query into a QueryError instead of a silent wrong answer.
TEST(DeltaStoreTest, CheckedModeCatchesSeededDeltaCorruption) {
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(CommitInsert(store, "t", IntRows({100, 101})).ok());
  ASSERT_EQ(database->Run(ScanOf(*database, "t")).table->num_rows(), 10u);

  store.CorruptForTest("t", TableDelta::Corruption::kRowIdOrder);
  EXPECT_FALSE(store.CheckIntegrity().ok());
  // Unchecked: the engine serves on, oblivious.
  EXPECT_NO_THROW(database->Run(ScanOf(*database, "t")));
  // Checked: the refresh hook refuses before the query executes.
  database->set_check(true);
  try {
    database->Run(ScanOf(*database, "t"));
    FAIL() << "checked mode must detect the corrupted delta";
  } catch (const db::QueryError& e) {
    EXPECT_NE(std::string(e.what()).find("delta store integrity"),
              std::string::npos);
  }
}

// The TSan target: writers committing inserts (with periodic checkpoints)
// race readers running scans through the query service path. Reader row
// counts must be non-decreasing (no snapshot regression) and the final
// state must be exact.
TEST(DeltaStoreTest, ConcurrentIngestAndScanIsCleanAndMonotone) {
  auto database = MakeDb();
  database->set_threads(2);  // morsel-parallel scans under ingest.
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());

  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 25;
  constexpr int kRowsPerCommit = 2;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&database, &done, &failures] {
      size_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        size_t rows = database->Run(ScanOf(*database, "t")).table->num_rows();
        if (rows < last) {
          failures.fetch_add(1);
        }
        last = rows;
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, &failures, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        int64_t base = 1000 + w * 1000 + i * kRowsPerCommit;
        uint64_t txn = store.Begin();
        if (!store.BufferInsert(txn, "t", IntRows({base, base + 1})).ok() ||
            !store.Commit(txn).ok()) {
          failures.fetch_add(1);
        }
        if (w == 0 && i % 10 == 9 && !store.Checkpoint().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0);
  size_t expected = 8 + kWriters * kCommitsPerWriter * kRowsPerCommit;
  EXPECT_EQ(database->Run(ScanOf(*database, "t")).table->num_rows(), expected);
  EXPECT_TRUE(store.CheckIntegrity().ok());
  DeltaStoreStats stats = store.stats();
  EXPECT_EQ(stats.commits, uint64_t{kWriters} * kCommitsPerWriter);
  EXPECT_EQ(stats.rows_inserted,
            uint64_t{kWriters} * kCommitsPerWriter * kRowsPerCommit);
}

TEST(DeltaStoreTest, ConcurrentReadersSeeCommitsWholeAcrossTables) {
  // Each commit inserts one row into `t` and one into `u`; readers run one
  // plan that reads both tables (their row counts, joined on a constant
  // key). A catalog install lands every stale table in one version, so a
  // result holds both tables' rows of a commit or neither.
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  auto count_of = [&database](const std::string& table,
                              const std::string& key,
                              const std::string& count) {
    db::PlanPtr keyed =
        db::Project(ScanOf(*database, table), {db::LitInt(1)}, {key});
    return db::Aggregate(keyed, {key},
                         {{db::AggOp::kCount, nullptr, count}});
  };
  db::PlanPtr both = db::HashJoin(count_of("t", "one_t", "rows_t"),
                                  count_of("u", "one_u", "rows_u"), "one_t",
                                  "one_u");
  constexpr int64_t kBaseT = 8;
  constexpr int64_t kBaseU = 1;

  constexpr int kWriters = 2;
  constexpr int kCommitsPerWriter = 40;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const db::Table> result = database->Run(both).table;
        if (result->num_rows() != 1) {
          failures.fetch_add(1);
          continue;
        }
        int64_t commits_t = result->ValueAt(0, 1).AsInt64() - kBaseT;
        int64_t commits_u = result->ValueAt(0, 3).AsInt64() - kBaseU;
        if (commits_t != commits_u) {
          torn.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, &failures, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        int64_t id = 1000 + w * 1000 + i;
        uint64_t txn = store.Begin();
        if (!store.BufferInsert(txn, "t", IntRows({id})).ok() ||
            !store
                 .BufferInsert(txn, "u",
                               {{db::Value::Int64(id),
                                 db::Value::String("row")}})
                 .ok() ||
            !store.Commit(txn).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  std::shared_ptr<const db::Table> final_counts = database->Run(both).table;
  EXPECT_EQ(final_counts->ValueAt(0, 1).AsInt64(),
            kBaseT + kWriters * kCommitsPerWriter);
  EXPECT_EQ(final_counts->ValueAt(0, 3).AsInt64(),
            kBaseU + kWriters * kCommitsPerWriter);
}

TEST(DeltaStoreTest, ReplacedTableVersionsAreFreed) {
  // After 100 installs of `t`, only the pristine base (which the delta
  // layers over) and the live version may be alive; every replaced
  // merged version died with its last reader.
  auto database = MakeDb();
  VirtualDisk disk;
  DeltaStore store(database.get(), &disk);
  ASSERT_TRUE(store.Open().ok());
  std::vector<std::weak_ptr<const db::Table>> versions;
  versions.push_back(database->GetTableShared("t"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(CommitInsert(store, "t", IntRows({100 + i})).ok());
    database->Refresh();
    versions.push_back(database->GetTableShared("t"));
  }
  size_t alive = 0;
  for (const auto& version : versions) {
    alive += version.expired() ? 0 : 1;
  }
  EXPECT_LE(alive, 2u);
  EXPECT_FALSE(versions.front().expired());  // the pristine base.
  EXPECT_FALSE(versions.back().expired());   // the live version.
  EXPECT_EQ(database->GetTable("t").num_rows(), 108u);
}

}  // namespace
}  // namespace txn
}  // namespace perfeval
