// Unit coverage for the src/engine subsystem: the packed row layout
// (pack/unpack round-trips every column type including NULL masks), the
// row pages' I/O accounting in the shared db::StorageManager (full-tuple
// cold charges, warm hits, eviction, a new version cold), exact
// per-query I/O under concurrency, the row-store executor's determinism
// contract (results and StorageStats identical at any thread count),
// checked execution, overflow propagation, concurrent Execute safety
// (the TSan surface), and the backend-kind knob parsing.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/backend_kind.h"
#include "db/database.h"
#include "db/error.h"
#include "db/expr.h"
#include "db/plan.h"
#include "db/reference.h"
#include "engine/backend.h"
#include "engine/columnar_backend.h"
#include "engine/row_backend.h"
#include "engine/row_layout.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace engine {
namespace {

using db::DataType;
using db::Value;

// ---- Backend-kind knob ----

TEST(BackendKindTest, ParsesCanonicalNamesAndAliases) {
  EXPECT_EQ(db::ParseBackendKind("col").value(), db::BackendKind::kColumnar);
  EXPECT_EQ(db::ParseBackendKind("columnar").value(),
            db::BackendKind::kColumnar);
  EXPECT_EQ(db::ParseBackendKind("row").value(), db::BackendKind::kRowStore);
  EXPECT_EQ(db::ParseBackendKind("rowstore").value(),
            db::BackendKind::kRowStore);
  EXPECT_STREQ(db::BackendKindName(db::BackendKind::kColumnar), "col");
  EXPECT_STREQ(db::BackendKindName(db::BackendKind::kRowStore), "row");
}

TEST(BackendKindTest, RejectsTyposAsUsageErrors) {
  for (const char* bad : {"", "Row", "COL", "column", "rows", "both"}) {
    Result<db::BackendKind> kind = db::ParseBackendKind(bad);
    EXPECT_FALSE(kind.ok()) << bad;
    EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ---- Row layout ----

db::Schema AllTypesSchema() {
  return db::Schema({{"i", DataType::kInt64},
                     {"d", DataType::kDouble},
                     {"s", DataType::kString},
                     {"t", DataType::kDate}});
}

/// A table exercising every type with NULLs sprinkled in every column —
/// including row 0 (leading NULL bits) and a NULL in the final row.
std::shared_ptr<db::Table> AllTypesTable(size_t n) {
  auto table = std::make_shared<db::Table>(AllTypesSchema());
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> row;
    row.push_back(r % 5 == 0 ? Value::Null(DataType::kInt64)
                             : Value::Int64(static_cast<int64_t>(r) - 3));
    row.push_back(r % 7 == 1 ? Value::Null(DataType::kDouble)
                             : Value::Double(0.25 * static_cast<double>(r)));
    row.push_back(r % 3 == 2
                      ? Value::Null(DataType::kString)
                      : Value::String("str_" + std::to_string(r % 11)));
    row.push_back(r + 1 == n ? Value::Null(DataType::kDate)
                             : Value::Date(static_cast<int32_t>(10000 + r)));
    table->AppendRow(row);
  }
  return table;
}

TEST(RowLayoutTest, StrideAndNullBitmapShape) {
  RowLayout narrow = RowLayout::For(db::Schema({{"a", DataType::kInt64}}));
  EXPECT_EQ(narrow.stride(), 8u + 8u);  // 1 null byte padded to 8, 1 slot.
  // 9 columns need 2 null bytes, still one 8-byte bitmap word.
  std::vector<db::ColumnSpec> specs;
  for (int i = 0; i < 9; ++i) {
    specs.push_back({"c" + std::to_string(i), DataType::kInt64});
  }
  RowLayout wide = RowLayout::For(db::Schema(specs));
  EXPECT_EQ(wide.stride(), 8u + 9u * 8u);
  EXPECT_EQ(wide.SlotOffset(0), 8u);
  EXPECT_EQ(RowLayout::NullByte(8), 1u);
  EXPECT_EQ(RowLayout::NullBit(8), 1u);
}

TEST(RowLayoutTest, PackUnpackRoundTripsAllTypesAndNullMasks) {
  for (size_t n : {0u, 1u, 7u, 64u, 257u}) {
    std::shared_ptr<db::Table> table = AllTypesTable(n);
    RowBlock block = PackTable(*table);
    ASSERT_EQ(block.num_rows(), n);
    std::shared_ptr<db::Table> back = UnpackToTable(block);
    EXPECT_EQ(db::DiffTables(*back, *table, 0.0,
                             /*ignore_row_order=*/false),
              "")
        << "n=" << n;
    // Spot-check the typed readers against the source values.
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < 4; ++c) {
        Value expect = table->ValueAt(r, c);
        EXPECT_EQ(block.IsNull(r, c), expect.is_null());
        Value got = block.ValueAt(r, c);
        EXPECT_EQ(got.ToString(), expect.ToString());
      }
    }
  }
}

TEST(RowLayoutTest, StringHeapSlotMath) {
  StringHeap heap;
  uint64_t a = heap.Append("hello");
  uint64_t b = heap.Append("world!");
  EXPECT_EQ(heap.At(a), "hello");
  EXPECT_EQ(heap.At(b), "world!");
  EXPECT_EQ(StringHeap::SlotLength(b), 6u);

  StringHeap merged;
  uint32_t d0 = merged.AppendHeap(heap);
  EXPECT_EQ(d0, 0u);
  StringHeap other;
  uint64_t c = other.Append("xyz");
  uint32_t delta = merged.AppendHeap(other);
  EXPECT_EQ(delta, heap.size_bytes());
  EXPECT_EQ(merged.At(StringHeap::ShiftSlot(c, delta)), "xyz");
  EXPECT_EQ(merged.At(a), "hello");  // original slots stay valid.
}

// ---- Row pages in the shared buffer pool ----

/// `block` laid out as row pages of `storage`'s geometry, as table 1.
db::TableLayout RowLayoutOf(const db::StorageManager& storage,
                            const RowBlock& block, uint32_t version = 0) {
  db::TableLayout layout = BuildRowLayout(block, storage.rows_per_page());
  layout.table_id = 1;
  layout.version = version;
  return layout;
}

TEST(RowStorageTest, ColdChargesFullTupleBytesThenWarmHits) {
  std::shared_ptr<db::Table> table = AllTypesTable(100);
  RowBlock block = PackTable(*table);
  db::DiskModel disk;
  db::StorageManager storage(disk, /*buffer_pool_pages=*/64,
                             /*rows_per_page=*/16);
  db::TableLayout layout = RowLayoutOf(storage, block);
  EXPECT_EQ(layout.num_chunks, 7u);  // ceil(100 / 16).
  ASSERT_EQ(layout.columns.size(), 1u);

  db::StorageStats cold = storage.TouchColumn(layout, 0);
  EXPECT_EQ(cold.page_misses, 7);
  EXPECT_EQ(cold.page_hits, 0);
  // A row page carries complete tuples: packed stride bytes plus the
  // string payload, i.e. exactly the block's byte size over all pages.
  EXPECT_EQ(static_cast<size_t>(cold.bytes_read), block.ByteSize());
  // One seek for the first page, then the stream is sequential.
  int64_t expect_stall =
      disk.seek_ns +
      static_cast<int64_t>(cold.bytes_read * disk.ns_per_byte);
  EXPECT_EQ(cold.stall_ns, expect_stall);

  db::StorageStats warm = storage.TouchColumn(layout, 0);
  EXPECT_EQ(warm.page_misses, 0);
  EXPECT_EQ(warm.page_hits, 7);
  EXPECT_EQ(warm.bytes_read, 0);
  EXPECT_EQ(warm.stall_ns, 0);

  storage.FlushCaches();
  db::StorageStats again = storage.TouchColumn(layout, 0);
  EXPECT_EQ(again.page_misses, 7);
}

TEST(RowStorageTest, EvictsPastPoolBudgetAndANewVersionGoesCold) {
  std::shared_ptr<db::Table> table = AllTypesTable(100);
  RowBlock block = PackTable(*table);
  // Pool holds 4 of the 7 pages: a full sweep always evicts the head of
  // the scan, so the next sweep misses everything (sequential flooding).
  db::StorageManager storage(db::DiskModel(), /*buffer_pool_pages=*/4,
                             /*rows_per_page=*/16);
  db::TableLayout layout = RowLayoutOf(storage, block);
  (void)storage.TouchColumn(layout, 0);
  db::StorageStats sweep = storage.TouchColumn(layout, 0);
  EXPECT_EQ(sweep.page_misses, 7);

  // Touch a prefix that fits: resident afterwards.
  db::StorageManager fits(db::DiskModel(), /*buffer_pool_pages=*/4,
                          /*rows_per_page=*/16);
  db::TableLayout v0 = RowLayoutOf(fits, block);
  (void)fits.TouchMorsel(v0, {0}, 0, 48);
  EXPECT_EQ(fits.TouchMorsel(v0, {0}, 0, 48).page_hits, 3);

  // Installing the next version evicts the old one, and the new
  // version's pages are cold.
  fits.EvictTable(1, /*keep_version=*/1);
  EXPECT_EQ(fits.TouchMorsel(v0, {0}, 0, 48).page_misses, 3);
  db::TableLayout v1 = RowLayoutOf(fits, block, /*version=*/1);
  db::StorageStats replaced = fits.TouchMorsel(v1, {0}, 0, 48);
  EXPECT_EQ(replaced.page_misses, 3);
  EXPECT_EQ(replaced.page_hits, 0);
}

// ---- Row-store backend ----

db::PlanPtr AllTypesFilterPlan(const db::Schema& schema) {
  return db::Sort(
      db::Project(
          db::FilterScan("t", schema, {},
                         db::Ge(db::Col(schema, "i"), db::LitInt(0))),
          {db::Col(schema, "i"), db::Col(schema, "s"),
           db::Mul(db::Col(schema, "d"), db::LitDouble(2.0))},
          {"i", "s", "d2"}),
      {{"i", true}});
}

/// Results and per-execution StorageStats must be identical at any
/// thread count — batches are fixed-size and I/O is charged by the
/// coordinator in row order, never by worker interleaving.
TEST(RowBackendTest, DeterministicResultsAndStatsAcrossThreadCounts) {
  RowStoreBackend::Options options;
  options.batch_rows = 16;  // Many batches even on a small table.
  RowStoreBackend backend(options);
  std::shared_ptr<db::Table> table = AllTypesTable(300);
  backend.RegisterTable("t", std::make_shared<db::Table>(*table));
  db::PlanPtr plan = AllTypesFilterPlan(table->schema());

  std::shared_ptr<const db::Table> baseline;
  db::StorageStats base_stats;
  for (int threads : {1, 2, 8}) {
    backend.FlushCaches();
    ExecOptions exec;
    exec.threads = threads;
    exec.check = true;
    BackendResult result = backend.Execute(plan, exec);
    if (baseline == nullptr) {
      baseline = result.table;
      base_stats = result.storage;
      continue;
    }
    EXPECT_EQ(db::DiffTables(*result.table, *baseline, 0.0,
                             /*ignore_row_order=*/false),
              "")
        << "threads=" << threads;
    EXPECT_EQ(result.storage.page_hits, base_stats.page_hits);
    EXPECT_EQ(result.storage.page_misses, base_stats.page_misses);
    EXPECT_EQ(result.storage.bytes_read, base_stats.bytes_read);
    EXPECT_EQ(result.storage.stall_ns, base_stats.stall_ns);
  }
}

/// The boundary cases of fixed-size batching: row counts straddling the
/// batch size must neither drop nor duplicate rows on any operator path.
TEST(RowBackendTest, BatchBoundaryRowCounts) {
  for (size_t n : {15u, 16u, 17u, 31u, 32u, 33u}) {
    RowStoreBackend::Options options;
    options.batch_rows = 16;
    RowStoreBackend backend(options);
    std::shared_ptr<db::Table> table = AllTypesTable(n);
    backend.RegisterTable("t", std::make_shared<db::Table>(*table));
    db::PlanPtr plan = AllTypesFilterPlan(table->schema());
    for (int threads : {1, 4}) {
      ExecOptions exec;
      exec.threads = threads;
      exec.check = true;
      BackendResult result = backend.Execute(plan, exec);
      // Independent expectation: count rows with non-NULL i >= 0.
      size_t expect = 0;
      for (size_t r = 0; r < n; ++r) {
        Value v = table->ValueAt(r, 0);
        if (!v.is_null() && v.AsInt64() >= 0) {
          ++expect;
        }
      }
      EXPECT_EQ(result.table->num_rows(), expect)
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(RowBackendTest, SumOverflowThrowsOutOfRange) {
  RowStoreBackend backend;
  auto table = std::make_shared<db::Table>(
      db::Schema({{"v", DataType::kInt64}}));
  table->AppendRow({Value::Int64(std::numeric_limits<int64_t>::max())});
  table->AppendRow({Value::Int64(1)});
  backend.RegisterTable("t", table);
  db::PlanPtr plan = db::Aggregate(
      db::Scan("t", table->schema()), {},
      {{db::AggOp::kSum, db::Col(table->schema(), "v"), "s"}});
  try {
    (void)backend.Execute(plan, ExecOptions());
    FAIL() << "expected QueryError";
  } catch (const db::QueryError& e) {
    EXPECT_EQ(e.code(), StatusCode::kOutOfRange);
  }
}

/// The aggregate and ordering rules the row store shares with the
/// columnar engine (db/semantics.h), run through the row store and diffed
/// exactly against the reference interpreter, which keeps its own copy.
TEST(RowBackendTest, SharedSemanticsMatchReference) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr int64_t k2To53 = int64_t{1} << 53;
  struct Case {
    const char* name;
    std::shared_ptr<db::Table> table;
    std::function<db::PlanPtr(const db::Schema&)> plan;
  };
  std::vector<Case> cases;

  // Descending sort over NaN and NULL keys: NaN greatest, NULL smallest.
  auto messy = std::make_shared<db::Table>(
      db::Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}}));
  int64_t k = 0;
  for (double v : {3.5, kNaN, -1.0, 0.0, kNaN, 7.25, -0.0, 2.0}) {
    messy->AppendRow({Value::Int64(k++), Value::Double(v)});
  }
  messy->AppendRow({Value::Int64(k++), Value::Null(DataType::kDouble)});
  messy->AppendRow({Value::Int64(k++), Value::Double(1.5)});
  messy->AppendRow({Value::Int64(k++), Value::Null(DataType::kDouble)});
  cases.push_back({"nan_null_descending_sort", messy,
                   [](const db::Schema& s) {
                     return db::Sort(db::Scan("t", s),
                                     {{"v", false}, {"k", true}});
                   }});

  // Group 2 sees only NULL inputs: SUM/AVG/MIN/MAX are NULL, COUNT is 0.
  auto nulls = std::make_shared<db::Table>(
      db::Schema({{"g", DataType::kInt64}, {"x", DataType::kDouble}}));
  nulls->AppendRow({Value::Int64(1), Value::Double(3.0)});
  nulls->AppendRow({Value::Int64(1), Value::Null(DataType::kDouble)});
  nulls->AppendRow({Value::Int64(2), Value::Null(DataType::kDouble)});
  cases.push_back({"all_null_group", nulls, [](const db::Schema& s) {
                     db::ExprPtr x = db::Col(s, "x");
                     return db::Sort(
                         db::Aggregate(db::Scan("t", s), {"g"},
                                       {{db::AggOp::kAvg, x, "a"},
                                        {db::AggOp::kSum, x, "s"},
                                        {db::AggOp::kMin, x, "lo"},
                                        {db::AggOp::kMax, x, "hi"},
                                        {db::AggOp::kCount, x, "nx"}}),
                         {{"g", true}});
                   }});

  // Group 1's int64 sum passes 2^53, where a double accumulator would
  // round every input; AVG must divide the exact integer sum.
  auto wide = std::make_shared<db::Table>(
      db::Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (int i = 0; i < 3; ++i) {
    wide->AppendRow({Value::Int64(1), Value::Int64(k2To53 + 1)});
    wide->AppendRow({Value::Int64(2), Value::Int64(i)});
  }
  cases.push_back({"int_avg_past_2^53", wide, [](const db::Schema& s) {
                     db::ExprPtr v = db::Col(s, "v");
                     return db::Aggregate(db::Scan("t", s), {"g"},
                                          {{db::AggOp::kAvg, v, "a"},
                                           {db::AggOp::kSum, v, "s"}});
                   }});

  for (const Case& c : cases) {
    db::Database database;
    database.RegisterTable("t", c.table);
    db::PlanPtr plan = c.plan(c.table->schema());
    std::shared_ptr<const db::Table> expected =
        db::ReferenceExecute(plan, database);
    std::unique_ptr<RowStoreBackend> backend =
        RowStoreBackend::Over(&database);
    for (int threads : {1, 4}) {
      ExecOptions exec;
      exec.threads = threads;
      exec.check = true;
      BackendResult result = backend->Execute(plan, exec);
      EXPECT_EQ(db::DiffTables(*result.table, *expected, 0.0,
                               /*ignore_row_order=*/false),
                "")
          << c.name << " threads=" << threads;
    }
  }
  // The exact-sum AVG differs from one accumulated in doubles.
  db::Database database;
  database.RegisterTable("t", wide);
  std::shared_ptr<const db::Table> avg = db::ReferenceExecute(
      cases.back().plan(wide->schema()), database);
  EXPECT_EQ(avg->column(1).GetDouble(0),
            static_cast<double>(3 * (k2To53 + 1)) / 3.0);
  EXPECT_NE(avg->column(1).GetDouble(0),
            3 * static_cast<double>(k2To53 + 1) / 3.0);
}

/// Concurrent executions over one backend share immutable blocks and a
/// locked pool; run the same plan from several threads and require every
/// result identical (the TSan job drives this test).
TEST(RowBackendTest, ConcurrentExecuteIsSafeAndAgrees) {
  RowStoreBackend backend;
  std::shared_ptr<db::Table> table = AllTypesTable(500);
  backend.RegisterTable("t", std::make_shared<db::Table>(*table));
  db::PlanPtr plan = AllTypesFilterPlan(table->schema());
  BackendResult expected = backend.Execute(plan, ExecOptions());

  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const db::Table>> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&backend, &plan, &results, i] {
      ExecOptions exec;
      exec.threads = 2;
      results[i] = backend.Execute(plan, exec).table;
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(db::DiffTables(*results[i], *expected.table, 0.0,
                             /*ignore_row_order=*/false),
              "")
        << "worker " << i;
  }
}

/// Queries running concurrently over one row store, through a pool
/// smaller than their working set, are each charged exactly the pages
/// they touched: their charges sum to what the pool recorded.
TEST(RowBackendTest, ConcurrentQueriesAreChargedExactlyTheirOwnIo) {
  db::DatabaseOptions options;
  options.rows_per_page = 256;
  options.buffer_pool_pages = 16;
  db::Database database(options);
  workload::TpchGenerator gen(0.002);
  gen.LoadAll(&database);
  std::unique_ptr<RowStoreBackend> backend = RowStoreBackend::Over(&database);
  const int kQueries[] = {1, 3, 6, 14};

  db::StorageStats before = backend->StorageSnapshot();
  db::StorageStats charged;
  int64_t stall_ns = 0;
  std::mutex mu;
  std::vector<std::thread> clients;
  for (int q : kQueries) {
    db::PlanPtr plan = workload::GetTpchQuery(q).Build(database);
    clients.emplace_back([&, plan] {
      for (int round = 0; round < 3; ++round) {
        BackendResult result = backend->Execute(plan, ExecOptions());
        EXPECT_EQ(result.profile.TotalStallNs(), result.storage.stall_ns);
        std::lock_guard<std::mutex> lock(mu);
        charged += result.storage;
        stall_ns += result.stall_ns;
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  db::StorageStats after = backend->StorageSnapshot();
  EXPECT_GT(charged.page_misses, 0);
  EXPECT_EQ(charged.page_hits, after.page_hits - before.page_hits);
  EXPECT_EQ(charged.page_misses, after.page_misses - before.page_misses);
  EXPECT_EQ(charged.bytes_read, after.bytes_read - before.bytes_read);
  EXPECT_EQ(charged.stall_ns, after.stall_ns - before.stall_ns);
  EXPECT_EQ(stall_ns, after.stall_ns - before.stall_ns);
}

// ---- The two backends side by side ----

TEST(BackendFactoryTest, CreatesBothKindsOverOneDatabase) {
  db::Database database;
  workload::TpchGenerator gen(0.001);
  gen.LoadAll(&database);
  std::unique_ptr<Backend> col =
      CreateBackend(db::BackendKind::kColumnar, &database);
  std::unique_ptr<Backend> row =
      CreateBackend(db::BackendKind::kRowStore, &database);
  EXPECT_EQ(col->kind(), db::BackendKind::kColumnar);
  EXPECT_EQ(row->kind(), db::BackendKind::kRowStore);
  EXPECT_STREQ(col->name(), "col");
  EXPECT_STREQ(row->name(), "row");

  db::PlanPtr plan = workload::GetTpchQuery(6).Build(database);
  ASSERT_NE(plan, nullptr);
  BackendResult a = col->Execute(plan, ExecOptions());
  BackendResult b = row->Execute(plan, ExecOptions());
  EXPECT_EQ(db::DiffTables(*b.table, *a.table, 1e-9,
                           /*ignore_row_order=*/true),
            "");
  // The columnar adapter reports the database's own storage counters; the
  // row store accounts through a pool of its own.
  EXPECT_GT(a.storage.page_misses + a.storage.page_hits, 0);
  EXPECT_GT(b.storage.page_misses + b.storage.page_hits, 0);
}

/// The layouts' defining I/O difference, observable through StorageStats:
/// projecting ONE column of a wide table costs the row store full-tuple
/// bytes but costs the columnar engine only that column's pages.
TEST(BackendFactoryTest, NarrowProjectionReadsFewerBytesColumnar) {
  db::Database database;
  workload::TpchGenerator gen(0.002);
  gen.LoadAll(&database);
  std::unique_ptr<Backend> col =
      CreateBackend(db::BackendKind::kColumnar, &database);
  std::unique_ptr<Backend> row =
      CreateBackend(db::BackendKind::kRowStore, &database);
  const db::Schema& schema = database.GetTable("lineitem").schema();
  db::PlanPtr plan =
      db::Aggregate(db::Project(db::Scan("lineitem", schema, {"l_quantity"}),
                                {db::Col(schema, "l_quantity")},
                                {"l_quantity"}),
                    {}, {{db::AggOp::kSum,
                          db::Col(db::Schema({{"l_quantity",
                                               DataType::kDouble}}),
                                  "l_quantity"),
                          "s"}});
  col->FlushCaches();
  row->FlushCaches();
  BackendResult a = col->Execute(plan, ExecOptions());
  BackendResult b = row->Execute(plan, ExecOptions());
  EXPECT_EQ(db::DiffTables(*b.table, *a.table, 1e-9,
                           /*ignore_row_order=*/false),
            "");
  EXPECT_GT(b.storage.bytes_read, 4 * a.storage.bytes_read)
      << "row store must pay full-tuple I/O for a one-column query";
}

TEST(ColumnarBackendTest, RestoresDatabaseKnobsAfterExecute) {
  db::Database database;
  workload::TpchGenerator gen(0.001);
  gen.LoadAll(&database);
  database.set_threads(3);
  database.set_check(false);
  ColumnarBackend backend(&database);
  db::PlanPtr plan = workload::GetTpchQuery(6).Build(database);
  ExecOptions exec;
  exec.threads = 8;
  exec.check = true;
  (void)backend.Execute(plan, exec);
  EXPECT_EQ(database.threads(), 3);
  EXPECT_FALSE(database.check());
}

}  // namespace
}  // namespace engine
}  // namespace perfeval
