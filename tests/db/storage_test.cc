#include "db/storage.h"

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/catalog.h"
#include "db/expr.h"
#include "db/scan_io.h"

namespace perfeval {
namespace db {
namespace {

std::shared_ptr<Table> MakeIntTable(size_t rows) {
  auto table = std::make_shared<Table>(
      Schema({{"v", DataType::kInt64}, {"w", DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    table->AppendRow({Value::Int64(static_cast<int64_t>(i)),
                      Value::Int64(static_cast<int64_t>(i * 2))});
  }
  return table;
}

/// The layout of `table` under `table_id`, paged the way `storage` pages.
TableLayout LayoutOf(const StorageManager& storage, uint32_t table_id,
                     const Table& table) {
  TableLayout layout = BuildTableLayout(table, storage.rows_per_page());
  layout.table_id = table_id;
  return layout;
}

/// Touches exactly one page: `chunk` of column `column_id`.
StorageStats TouchPage(StorageManager* storage, const TableLayout& layout,
                       uint32_t column_id, uint32_t chunk) {
  size_t begin = chunk * storage->rows_per_page();
  return storage->TouchMorsel(layout, {column_id}, begin, begin + 1);
}

TEST(StorageTest, RegistrationComputesChunks) {
  StorageManager storage(DiskModel(), 16, 100);
  auto table = MakeIntTable(250);
  TableLayout layout = LayoutOf(storage, 1, *table);
  EXPECT_EQ(layout.num_chunks, 3u);  // 100+100+50.
  ASSERT_EQ(layout.columns.size(), 2u);
  EXPECT_EQ(layout.columns[0].chunk_bytes.size(), 3u);
  EXPECT_EQ(layout.columns[1].chunk_bytes.size(), 3u);
}

TEST(StorageTest, ZoneMapsTrackMinMax) {
  StorageManager storage(DiskModel(), 16, 100);
  auto table = MakeIntTable(250);
  TableLayout layout = LayoutOf(storage, 1, *table);
  const ZoneMap& zm0 = layout.zone_map(0, 0);
  EXPECT_TRUE(zm0.valid);
  EXPECT_DOUBLE_EQ(zm0.min, 0.0);
  EXPECT_DOUBLE_EQ(zm0.max, 99.0);
  const ZoneMap& zm2 = layout.zone_map(0, 2);
  EXPECT_DOUBLE_EQ(zm2.min, 200.0);
  EXPECT_DOUBLE_EQ(zm2.max, 249.0);
}

TEST(StorageTest, FirstTouchMissesSecondHits) {
  StorageManager storage(DiskModel(), 16, 100);
  auto table = MakeIntTable(250);
  TableLayout layout = LayoutOf(storage, 1, *table);
  storage.TouchColumn(layout, 0);
  EXPECT_EQ(storage.stats().page_misses, 3);
  EXPECT_EQ(storage.stats().page_hits, 0);
  storage.TouchColumn(layout, 0);
  EXPECT_EQ(storage.stats().page_misses, 3);
  EXPECT_EQ(storage.stats().page_hits, 3);
}

TEST(StorageTest, FlushMakesPagesColdAgain) {
  StorageManager storage(DiskModel(), 16, 100);
  auto table = MakeIntTable(250);
  TableLayout layout = LayoutOf(storage, 1, *table);
  storage.TouchColumn(layout, 0);
  storage.FlushCaches();
  storage.ResetStats();
  storage.TouchColumn(layout, 0);
  EXPECT_EQ(storage.stats().page_misses, 3);
}

TEST(StorageTest, MissesChargeStallTime) {
  DiskModel slow;
  slow.seek_ns = 1'000'000;
  slow.ns_per_byte = 100.0;
  StorageManager storage(slow, 16, 100);
  auto table = MakeIntTable(100);
  TableLayout layout = LayoutOf(storage, 1, *table);
  EXPECT_EQ(storage.stats().stall_ns, 0);
  // One page: seek + 800 bytes * 100 ns.
  EXPECT_EQ(storage.TouchColumn(layout, 0).stall_ns, 1'000'000 + 80'000);
  // A hit: no extra charge.
  EXPECT_EQ(storage.TouchColumn(layout, 0).stall_ns, 0);
  EXPECT_EQ(storage.stats().stall_ns, 1'000'000 + 80'000);
}

TEST(StorageTest, SequentialReadsSkipSeek) {
  DiskModel model;
  model.seek_ns = 1'000'000;
  model.ns_per_byte = 0.0;
  StorageManager storage(model, 16, 10);
  auto table = MakeIntTable(40);  // 4 chunks per column.
  TableLayout layout = LayoutOf(storage, 1, *table);
  // First page seeks, the following three are sequential.
  EXPECT_EQ(storage.TouchColumn(layout, 0).stall_ns, 1'000'000);
}

TEST(StorageTest, LruEvictionUnderPressure) {
  // Pool holds 2 pages; touching 3 pages cycles them out.
  StorageManager storage(DiskModel(), 2, 10);
  auto table = MakeIntTable(30);  // 3 chunks.
  TableLayout layout = LayoutOf(storage, 1, *table);
  storage.TouchColumn(layout, 0);  // pages 0,1,2: page 0 evicted.
  storage.ResetStats();
  TouchPage(&storage, layout, 0, 0);
  EXPECT_EQ(storage.stats().page_misses, 1);  // evicted earlier.
  storage.ResetStats();
  TouchPage(&storage, layout, 0, 0);
  EXPECT_EQ(storage.stats().page_hits, 1);
}

TEST(StorageTest, LruKeepsRecentlyUsedPage) {
  StorageManager storage(DiskModel(), 2, 10);
  auto table = MakeIntTable(30);
  TableLayout layout = LayoutOf(storage, 1, *table);
  TouchPage(&storage, layout, 0, 0);
  TouchPage(&storage, layout, 0, 1);
  TouchPage(&storage, layout, 0, 0);  // refresh page 0.
  TouchPage(&storage, layout, 0, 2);  // evicts page 1, not page 0.
  storage.ResetStats();
  TouchPage(&storage, layout, 0, 0);
  EXPECT_EQ(storage.stats().page_hits, 1);
  TouchPage(&storage, layout, 0, 1);
  EXPECT_EQ(storage.stats().page_misses, 1);
}

TEST(StorageTest, TouchColumnRangeOnlyTouchesOverlappingPages) {
  StorageManager storage(DiskModel(), 16, 100);
  auto table = MakeIntTable(1000);  // 10 chunks.
  TableLayout layout = LayoutOf(storage, 1, *table);
  storage.TouchMorsel(layout, {0}, 250, 451);  // chunks 2, 3, 4.
  EXPECT_EQ(storage.stats().page_misses, 3);
}

TEST(StorageTest, StringColumnsHaveInvalidZoneMaps) {
  StorageManager storage(DiskModel(), 16, 100);
  Table table(Schema({{"s", DataType::kString}}));
  table.AppendRow({Value::String("a")});
  TableLayout layout = LayoutOf(storage, 2, table);
  EXPECT_FALSE(layout.zone_map(0, 0).valid);
}

TEST(StorageTest, StatsToStringMentionsPages) {
  StorageManager storage(DiskModel(), 4, 10);
  auto table = MakeIntTable(10);
  TableLayout layout = LayoutOf(storage, 1, *table);
  storage.TouchColumn(layout, 0);
  EXPECT_NE(storage.stats().ToString().find("misses"), std::string::npos);
}

TEST(StorageTest, PartialLastChunkChargesActualBytes) {
  // 250 int64 rows at 100 rows/page: chunks of 800, 800 and 400 bytes.
  // The old per-chunk charge truncated total/num_chunks and under-charged
  // bytes_read (and stall) on every column whose row count is not a
  // multiple of rows_per_page.
  DiskModel model;
  model.seek_ns = 0;
  model.ns_per_byte = 1.0;
  StorageManager storage(model, 16, 100);
  auto table = MakeIntTable(250);
  TableLayout layout = LayoutOf(storage, 1, *table);
  storage.TouchColumn(layout, 0);
  EXPECT_EQ(storage.stats().bytes_read, 2000);
  EXPECT_EQ(storage.stats().stall_ns, 2000);
  // A range touching only the short last chunk charges exactly its bytes.
  storage.FlushCaches();
  storage.ResetStats();
  storage.TouchMorsel(layout, {0}, 200, 250);
  EXPECT_EQ(storage.stats().bytes_read, 400);
}

TEST(StorageTest, HitAdvancesStreamHead) {
  DiskModel model;
  model.seek_ns = 1'000'000;
  model.ns_per_byte = 0.0;
  StorageManager storage(model, 16, 10);
  auto table = MakeIntTable(40);  // 4 chunks per column.
  TableLayout layout = LayoutOf(storage, 1, *table);
  // Warm chunk 1 (one seek), then scan 0..3. Chunk 0 misses with a seek,
  // chunk 1 hits — and must advance the stream head — so chunks 2 and 3
  // continue the sequential stream seek-free. The old code left the head
  // at 0 across the hit and charged a third, spurious seek on chunk 2.
  int64_t stall = TouchPage(&storage, layout, 0, 1).stall_ns;
  stall += storage.TouchColumn(layout, 0).stall_ns;
  EXPECT_EQ(stall, 2'000'000);
}

TEST(StorageTest, ZoneMapsAreNanSafe) {
  StorageManager storage(DiskModel(), 16, 4);
  Table table(Schema({{"d", DataType::kDouble}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Page 0: NaN first (poisons std::min/max-style folds), then 3.0, 5.0.
  table.AppendRow({Value::Double(nan)});
  table.AppendRow({Value::Double(3.0)});
  table.AppendRow({Value::Double(5.0)});
  table.AppendRow({Value::Double(4.0)});
  // Page 1: all NaN.
  table.AppendRow({Value::Double(nan)});
  table.AppendRow({Value::Double(nan)});
  TableLayout layout = LayoutOf(storage, 3, table);

  const ZoneMap& zm0 = layout.zone_map(0, 0);
  EXPECT_TRUE(zm0.valid);
  EXPECT_TRUE(zm0.has_nan);
  EXPECT_DOUBLE_EQ(zm0.min, 3.0);
  EXPECT_DOUBLE_EQ(zm0.max, 5.0);
  // A NaN zone is never prunable, even when [min, max] cannot match.
  SimplePredicate gt{0, CmpOp::kGt, 10.0};
  EXPECT_FALSE(zm0.Prunable(gt.MightMatch(zm0.min, zm0.max)));

  const ZoneMap& zm1 = layout.zone_map(0, 1);
  EXPECT_FALSE(zm1.valid);
  EXPECT_TRUE(zm1.has_nan);
  EXPECT_FALSE(zm1.Prunable(false));
}

TEST(StorageTest, NanFreeZonesStayPrunable) {
  StorageManager storage(DiskModel(), 16, 100);
  auto table = MakeIntTable(250);
  TableLayout layout = LayoutOf(storage, 1, *table);
  const ZoneMap& zm = layout.zone_map(0, 0);  // [0, 99].
  SimplePredicate gt{0, CmpOp::kGt, 1000.0};
  EXPECT_TRUE(zm.Prunable(gt.MightMatch(zm.min, zm.max)));
}

TEST(StorageTest, TouchMorselReturnsPerCallDelta) {
  DiskModel model;
  model.seek_ns = 1000;
  model.ns_per_byte = 1.0;
  StorageManager storage(model, 16, 100);
  auto table = MakeIntTable(250);
  TableLayout layout = LayoutOf(storage, 1, *table);

  std::vector<uint32_t> cols = {0, 1};
  StorageStats first = storage.TouchMorsel(layout, cols, 0, 100);
  EXPECT_EQ(first.page_misses, 2);  // chunk 0 of both columns.
  EXPECT_EQ(first.page_hits, 0);
  EXPECT_EQ(first.bytes_read, 1600);
  StorageStats again = storage.TouchMorsel(layout, cols, 0, 100);
  EXPECT_EQ(again.page_misses, 0);
  EXPECT_EQ(again.page_hits, 2);
  EXPECT_EQ(again.bytes_read, 0);

  // Deltas reduce to the global counters.
  StorageStats total = first;
  total += again;
  EXPECT_EQ(total.page_misses, storage.stats().page_misses);
  EXPECT_EQ(total.page_hits, storage.stats().page_hits);
  EXPECT_EQ(total.bytes_read, storage.stats().bytes_read);
  EXPECT_EQ(total.stall_ns, storage.stats().stall_ns);
}

TEST(StorageTest, ConcurrentTouchesKeepCountersConsistent) {
  // Two threads touching disjoint columns: the pool serializes internally,
  // so totals must equal the single-threaded sum. Run under
  // PERFEVAL_SANITIZE=thread this also proves the locking is complete.
  StorageManager storage(DiskModel(), 64, 100);
  auto table = MakeIntTable(1000);  // 10 chunks per column.
  TableLayout layout = LayoutOf(storage, 1, *table);
  std::thread t0([&] {
    for (int pass = 0; pass < 4; ++pass) storage.TouchColumn(layout, 0);
  });
  std::thread t1([&] {
    for (int pass = 0; pass < 4; ++pass) storage.TouchColumn(layout, 1);
  });
  t0.join();
  t1.join();
  StorageStats stats = storage.StatsSnapshot();
  EXPECT_EQ(stats.page_misses, 20);
  EXPECT_EQ(stats.page_hits, 60);
}

TEST(SimplePredicateTest, ZoneMapPruning) {
  SimplePredicate le{0, CmpOp::kLe, 50.0};
  EXPECT_TRUE(le.MightMatch(0.0, 100.0));
  EXPECT_FALSE(le.MightMatch(51.0, 100.0));
  SimplePredicate gt{0, CmpOp::kGt, 50.0};
  EXPECT_FALSE(gt.MightMatch(0.0, 50.0));
  EXPECT_TRUE(gt.MightMatch(0.0, 50.5));
  SimplePredicate eq{0, CmpOp::kEq, 25.0};
  EXPECT_TRUE(eq.MightMatch(0.0, 50.0));
  EXPECT_FALSE(eq.MightMatch(26.0, 50.0));
  SimplePredicate ne{0, CmpOp::kNe, 25.0};
  EXPECT_FALSE(ne.MightMatch(25.0, 25.0));
  EXPECT_TRUE(ne.MightMatch(25.0, 26.0));
}

TEST(StorageDeathTest, UnregisteredTableAborts) {
  // The pool keeps no registry: a layout no table was built into has no
  // pages, and touching one aborts instead of charging garbage.
  StorageManager storage(DiskModel(), 4, 10);
  TableLayout unregistered;
  unregistered.table_id = 9;
  EXPECT_DEATH(TouchPage(&storage, unregistered, 0, 0),
               "page outside the table layout");
}

TEST(StorageDeathTest, UnlaidVersionAbortsAtTheScanIoPath) {
  // A bare catalog version (no layout) is for storage-free execution only;
  // handing it to the scan I/O path with a pool aborts instead of indexing
  // past its empty column layouts.
  Catalog catalog;
  catalog.BindUnlaid("bare", MakeIntTable(25));
  const TableVersion& version = catalog.Get("bare");
  ScanTableInfo info{&version.table->schema(), &version.layout};
  StorageManager storage(DiskModel(), 4, 10);
  EXPECT_DEATH(TouchScanColumns(&storage, info, {"w"}),
               "scan over a table without a storage layout");
  SimplePredicate le{0, CmpOp::kLe, 5.0};
  EXPECT_DEATH(FilterScanChunkWalk(&storage, info, {0}, {le}, nullptr),
               "scan over a table without a storage layout");
}

}  // namespace
}  // namespace db
}  // namespace perfeval
