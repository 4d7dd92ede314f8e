#include "db/scan_io.h"

#include <algorithm>

#include "common/check.h"

namespace perfeval {
namespace db {

namespace {

/// A layout that pages `table` must describe every schema column. A bare
/// version (Catalog::BindUnlaid) has no column layouts and must never
/// reach a StorageManager.
void CheckLaidOut(const ScanTableInfo& table) {
  PERFEVAL_CHECK(table.schema != nullptr && table.layout != nullptr);
  PERFEVAL_CHECK_EQ(table.layout->columns.size(), table.schema->num_columns())
      << "scan over a table without a storage layout";
}

}  // namespace

std::vector<SimplePredicate> SimpleConjuncts(const ExprPtr& predicate) {
  std::vector<SimplePredicate> simple;
  if (predicate == nullptr) {
    return simple;
  }
  std::vector<ExprPtr> conjuncts;
  predicate->CollectConjuncts(&conjuncts, predicate);
  for (const ExprPtr& conjunct : conjuncts) {
    SimplePredicate sp;
    if (conjunct->AsSimplePredicate(&sp)) {
      simple.push_back(sp);
    }
  }
  return simple;
}

StorageStats TouchScanColumns(StorageManager* storage,
                              const ScanTableInfo& table,
                              const std::vector<std::string>& columns) {
  StorageStats charged;
  if (storage == nullptr) {
    return charged;
  }
  CheckLaidOut(table);
  if (columns.empty()) {
    for (size_t c = 0; c < table.schema->num_columns(); ++c) {
      charged += storage->TouchColumn(*table.layout, static_cast<uint32_t>(c));
    }
    return charged;
  }
  for (const std::string& name : columns) {
    charged += storage->TouchColumn(
        *table.layout,
        static_cast<uint32_t>(table.schema->MustIndexOf(name)));
  }
  return charged;
}

StorageStats FilterScanChunkWalk(
    StorageManager* storage, const ScanTableInfo& table,
    const std::vector<uint32_t>& column_ids,
    const std::vector<SimplePredicate>& simple,
    const std::function<void(size_t, size_t)>& on_chunk) {
  PERFEVAL_CHECK(storage != nullptr);
  StorageStats charged;
  CheckLaidOut(table);
  const TableLayout& layout = *table.layout;
  size_t page_rows = std::max<size_t>(storage->rows_per_page(), 1);
  size_t num_rows = layout.num_rows;
  for (uint32_t chunk = 0; chunk < layout.num_chunks; ++chunk) {
    bool pruned = false;
    for (const SimplePredicate& sp : simple) {
      const ZoneMap& zm =
          layout.zone_map(static_cast<uint32_t>(sp.column), chunk);
      if (zm.Prunable(sp.MightMatch(zm.min, zm.max))) {
        pruned = true;
        break;
      }
    }
    if (pruned) {
      continue;  // page never read, rows never scanned.
    }
    size_t begin = static_cast<size_t>(chunk) * page_rows;
    size_t end = std::min(num_rows, begin + page_rows);
    // I/O accounting happens here, on the coordinating thread, one page
    // at a time in chunk order — never from the workers — so
    // hits/misses/bytes/stall are identical at any thread count.
    charged += storage->TouchMorsel(layout, column_ids, begin, end);
    if (on_chunk) {
      on_chunk(begin, end);
    }
  }
  return charged;
}

StorageStats ReplayScanIo(const PlanNode& plan, const ScanIoCatalog& catalog,
                          StorageManager* storage, bool use_zone_maps) {
  PERFEVAL_CHECK(storage != nullptr);
  // Children first, left to right — the order Execute() visits them (every
  // operator evaluates its inputs before itself; joins run left then
  // right), so the page-touch sequence matches a real execution exactly.
  StorageStats charged;
  for (const PlanNode* child : plan.Children()) {
    charged += ReplayScanIo(*child, catalog, storage, use_zone_maps);
  }
  PlanSpec spec = plan.Spec();
  if (spec.kind == PlanKind::kScan) {
    ScanTableInfo table = catalog.Lookup(spec.table_name);
    charged += TouchScanColumns(storage, table, spec.columns);
    return charged;
  }
  if (spec.kind != PlanKind::kFilterScan) {
    return charged;
  }
  ScanTableInfo table = catalog.Lookup(spec.table_name);
  std::vector<SimplePredicate> simple = SimpleConjuncts(spec.predicate);
  // Same gate as FilterScanNode: zone maps only when there is a simple
  // conjunct to prune with and rows to scan; otherwise the node touches
  // the named columns in full.
  if (!use_zone_maps || simple.empty() || table.layout->num_rows == 0) {
    charged += TouchScanColumns(storage, table, spec.columns);
    return charged;
  }
  PERFEVAL_CHECK(table.schema != nullptr);
  std::vector<uint32_t> column_ids;
  column_ids.reserve(spec.columns.size());
  for (const std::string& name : spec.columns) {
    column_ids.push_back(
        static_cast<uint32_t>(table.schema->MustIndexOf(name)));
  }
  charged += FilterScanChunkWalk(storage, table, column_ids, simple, nullptr);
  return charged;
}

}  // namespace db
}  // namespace perfeval
