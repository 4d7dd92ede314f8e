#ifndef PERFEVAL_DB_SCAN_IO_H_
#define PERFEVAL_DB_SCAN_IO_H_

#include <functional>
#include <string>
#include <vector>

#include "db/expr.h"
#include "db/plan.h"
#include "db/storage.h"
#include "db/table.h"

namespace perfeval {
namespace db {

/// The scan layer's I/O accounting, factored out of the Scan/FilterScan
/// operators so it can be *replayed* without executing any compute.
///
/// Why replay exists: a sharded deployment partitions a table's rows across
/// N databases, which changes the physical page geometry (ceil(rows/page)
/// per shard, per-shard buffer pools, per-shard stream heads) — so summing
/// per-shard StorageStats can never equal the single-node numbers. The
/// shard coordinator instead keeps one StorageManager and the *global*
/// (unpartitioned) layout of each table, and replays the logical scan I/O
/// of each query against it, in the exact order the single-node engine
/// would have issued it. Because both sides call the same functions
/// below, the merged logical StorageStats are bit-identical to
/// single-node by construction (DESIGN.md S16).

/// Everything the scan I/O path needs to know about one base table: its
/// schema and the layout of the version being scanned (both outlive the
/// call).
struct ScanTableInfo {
  const Schema* schema = nullptr;
  const TableLayout* layout = nullptr;
};

/// Catalog abstraction for ReplayScanIo: the engine resolves tables through
/// db::Database; the shard coordinator resolves them through its snapshot
/// of the global layout.
class ScanIoCatalog {
 public:
  virtual ~ScanIoCatalog() = default;
  virtual ScanTableInfo Lookup(const std::string& table_name) const = 0;
};

/// The simple (zone-map-prunable) conjuncts of a predicate, in conjunct
/// order — the list FilterScan consults for page skipping. Shared so the
/// replay prunes exactly the chunks the engine would prune.
std::vector<SimplePredicate> SimpleConjuncts(const ExprPtr& predicate);

/// Scan: touches every page of the named columns (all columns when the
/// list is empty), in column order, chunks ascending. Returns the stats
/// delta charged to exactly these touches (zero without a `storage`).
StorageStats TouchScanColumns(StorageManager* storage,
                              const ScanTableInfo& table,
                              const std::vector<std::string>& columns);

/// FilterScan's page walk: for every chunk of the table, consult the zone
/// maps of the simple conjuncts' columns; a prunable chunk is skipped
/// entirely (no I/O, no callback), a surviving chunk's pages are touched
/// via TouchMorsel (column order given, from the coordinating thread) and
/// reported to `on_chunk(row_begin, row_end)` — which the engine uses to
/// assemble compute morsels and the replay ignores. Returns the stats
/// delta charged to the walk's touches.
StorageStats FilterScanChunkWalk(
    StorageManager* storage, const ScanTableInfo& table,
    const std::vector<uint32_t>& column_ids,
    const std::vector<SimplePredicate>& simple,
    const std::function<void(size_t, size_t)>& on_chunk);

/// Replays the scan-layer I/O of `plan` against `storage`: walks the tree
/// in execution order (depth-first, left child before right) and performs
/// the Scan/FilterScan page touches each leaf would perform, with the same
/// zone-map pruning decisions. Non-leaf operators do no I/O in this engine
/// (intermediates are in-memory), so this reproduces the complete
/// single-node I/O sequence of the plan. Returns the stats delta charged
/// to the replay's touches.
StorageStats ReplayScanIo(const PlanNode& plan, const ScanIoCatalog& catalog,
                          StorageManager* storage, bool use_zone_maps = true);

inline StorageStats ReplayScanIo(const PlanPtr& plan,
                                 const ScanIoCatalog& catalog,
                                 StorageManager* storage,
                                 bool use_zone_maps = true) {
  return ReplayScanIo(*plan, catalog, storage, use_zone_maps);
}

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_SCAN_IO_H_
