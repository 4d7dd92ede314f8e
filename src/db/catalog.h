#ifndef PERFEVAL_DB_CATALOG_H_
#define PERFEVAL_DB_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "db/storage.h"
#include "db/table.h"
#include "db/table_stats.h"

namespace perfeval {
namespace db {

/// One immutable version of a catalog table: its rows, the optimizer
/// statistics and the storage layout (page sizes, zone maps, page-key
/// identity), all derived from the same rows when the version is built.
struct TableVersion {
  std::shared_ptr<const Table> table;
  TableStats stats;
  TableLayout layout;  ///< carries the table id and the install count.
};

/// An immutable snapshot of the whole catalog: name -> table version, plus
/// the registration order. Database swaps in a new Catalog for every
/// registration or install and never mutates a published one, so a query
/// that pinned a Catalog (Database::Run does, in ExecContext) reads every
/// table of one consistent version for as long as it runs. A table
/// version is freed when the last Catalog or holder referencing it drops.
class Catalog {
 public:
  /// The entry named `name`, or nullptr.
  const TableVersion* Find(const std::string& name) const {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second.get();
  }

  /// Like Find but aborts when absent.
  const TableVersion& Get(const std::string& name) const {
    const TableVersion* version = Find(name);
    PERFEVAL_CHECK(version != nullptr) << "no table named " << name;
    return *version;
  }

  /// Table names in registration order (= table id order).
  const std::vector<std::string>& names() const { return order_; }

  /// Binds `table` under `name` as a bare version: no statistics and an
  /// empty layout (no pages, no zone maps). Only for a query-local
  /// catalog that is never published and is executed with
  /// ExecContext::storage == nullptr, such as the shard coordinator's
  /// gathered intermediates. Aborts on a duplicate name.
  void BindUnlaid(const std::string& name,
                  std::shared_ptr<const Table> table) {
    PERFEVAL_CHECK(table != nullptr);
    auto version = std::make_shared<TableVersion>();
    version->table = std::move(table);
    PERFEVAL_CHECK(tables_.emplace(name, std::move(version)).second)
        << "table " << name << " already bound";
    order_.push_back(name);
  }

 private:
  friend class Database;

  std::unordered_map<std::string, std::shared_ptr<const TableVersion>>
      tables_;
  std::vector<std::string> order_;
};

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_CATALOG_H_
