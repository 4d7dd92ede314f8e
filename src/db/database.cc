#include "db/database.h"

#include "common/check.h"

namespace perfeval {
namespace db {

namespace {

/// A table version with its layout and statistics, built outside any lock;
/// the caller assigns the id and version when it publishes the entry.
std::shared_ptr<TableVersion> BuildVersion(std::shared_ptr<const Table> table,
                                           size_t rows_per_page) {
  PERFEVAL_CHECK(table != nullptr);
  auto out = std::make_shared<TableVersion>();
  out->layout = BuildTableLayout(*table, rows_per_page);
  out->stats = ComputeTableStats(*table, &out->layout);
  out->table = std::move(table);
  return out;
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(options),
      storage_(std::make_unique<StorageManager>(options.disk,
                                                options.buffer_pool_pages,
                                                options.rows_per_page)),
      catalog_(std::make_shared<const Catalog>()) {}

void Database::RegisterTable(const std::string& name,
                             std::shared_ptr<Table> table) {
  std::shared_ptr<TableVersion> version =
      BuildVersion(std::move(table), options_.rows_per_page);
  std::lock_guard<std::mutex> lock(catalog_mu_);
  PERFEVAL_CHECK(catalog_->Find(name) == nullptr)
      << "table " << name << " already registered";
  version->layout.table_id = static_cast<uint32_t>(catalog_->names().size());
  PERFEVAL_CHECK_LT(version->layout.table_id, kMaxTableIds);
  auto next = std::make_shared<Catalog>(*catalog_);
  next->tables_[name] = std::move(version);
  next->order_.push_back(name);
  catalog_ = std::move(next);
}

std::shared_ptr<const Catalog> Database::ReplaceTables(
    std::vector<TableInstall> installs) {
  // Build every new version before taking the catalog lock: layouts and
  // statistics are O(table), the swap is O(tables).
  std::vector<std::shared_ptr<TableVersion>> versions;
  versions.reserve(installs.size());
  for (auto& [name, table] : installs) {
    versions.push_back(BuildVersion(std::move(table), options_.rows_per_page));
  }
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto next = std::make_shared<Catalog>(*catalog_);
  for (size_t i = 0; i < installs.size(); ++i) {
    auto it = next->tables_.find(installs[i].first);
    PERFEVAL_CHECK(it != next->tables_.end())
        << "no table named " << installs[i].first;
    const TableVersion& old = *it->second;
    PERFEVAL_CHECK_EQ(old.table->schema().num_columns(),
                      versions[i]->table->schema().num_columns());
    versions[i]->layout.table_id = old.layout.table_id;
    versions[i]->layout.version = old.layout.version + 1;
    it->second = versions[i];
  }
  std::shared_ptr<const Catalog> superseded = std::move(catalog_);
  catalog_ = std::move(next);
  // Evict under the catalog lock, so two racing installs of one table
  // evict in publication order and the live version's pages survive.
  // The lock order catalog_mu_ -> storage is acyclic: storage never
  // takes catalog_mu_.
  for (const auto& version : versions) {
    storage_->EvictTable(version->layout.table_id, version->layout.version);
  }
  return superseded;
}

void Database::SetRefreshHook(std::function<void()> hook) {
  refresh_hook_ = std::move(hook);
}

std::shared_ptr<const Catalog> Database::catalog() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return catalog_;
}

bool Database::HasTable(const std::string& name) const {
  return catalog()->Find(name) != nullptr;
}

const Table& Database::GetTable(const std::string& name) const {
  return *catalog()->Get(name).table;
}

std::shared_ptr<const Table> Database::GetTableShared(
    const std::string& name) const {
  return catalog()->Get(name).table;
}

uint32_t Database::TableId(const std::string& name) const {
  return catalog()->Get(name).layout.table_id;
}

std::shared_ptr<const TableStats> Database::GetTableStats(
    const std::string& name) const {
  std::shared_ptr<const Catalog> pinned = catalog();
  auto it = pinned->tables_.find(name);
  PERFEVAL_CHECK(it != pinned->tables_.end()) << "no table named " << name;
  // Aliasing: the stats share ownership of their whole table version.
  return std::shared_ptr<const TableStats>(it->second, &it->second->stats);
}

std::vector<std::string> Database::TableNames() const {
  return catalog()->names();
}

ExecContext Database::ExecSettings() const {
  ExecContext ctx;
  static_cast<ExecKnobs&>(ctx) = options_;
  return ctx;
}

QueryResult Database::Run(const PlanPtr& plan, ExecMode mode, SinkKind sink,
                          bool use_zone_maps) {
  // Fold freshly committed write-path deltas into the catalog, then pin
  // the resulting version: the whole query reads that one snapshot, and
  // an install that lands meanwhile neither waits for it nor disturbs it.
  if (refresh_hook_) {
    refresh_hook_();
  }
  std::shared_ptr<const Catalog> pinned = catalog();
  QueryResult result;
  ExecContext ctx = ExecSettings();
  ctx.mode = mode;
  ctx.catalog = pinned.get();
  ctx.storage = storage_.get();
  ctx.profiler = &result.profile;
  ctx.use_zone_maps = use_zone_maps;
  ctx.parallel_sim = &result.parallel;

  // Server phase: execute the plan. The query is charged the I/O its own
  // page touches returned (ctx.io), never a concurrent neighbour's.
  Relation relation;
  result.server = core::MeasureOnce([&] { relation = plan->Execute(ctx); });
  result.storage = ctx.io;
  result.server.simulated_stall_ns = ctx.io.stall_ns;

  // Plans can return a selection over a base table.
  result.table = relation.Materialize();

  // Client phase: render the result into the sink.
  core::Measurement render = core::MeasureOnce(
      [&] { result.sink = SendToSink(*result.table, sink,
                                     options_.sink_model); });
  render.simulated_stall_ns = result.sink.stall_ns;
  result.client = result.server + render;
  return result;
}

}  // namespace db
}  // namespace perfeval
