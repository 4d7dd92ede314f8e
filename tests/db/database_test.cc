#include "db/database.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace perfeval {
namespace db {
namespace {

std::shared_ptr<Table> MakeTable(size_t rows) {
  auto table = std::make_shared<Table>(
      Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    table->AppendRow({Value::Int64(static_cast<int64_t>(i)),
                      Value::Double(static_cast<double>(i) * 1.5)});
  }
  return table;
}

TEST(DatabaseTest, CatalogBasics) {
  Database database;
  database.RegisterTable("t1", MakeTable(10));
  database.RegisterTable("t2", MakeTable(5));
  EXPECT_TRUE(database.HasTable("t1"));
  EXPECT_FALSE(database.HasTable("t3"));
  EXPECT_EQ(database.GetTable("t2").num_rows(), 5u);
  EXPECT_EQ(database.TableNames(),
            (std::vector<std::string>{"t1", "t2"}));
  EXPECT_NE(database.TableId("t1"), database.TableId("t2"));
}

TEST(DatabaseDeathTest, DuplicateRegistrationAborts) {
  Database database;
  database.RegisterTable("t", MakeTable(1));
  EXPECT_DEATH(database.RegisterTable("t", MakeTable(1)),
               "already registered");
}

TEST(DatabaseDeathTest, MissingTableAborts) {
  Database database;
  EXPECT_DEATH(database.GetTable("nope"), "no table named");
}

TEST(DatabaseTest, ColdRunPaysStallHotRunDoesNot) {
  DatabaseOptions options;
  options.rows_per_page = 64;
  options.buffer_pool_pages = 1024;
  Database database(options);
  database.RegisterTable("t", MakeTable(10000));
  PlanPtr plan = Scan("t");

  QueryResult cold = database.Run(plan);
  EXPECT_GT(cold.server.simulated_stall_ns, 0);

  QueryResult hot = database.Run(plan);
  EXPECT_EQ(hot.server.simulated_stall_ns, 0);

  // Flush -> cold again (the slide-32 definition).
  database.FlushCaches();
  QueryResult cold_again = database.Run(plan);
  EXPECT_EQ(cold_again.server.simulated_stall_ns,
            cold.server.simulated_stall_ns);
}

TEST(DatabaseTest, ColdRealExceedsUserHotRealDoesNot) {
  // The slide-33 table: cold real >> user; hot real ~ user.
  DatabaseOptions options;
  options.rows_per_page = 64;
  options.buffer_pool_pages = 4096;  // table fits: hot runs stay hot.
  Database database(options);
  database.RegisterTable("t", MakeTable(50000));
  PlanPtr plan = Scan("t");
  QueryResult cold = database.Run(plan);
  QueryResult hot = database.Run(plan);
  EXPECT_GT(cold.ServerRealMs(), 3 * hot.ServerRealMs());
}

TEST(DatabaseTest, ClientTimeIncludesSinkCost) {
  Database database;
  database.RegisterTable("t", MakeTable(5000));
  PlanPtr plan = Scan("t");
  (void)database.Run(plan);  // warm.
  QueryResult discard = database.Run(plan, ExecMode::kOptimized,
                                     SinkKind::kDiscard);
  QueryResult terminal = database.Run(plan, ExecMode::kOptimized,
                                      SinkKind::kTerminal);
  EXPECT_EQ(discard.sink.bytes, 0u);
  EXPECT_GT(terminal.sink.bytes, 0u);
  EXPECT_GT(terminal.ClientRealMs() - terminal.ServerRealMs(),
            discard.ClientRealMs() - discard.ServerRealMs());
}

TEST(DatabaseTest, ServerAndClientMeasurementsNest) {
  Database database;
  database.RegisterTable("t", MakeTable(100));
  QueryResult result = database.Run(Scan("t"), ExecMode::kOptimized,
                                    SinkKind::kFile);
  EXPECT_GE(result.client.real_ns, result.server.real_ns);
  EXPECT_GE(result.client.simulated_stall_ns,
            result.server.simulated_stall_ns);
}

TEST(DatabaseTest, SelectionResultsAreMaterialized) {
  Database database;
  database.RegisterTable("t", MakeTable(100));
  const Schema& schema = database.GetTable("t").schema();
  PlanPtr plan =
      FilterScan("t", {"k", "v"}, Lt(Col(schema, "k"), LitInt(10)));
  QueryResult result = database.Run(plan);
  EXPECT_EQ(result.table->num_rows(), 10u);
  // The materialized result carries actual values, not row ids.
  EXPECT_DOUBLE_EQ(result.table->ColumnByName("v").GetDouble(9), 13.5);
}

TEST(DatabaseTest, PerQueryStorageStats) {
  DatabaseOptions options;
  options.rows_per_page = 64;
  options.buffer_pool_pages = 1024;
  Database database(options);
  database.RegisterTable("t", MakeTable(10000));
  PlanPtr plan = Scan("t");
  QueryResult cold = database.Run(plan);
  EXPECT_GT(cold.storage.page_misses, 0);
  EXPECT_EQ(cold.storage.page_hits, 0);
  EXPECT_GT(cold.storage.bytes_read, 0);
  QueryResult hot = database.Run(plan);
  EXPECT_EQ(hot.storage.page_misses, 0);
  EXPECT_EQ(hot.storage.page_hits, cold.storage.page_misses);
  EXPECT_EQ(hot.storage.stall_ns, 0);
}

TEST(DatabaseTest, ProfileAccompaniesEveryRun) {
  Database database;
  database.RegisterTable("t", MakeTable(100));
  QueryResult result = database.Run(Scan("t"));
  EXPECT_FALSE(result.profile.traces().empty());
}

// ---- Catalog versions: pinned snapshots and version lifetime ----

TEST(CatalogVersionTest, PinnedVersionIsUndisturbedByInstall) {
  Database database;
  database.RegisterTable("t", MakeTable(10));
  std::shared_ptr<const Catalog> pinned = database.catalog();
  database.ReplaceTables({{"t", MakeTable(25)}});

  // The pinned snapshot still sees version 0 whole: rows, stats, layout.
  const TableVersion& old = pinned->Get("t");
  EXPECT_EQ(old.table->num_rows(), 10u);
  EXPECT_EQ(old.stats.rows, 10u);
  EXPECT_EQ(old.layout.num_rows, 10u);
  EXPECT_EQ(old.layout.version, 0u);
  // The live catalog moved on, keeping the table id.
  const TableVersion& now = database.catalog()->Get("t");
  EXPECT_EQ(now.table->num_rows(), 25u);
  EXPECT_EQ(now.stats.rows, 25u);
  EXPECT_EQ(now.layout.version, 1u);
  EXPECT_EQ(now.layout.table_id, old.layout.table_id);
  EXPECT_EQ(database.GetTableStats("t")->rows, 25u);
  EXPECT_EQ(database.Run(Scan("t")).table->num_rows(), 25u);
}

TEST(CatalogVersionTest, ReplacedVersionDiesWithItsLastHolder) {
  Database database;
  database.RegisterTable("t", MakeTable(10));
  std::weak_ptr<const Table> first = database.GetTableShared("t");
  std::shared_ptr<const Table> holder = database.GetTableShared("t");
  std::shared_ptr<const Catalog> pinned = database.catalog();
  database.ReplaceTables({{"t", MakeTable(11)}});
  EXPECT_FALSE(first.expired());
  holder.reset();
  EXPECT_FALSE(first.expired());  // the pinned catalog still reads it.
  pinned.reset();
  EXPECT_TRUE(first.expired());
}

TEST(CatalogVersionTest, AtMostTheLiveVersionSurvivesManyInstalls) {
  Database database;
  database.RegisterTable("t", MakeTable(4));
  std::vector<std::weak_ptr<const Table>> versions;
  versions.push_back(database.GetTableShared("t"));
  for (int i = 0; i < 100; ++i) {
    database.ReplaceTables(
        {{"t", MakeTable(5 + static_cast<size_t>(i % 3))}});
    versions.push_back(database.GetTableShared("t"));
  }
  size_t alive = 0;
  for (const auto& version : versions) {
    alive += version.expired() ? 0 : 1;
  }
  EXPECT_EQ(alive, 1u);
  EXPECT_FALSE(versions.back().expired());
  EXPECT_EQ(database.catalog()->Get("t").layout.version, 100u);
}

TEST(CatalogVersionTest, UnlaidBindingExecutesWithoutStorage) {
  // A bare version carries no statistics and no layout; scans over it run
  // with no StorageManager, so no page or zone map is ever consulted.
  std::shared_ptr<Table> table = MakeTable(5000);
  Catalog local;
  local.BindUnlaid("t", table);
  EXPECT_EQ(local.names(), (std::vector<std::string>{"t"}));
  EXPECT_TRUE(local.Get("t").layout.columns.empty());
  EXPECT_EQ(local.Get("t").stats.rows, 0u);

  Database database;
  ExecContext ctx = database.ExecSettings();
  ctx.catalog = &local;
  EXPECT_EQ(Scan("t")->Execute(ctx).Materialize(), table);
  std::shared_ptr<const Table> filtered =
      FilterScan("t", {"k", "v"}, Lt(Col(table->schema(), "k"), LitInt(10)))
          ->Execute(ctx)
          .Materialize();
  EXPECT_EQ(filtered->num_rows(), 10u);
}

TEST(CatalogDeathTest, DuplicateUnlaidBindingAborts) {
  Catalog local;
  local.BindUnlaid("t", MakeTable(1));
  EXPECT_DEATH(local.BindUnlaid("t", MakeTable(1)), "already bound");
}

TEST(CatalogVersionTest, InstallsOfSeveralTablesLandTogether) {
  Database database;
  database.RegisterTable("a", MakeTable(1));
  database.RegisterTable("b", MakeTable(1));
  std::shared_ptr<const Catalog> before = database.catalog();
  std::shared_ptr<const Catalog> superseded =
      database.ReplaceTables({{"a", MakeTable(2)}, {"b", MakeTable(3)}});
  EXPECT_EQ(superseded, before);
  std::shared_ptr<const Catalog> after = database.catalog();
  EXPECT_EQ(after->Get("a").table->num_rows(), 2u);
  EXPECT_EQ(after->Get("b").table->num_rows(), 3u);
  EXPECT_EQ(after->names(), before->names());
}

TEST(CatalogVersionTest, OldVersionPagesNeverWarmTheNewVersion) {
  StorageManager storage(DiskModel(), 64, 4);
  TableLayout v0 = BuildTableLayout(*MakeTable(8), 4);  // 2 pages/column.
  TableLayout v1 = v0;
  v1.version = 1;
  storage.TouchColumn(v0, 0);
  EXPECT_EQ(storage.stats().page_misses, 2);
  // Same table id, column and chunks, but another version: cold.
  storage.TouchColumn(v1, 0);
  EXPECT_EQ(storage.stats().page_misses, 4);
  EXPECT_EQ(storage.stats().page_hits, 0);
  // Installing v1 evicts every other version; v1's own pages stay warm.
  storage.EvictTable(v1.table_id, v1.version);
  storage.ResetStats();
  storage.TouchColumn(v1, 0);
  EXPECT_EQ(storage.stats().page_hits, 2);
  storage.TouchColumn(v0, 0);
  EXPECT_EQ(storage.stats().page_misses, 2);
}

TEST(CatalogVersionTest, ConcurrentQueriesAndInstallsAreClean) {
  // Readers scan while a writer installs new versions; every result is
  // one whole version (row count from the set installed), never a mix.
  Database database;
  database.set_threads(2);
  database.RegisterTable("t", MakeTable(64));
  PlanPtr plan =
      FilterScan("t", {"k"}, Ge(Col(MakeTable(0)->schema(), "k"), LitInt(0)));
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        size_t rows = database.Run(plan).table->num_rows();
        if (rows != 64 && rows != 128) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    database.ReplaceTables({{"t", MakeTable(i % 2 == 0 ? 128 : 64)}});
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

/// Lets `parties` threads continue only once all of them have arrived.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ == parties_) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [this] { return arrived_ == parties_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int arrived_ = 0;
};

/// Runs its child, then waits at `gate` until every query sharing the
/// gate has run its own child: each query's page touches all land while
/// every other query is still in flight.
class RendezvousNode : public PlanNode {
 public:
  RendezvousNode(PlanPtr child, Rendezvous* gate)
      : child_(std::move(child)), gate_(gate) {}

  Relation Execute(ExecContext& ctx) const override {
    Relation out = child_->Execute(ctx);
    gate_->ArriveAndWait();
    return out;
  }
  std::string Describe() const override { return "Rendezvous"; }
  PlanSpec Spec() const override { return child_->Spec(); }
  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

 private:
  PlanPtr child_;
  Rendezvous* gate_;
};

TEST(DatabaseTest, ConcurrentQueriesAreChargedExactlyTheirOwnIo) {
  // A pool smaller than the working set, so queries evict each other's
  // pages. However the queries interleave, each is charged exactly the
  // pages it touched: their charges sum to what the pool recorded, and
  // each query's operators sum to its own stall.
  DatabaseOptions options;
  options.rows_per_page = 64;
  options.buffer_pool_pages = 24;
  Database database(options);
  database.set_threads(2);
  database.RegisterTable("t", MakeTable(4000));
  database.RegisterTable("u", MakeTable(2500));
  const Schema schema = MakeTable(0)->schema();
  const std::vector<PlanPtr> plans = {
      Scan("t"),
      FilterScan("t", {"k", "v"}, Lt(Col(schema, "k"), LitInt(1500))),
      Scan("u", {"v"}),
      Aggregate(FilterScan("u", {"k", "v"},
                           Ge(Col(schema, "k"), LitInt(1000))),
                {}, {{AggOp::kSum, Col(schema, "v"), "s"}}),
  };

  StorageStats before = database.storage().StatsSnapshot();
  StorageStats charged;
  int64_t server_stall_ns = 0;
  std::mutex mu;
  for (int round = 0; round < 4; ++round) {
    Rendezvous gate(static_cast<int>(plans.size()));
    std::vector<std::thread> clients;
    for (const PlanPtr& plan : plans) {
      clients.emplace_back([&, plan] {
        QueryResult result =
            database.Run(std::make_shared<RendezvousNode>(plan, &gate));
        EXPECT_EQ(result.profile.TotalStallNs(), result.storage.stall_ns);
        EXPECT_EQ(result.server.simulated_stall_ns, result.storage.stall_ns);
        std::lock_guard<std::mutex> lock(mu);
        charged += result.storage;
        server_stall_ns += result.server.simulated_stall_ns;
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
  }
  StorageStats after = database.storage().StatsSnapshot();
  EXPECT_GT(charged.page_misses, 0);
  EXPECT_EQ(charged.page_hits, after.page_hits - before.page_hits);
  EXPECT_EQ(charged.page_misses, after.page_misses - before.page_misses);
  EXPECT_EQ(charged.bytes_read, after.bytes_read - before.bytes_read);
  EXPECT_EQ(charged.stall_ns, after.stall_ns - before.stall_ns);
  EXPECT_EQ(server_stall_ns, after.stall_ns - before.stall_ns);
}

}  // namespace
}  // namespace db
}  // namespace perfeval
