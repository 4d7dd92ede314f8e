#include "workloads.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/status.h"
#include "common/string_util.h"
#include "db/database.h"
#include "db/reference.h"
#include "layers.h"
#include "opt/optimizer.h"
#include "serve/service.h"
#include "shard/cluster.h"
#include "sql/planner.h"
#include "txn/store.h"
#include "txn/vdisk.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace perfbench {
namespace {

// ---- Workload sizes (README.md gives the reasons) ----

// Set-up repeats until it ran kSetupRepeats times and kSetupMinNs in
// total, so even a set-up of a few milliseconds gets a steady median.
constexpr size_t kSetupRepeats = 5;
constexpr int64_t kSetupMinNs = 1'000'000'000;
constexpr size_t kSetupMaxRepeats = 50;
constexpr double kSmokeScale = 0.002;
constexpr double kOlapScale = 0.01;
// About a quarter of the column pages olap_mix's queries touch: the working
// set does not fit, so the pool evicts and misses on every pass.
constexpr size_t kOlapPoolPages = 64;
constexpr int kOlapClients = 4;
constexpr double kScanScale = 0.05;
// Every lineitem page fits: scan_adhoc runs hot.
constexpr size_t kScanPoolPages = 8192;
constexpr int kScanThreads = 4;
constexpr double kIngestScale = 0.005;
constexpr int kIngestReaders = 3;
constexpr int kCommitsPerSecond = 2;
constexpr int kShards = 2;
constexpr int kShardWorkers = 2;
// Warm-up: at least one pass over the 22 queries per client and at least
// two seconds, so caches fill and idle virtual CPUs come up to speed
// before the window opens.
constexpr uint64_t kWarmupRequests = 22;
constexpr int64_t kWarmupNs = 2'000'000'000;
constexpr double kDoubleTol = 1e-9;
constexpr const char* kTpchTables[] = {"region",   "nation", "supplier",
                                       "customer", "part",   "partsupp",
                                       "orders",   "lineitem"};

// Span trees are keyed by request id: reads get (client + 1) << 40 | seq,
// set-ups and writer commits have ranges of their own.
uint64_t ReadId(int client, uint64_t seq) {
  return (static_cast<uint64_t>(client + 1) << 40) | seq;
}
constexpr uint64_t kSetupIdBase = uint64_t{1} << 60;
constexpr uint64_t kCommitIdBase = uint64_t{2} << 60;

double Scale(const RunConfig& config, double scale) {
  return config.smoke ? kSmokeScale : scale;
}

/// Failures found by a check, counted into the error ratio.
struct Checks {
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Expect(bool ok, const std::string& what) {
    if (ok) {
      return;
    }
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(what);
    }
  }
  void Merge(const Checks& other) {
    for (const std::string& e : other.errors) {
      if (errors.size() < 8) {
        errors.push_back(e);
      }
    }
    failed += other.failed;
  }
};

/// What a client learns from one request.
struct Outcome {
  Status status;
  uint64_t fingerprint = 0;
  uint64_t expected = 0;
};

struct WriterTotals {
  int64_t attempted = 0;
  int64_t rows_acked = 0;
  Checks checks;
};

db::StorageStats Minus(const db::StorageStats& a, const db::StorageStats& b) {
  db::StorageStats d;
  d.page_hits = a.page_hits - b.page_hits;
  d.page_misses = a.page_misses - b.page_misses;
  d.bytes_read = a.bytes_read - b.bytes_read;
  d.stall_ns = a.stall_ns - b.stall_ns;
  d.bytes_written = a.bytes_written - b.bytes_written;
  d.fsyncs = a.fsyncs - b.fsyncs;
  d.write_stall_ns = a.write_stall_ns - b.write_stall_ns;
  return d;
}

std::string Diff(const db::Table& actual, const db::Table& expected) {
  return db::DiffTables(actual, expected, kDoubleTol,
                        /*ignore_row_order=*/true);
}

/// One workload's serving state and request schedule.
class Workload {
 public:
  explicit Workload(const RunConfig& config) : config_(config) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the serving state from the seed (timed as set-up); spans go to
  /// request `setup_id`.
  virtual void Setup(uint64_t setup_id) = 0;
  /// Frees the serving state, so repeated set-ups do not pile up memory.
  virtual void Teardown() = 0;
  virtual std::string Header() const = 0;
  virtual int Clients() const = 0;
  /// Untimed: the answer fingerprints measured responses must match.
  virtual void PrepareExpected(Checks* checks) = 0;
  /// One request of `client`'s closed loop.
  virtual Outcome Issue(int client, uint64_t seq, uint64_t id) = 0;
  /// Cumulative buffer-pool counters of the layer that serves reads.
  virtual db::StorageStats PoolStats() = 0;
  /// Untimed: everything checked after the measured windows.
  virtual void Verify(Checks* checks) = 0;

  // Open-loop writer hooks (ingest_mix only).
  virtual bool Writes() const { return false; }
  virtual void BeginWindow(int64_t /*start_ns*/, int64_t /*end_ns*/) {}
  virtual WriterTotals EndWindow() { return {}; }
  virtual db::StorageStats WriteStats() { return {}; }

 protected:
  RunConfig config_;
};

// ---- Building blocks shared by the workloads ----

/// Generates the TPC-H tables in LoadAll order and hands each to `add`.
void LoadTables(
    double scale, uint64_t seed, uint64_t setup_id,
    const std::function<void(const std::string&, std::shared_ptr<db::Table>)>&
        add) {
  workload::TpchGenerator gen(scale, seed);
  for (const char* name : kTpchTables) {
    std::shared_ptr<db::Table> table;
    {
      ScopedSpan span(setup_id, spans::kSetupDatagen, spans::kSetup);
      table = gen.Generate(name);
    }
    ScopedSpan span(setup_id, spans::kSetupRegister, spans::kSetup);
    add(name, std::move(table));
  }
}

/// The 22 TPC-H plans, each built and optimized once against `catalog`.
std::vector<db::PlanPtr> OptimizedPlans(const db::Database& catalog,
                                        uint64_t setup_id) {
  std::vector<db::PlanPtr> plans;
  for (int q = 1; q <= 22; ++q) {
    db::PlanPtr plan = workload::GetTpchQuery(q).Build(catalog);
    ScopedSpan span(setup_id, spans::kOptOptimize, spans::kSetupPrepare);
    opt::OptimizeResult optimized = opt::Optimize(plan, catalog);
    span.Attr(attrs::kReordered, optimized.reordered > 0 ? 1 : 0);
    plans.push_back(optimized.plan);
  }
  return plans;
}

/// Operator, row and parallel-region counts of one QueryResult.
void AddRunAttrs(const db::QueryResult& result, ScopedSpan* span) {
  int64_t hashjoin = 0, hashjoin_rows = 0, filterscan = 0, aggregate = 0;
  int64_t filter = 0, sort = 0, other = 0, scanned = 0;
  for (const db::OpTrace& op : result.profile.traces()) {
    if (StartsWith(op.op, "HashJoin(")) {
      hashjoin += op.wall_ns;
      hashjoin_rows += static_cast<int64_t>(op.rows_in);
    } else if (StartsWith(op.op, "FilterScan(")) {
      filterscan += op.wall_ns;
    } else if (op.op == "Aggregate") {
      aggregate += op.wall_ns;
    } else if (op.op == "Filter") {
      filter += op.wall_ns;
    } else if (op.op == "Sort" || op.op == "TopN") {
      sort += op.wall_ns;
    } else {
      other += op.wall_ns;
    }
    if (StartsWith(op.op, "Scan(") || StartsWith(op.op, "FilterScan(")) {
      scanned += static_cast<int64_t>(op.rows_in);
    }
  }
  span->Attr(attrs::kHashJoinNs, hashjoin);
  span->Attr(attrs::kHashJoinRowsIn, hashjoin_rows);
  span->Attr(attrs::kFilterScanNs, filterscan);
  span->Attr(attrs::kAggregateNs, aggregate);
  span->Attr(attrs::kFilterNs, filter);
  span->Attr(attrs::kSortNs, sort);
  span->Attr(attrs::kOtherNs, other);
  span->Attr(attrs::kRowsScanned, scanned);
  span->Attr(attrs::kResultRows,
             static_cast<int64_t>(result.table ? result.table->num_rows() : 0));
  span->Attr(attrs::kRegions, result.parallel.regions);
  span->Attr(attrs::kRegionWallNs, result.parallel.region_wall_ns);
  span->Attr(attrs::kRegionCriticalNs, result.parallel.region_critical_ns);
}

/// The executor behind a single-node service. With `refresh`, the write
/// path's catalog refresh runs (and is timed) on its own before the query.
serve::QueryService::ExecutorFn LocalExecutor(db::Database* database,
                                              bool refresh) {
  return [database, refresh](const serve::Request& request,
                             db::ExecMode mode, db::SinkKind sink) {
    if (refresh) {
      ScopedSpan span(request.seed, spans::kTxnRefresh, spans::kServeExecute);
      const db::Table* before =
          span.active() ? &database->GetTable("lineitem") : nullptr;
      database->Refresh();
      if (span.active()) {
        span.Attr(attrs::kInstalled,
                  before != &database->GetTable("lineitem") ? 1 : 0);
      }
    }
    ScopedSpan span(request.seed, spans::kDbRun, spans::kServeExecute);
    db::QueryResult result = database->Run(request.plan, mode, sink);
    if (span.active()) {
      AddRunAttrs(result, &span);
    }
    return result;
  };
}

/// The front-end executor of the sharded cluster: what
/// shard::MakeClusterExecutor does, plus the shard.execute span.
serve::QueryService::ExecutorFn ClusterExecutor(shard::ShardCluster* cluster) {
  return [cluster](const serve::Request& request, db::ExecMode mode,
                   db::SinkKind /*sink*/) {
    ScopedSpan span(request.seed, spans::kShardExecute, spans::kServeExecute);
    shard::ShardedResult sharded = cluster->Execute(request.plan, mode);
    if (span.active()) {
      const shard::ShardExecution& slowest =
          sharded.shards.at(static_cast<size_t>(sharded.slowest_shard));
      span.Attr(attrs::kSlowestShardNs, slowest.timing.TotalNs());
      span.Attr(attrs::kSlowestQueueNs, slowest.timing.queue_wait_ns);
      span.Attr(attrs::kFragments, static_cast<int64_t>(sharded.num_fragments));
    }
    return std::move(sharded.result);
  };
}

/// A client's synchronous call into the service.
Outcome Serve(serve::QueryService& service, db::PlanPtr plan, uint64_t id,
              uint64_t expected) {
  ScopedSpan span(id, spans::kServeExecute, spans::kRequest);
  serve::Request request;
  request.plan = std::move(plan);
  request.seed = id;
  serve::Response response = service.Execute(std::move(request));
  span.Attr(attrs::kQueueWaitNs, response.server.queue_wait_ns);
  return {response.status, response.fingerprint, expected};
}

std::string ServiceConfig(const serve::ServiceOptions& o) {
  return StrFormat("service{workers=%d queue=%zu overload=%s fingerprint=%s}",
                   o.workers, o.queue_capacity,
                   serve::OverloadPolicyName(o.overload),
                   o.fingerprint_results ? "on" : "off");
}

std::string DbConfig(const db::Database& d) {
  const db::DatabaseOptions& o = d.options();
  return StrFormat(
      "db{pool_pages=%zu rows_per_page=%zu threads=%d join=%s optimize=%s "
      "lineitem_rows=%zu}",
      o.buffer_pool_pages, o.rows_per_page, d.threads(),
      db::JoinAlgoName(d.join_algo()), d.optimize() ? "on" : "off",
      d.HasTable("lineitem") ? d.GetTable("lineitem").num_rows() : 0);
}

// ---- The 22-query mixes: olap_mix, ingest_mix, sharded_mix ----

/// Closed-loop clients cycling through their own seeded permutation of the
/// 22 prepared plans; subclasses own the engine behind `service_`.
class TpchMix : public Workload {
 public:
  TpchMix(const RunConfig& config, int clients) : Workload(config) {
    for (int c = 0; c < clients; ++c) {
      permutations_.push_back(ClientPermutation(config.seed, c));
    }
  }

  int Clients() const override {
    return static_cast<int>(permutations_.size());
  }

  Outcome Issue(int client, uint64_t seq, uint64_t id) override {
    const std::vector<int>& order =
        permutations_[static_cast<size_t>(client)];
    size_t q = static_cast<size_t>(order[seq % order.size()] - 1);
    return Serve(*service_, plans_[q], id, expected_[q]);
  }

 protected:
  /// Records the fingerprint and relation of every plan's answer.
  void RecordExpected(size_t q, std::shared_ptr<const db::Table> table) {
    expected_.resize(plans_.size());
    expected_tables_.resize(plans_.size());
    expected_[q] = serve::QueryService::FingerprintTable(*table);
    expected_tables_[q] = std::move(table);
  }

  void ResetMix() {
    service_.reset();  // joins the workers before the engine goes away.
    plans_.clear();
    expected_.clear();
    expected_tables_.clear();
  }

  std::vector<std::vector<int>> permutations_;
  std::vector<db::PlanPtr> plans_;
  std::vector<uint64_t> expected_;
  std::vector<std::shared_ptr<const db::Table>> expected_tables_;
  std::unique_ptr<serve::QueryService> service_;
};

/// Join-heavy reads over a buffer pool smaller than the working set.
class OlapMix : public TpchMix {
 public:
  explicit OlapMix(const RunConfig& config) : TpchMix(config, kOlapClients) {}
  ~OlapMix() override { Teardown(); }

  static db::DatabaseOptions Options() {
    db::DatabaseOptions options;
    options.buffer_pool_pages = kOlapPoolPages;
    options.threads = 1;
    return options;
  }

  void Setup(uint64_t setup_id) override {
    database_ = std::make_unique<db::Database>(Options());
    LoadTables(Scale(config_, kOlapScale), config_.seed, setup_id,
               [this](const std::string& name, std::shared_ptr<db::Table> t) {
                 database_->RegisterTable(name, std::move(t));
               });
    ScopedSpan span(setup_id, spans::kSetupPrepare, spans::kSetup);
    plans_ = OptimizedPlans(*database_, setup_id);
    serve::ServiceOptions options;
    options.workers = kOlapClients;
    service_ = std::make_unique<serve::QueryService>(
        LocalExecutor(database_.get(), /*refresh=*/false), options);
  }

  void Teardown() override {
    ResetMix();
    database_.reset();
  }

  std::string Header() const override {
    return StrFormat("olap_mix: tpch sf=%g %s %s clients=%d closed-loop",
                     Scale(config_, kOlapScale), DbConfig(*database_).c_str(),
                     ServiceConfig(service_->options()).c_str(), Clients());
  }

  void PrepareExpected(Checks* /*checks*/) override {
    for (size_t q = 0; q < plans_.size(); ++q) {
      RecordExpected(q, database_->Run(plans_[q]).table);
    }
  }

  db::StorageStats PoolStats() override {
    return database_->storage().StatsSnapshot();
  }

  void Verify(Checks* checks) override {
    for (size_t q = 0; q < plans_.size(); ++q) {
      std::string diff = Diff(
          *expected_tables_[q], *db::ReferenceExecute(plans_[q], *database_));
      checks->Expect(diff.empty(), StrFormat("Q%zu differs from the reference "
                                             "interpreter: %s",
                                             q + 1, diff.c_str()));
    }
  }

 private:
  std::unique_ptr<db::Database> database_;
};

/// Reads under a concurrent open-loop writer through the WAL-backed delta
/// store.
class IngestMix : public TpchMix {
 public:
  explicit IngestMix(const RunConfig& config)
      : TpchMix(config, kIngestReaders) {}
  ~IngestMix() override { Teardown(); }

  void Setup(uint64_t setup_id) override {
    database_ = std::make_unique<db::Database>(db::DatabaseOptions());
    LoadTables(Scale(config_, kIngestScale), config_.seed, setup_id,
               [this](const std::string& name, std::shared_ptr<db::Table> t) {
                 database_->RegisterTable(name, std::move(t));
               });
    ScopedSpan span(setup_id, spans::kSetupPrepare, spans::kSetup);
    plans_ = OptimizedPlans(*database_, setup_id);
    disk_ = std::make_unique<txn::VirtualDisk>();
    store_ = std::make_unique<txn::DeltaStore>(database_.get(), disk_.get());
    open_status_ = store_->Open();
    serve::ServiceOptions options;
    options.workers = kIngestReaders;
    service_ = std::make_unique<serve::QueryService>(
        LocalExecutor(database_.get(), /*refresh=*/true), options);
    auto count = [this](const char* table) {
      return static_cast<int64_t>(database_->GetTable(table).num_rows());
    };
    keys_.max_orderkey = count("orders");  // order keys are dense 1..n
    keys_.customers = count("customer");
    keys_.parts = count("part");
    keys_.suppliers = count("supplier");
    base_lineitem_ = database_->GetTable("lineitem").num_rows();
    next_commit_ = 0;
    commits_acked_ = 0;
  }

  void Teardown() override {
    ResetMix();
    store_.reset();
    disk_.reset();
    database_.reset();
  }

  std::string Header() const override {
    return StrFormat(
        "ingest_mix: tpch sf=%g %s %s readers=%d closed-loop, writer "
        "open-loop %d commits/s x (1 orders + %d lineitem rows)",
        Scale(config_, kIngestScale), DbConfig(*database_).c_str(),
        ServiceConfig(service_->options()).c_str(), Clients(),
        kCommitsPerSecond, kLinesPerCommit);
  }

  void PrepareExpected(Checks* checks) override {
    checks->Expect(open_status_.ok(),
                   "DeltaStore::Open: " + open_status_.ToString());
    for (size_t q = 0; q < plans_.size(); ++q) {
      RecordExpected(q, database_->Run(plans_[q]).table);
    }
  }

  db::StorageStats PoolStats() override {
    return database_->storage().StatsSnapshot();
  }

  bool Writes() const override { return true; }

  void BeginWindow(int64_t start_ns, int64_t end_ns) override {
    writer_totals_ = WriterTotals();
    writer_ = std::thread([this, start_ns, end_ns] {
      WriterLoop(start_ns, end_ns);
    });
  }

  WriterTotals EndWindow() override {
    writer_.join();
    return std::move(writer_totals_);
  }

  db::StorageStats WriteStats() override { return disk_->stats(); }

  void Verify(Checks* checks) override {
    const size_t acked = static_cast<size_t>(commits_acked_);
    const size_t want_orders = static_cast<size_t>(keys_.max_orderkey) + acked;
    const size_t want_lines = base_lineitem_ + acked * kLinesPerCommit;
    auto expect_counts = [&](const char* where, size_t orders, size_t lines) {
      checks->Expect(orders == want_orders && lines == want_lines,
                     StrFormat("%s after %zu acknowledged commits: orders %zu "
                               "of %zu, lineitem %zu of %zu",
                               where, acked, orders, want_orders, lines,
                               want_lines));
    };
    database_->Refresh();
    expect_counts("catalog", database_->GetTable("orders").num_rows(),
                  database_->GetTable("lineitem").num_rows());
    Status integrity = store_->CheckIntegrity();
    checks->Expect(integrity.ok(), "CheckIntegrity: " + integrity.ToString());
    // The ingested rows are invisible to every query, so the final answers
    // must equal both the reference interpreter's and the pre-ingest ones.
    for (size_t q = 0; q < plans_.size(); ++q) {
      std::shared_ptr<const db::Table> final_table =
          database_->Run(plans_[q]).table;
      std::string diff = Diff(
          *final_table, *db::ReferenceExecute(plans_[q], *database_));
      checks->Expect(diff.empty(),
                     StrFormat("Q%zu after ingest differs from the reference "
                               "interpreter: %s",
                               q + 1, diff.c_str()));
      checks->Expect(
          serve::QueryService::FingerprintTable(*final_table) == expected_[q],
          StrFormat("Q%zu after ingest differs from its pre-ingest answer",
                    q + 1));
    }
    // Recovery: power off, then replay the durable image onto a pristine
    // copy of the base data.
    service_.reset();
    disk_->Reopen();
    db::Database pristine{db::DatabaseOptions()};
    workload::TpchGenerator(Scale(config_, kIngestScale), config_.seed)
        .LoadAll(&pristine);
    txn::DeltaStore recovered(&pristine, disk_.get());
    Status open = recovered.Open();
    checks->Expect(open.ok(), "recovery Open: " + open.ToString());
    if (open.ok()) {
      expect_counts("recovered store",
                    recovered.MergedTable("orders")->num_rows(),
                    recovered.MergedTable("lineitem")->num_rows());
    }
  }

 private:
  void WriterLoop(int64_t start_ns, int64_t end_ns) {
    const int64_t period_ns = 1'000'000'000 / kCommitsPerSecond;
    for (int64_t k = 0;; ++k) {
      const int64_t due_ns = start_ns + k * period_ns;
      if (due_ns >= end_ns) {
        break;
      }
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due_ns)));
      const uint64_t commit = next_commit_++;
      WriterCommit rows = WriterRows(config_.seed, commit, keys_);
      ScopedSpan span(kCommitIdBase + commit, spans::kTxnCommit, "");
      span.Attr(attrs::kDueNs, due_ns);
      uint64_t txn_id = store_->Begin();
      Status status = store_->BufferInsert(txn_id, "orders", {rows.order});
      if (status.ok()) {
        status = store_->BufferInsert(txn_id, "lineitem", rows.lines);
      }
      if (status.ok()) {
        status = store_->Commit(txn_id);
      } else {
        store_->Abort(txn_id);
      }
      span.Attr(attrs::kOk, status.ok() ? 1 : 0);
      ++writer_totals_.attempted;
      writer_totals_.checks.Expect(
          status.ok(), StrFormat("commit %llu: %s",
                                 static_cast<unsigned long long>(commit),
                                 status.ToString().c_str()));
      if (status.ok()) {
        ++commits_acked_;
        writer_totals_.rows_acked += 1 + kLinesPerCommit;
      }
    }
  }

  std::unique_ptr<db::Database> database_;
  std::unique_ptr<txn::VirtualDisk> disk_;
  std::unique_ptr<txn::DeltaStore> store_;
  Status open_status_;
  IngestKeys keys_;
  size_t base_lineitem_ = 0;
  uint64_t next_commit_ = 0;
  int64_t commits_acked_ = 0;
  WriterTotals writer_totals_;  // written by the writer thread only
  std::thread writer_;
};

/// olap_mix's data and queries, scattered over a two-shard cluster behind
/// a front-end service.
class ShardedMix : public TpchMix {
 public:
  explicit ShardedMix(const RunConfig& config)
      : TpchMix(config, kOlapClients) {}
  ~ShardedMix() override { Teardown(); }

  void Setup(uint64_t setup_id) override {
    shard::ShardClusterOptions options;
    options.num_shards = kShards;
    // The shards charge no simulated disk time, so each shard's reported
    // time is real time and the coordinator residual stays meaningful; the
    // cluster's logical I/O is replayed against olap_mix's pool and disk.
    options.shard_db.buffer_pool_pages = kOlapPoolPages / kShards;
    options.shard_db.disk = db::DiskModel{0, 0.0};
    options.shard_service.workers = kShardWorkers;
    options.shard_service.fingerprint_results = false;
    options.reference = OlapMix::Options();
    cluster_ = std::make_unique<shard::ShardCluster>(options);
    LoadTables(Scale(config_, kOlapScale), config_.seed, setup_id,
               [this](const std::string& name, std::shared_ptr<db::Table> t) {
                 tables_.emplace_back(name, t);
                 cluster_->AddTable(name, std::move(t));
               });
    ScopedSpan span(setup_id, spans::kSetupPrepare, spans::kSetup);
    plans_ = OptimizedPlans(cluster_->shard_db(0), setup_id);
    serve::ServiceOptions front;
    front.workers = kOlapClients;
    service_ = std::make_unique<serve::QueryService>(
        ClusterExecutor(cluster_.get()), front);
  }

  void Teardown() override {
    ResetMix();
    cluster_.reset();
    tables_.clear();
  }

  std::string Header() const override {
    const shard::ShardClusterOptions& o = cluster_->options();
    return StrFormat(
        "sharded_mix: tpch sf=%g cluster{shards=%d shard_pool_pages=%zu "
        "shard_threads=%d shard_disk_seek_ns=%lld replay_pool_pages=%zu} "
        "shard_%s front_%s clients=%d closed-loop",
        Scale(config_, kOlapScale), cluster_->num_shards(),
        o.shard_db.buffer_pool_pages, cluster_->shard_db(0).threads(),
        static_cast<long long>(o.shard_db.disk.seek_ns),
        o.reference.buffer_pool_pages,
        ServiceConfig(cluster_->shard_service(0).options()).c_str(),
        ServiceConfig(service_->options()).c_str(), Clients());
  }

  void PrepareExpected(Checks* /*checks*/) override {
    for (size_t q = 0; q < plans_.size(); ++q) {
      RecordExpected(q, cluster_->Execute(plans_[q]).result.table);
    }
  }

  db::StorageStats PoolStats() override {
    return cluster_->replay_storage().StatsSnapshot();
  }

  void Verify(Checks* checks) override {
    db::Database single(OlapMix::Options());
    for (const auto& [name, table] : tables_) {
      single.RegisterTable(name, table);
    }
    for (size_t q = 0; q < plans_.size(); ++q) {
      std::shared_ptr<const db::Table> local = single.Run(plans_[q]).table;
      std::string diff =
          Diff(*local, *db::ReferenceExecute(plans_[q], single));
      checks->Expect(diff.empty(), StrFormat("Q%zu single-node differs from "
                                             "the reference interpreter: %s",
                                             q + 1, diff.c_str()));
      diff = Diff(*expected_tables_[q], *local);
      checks->Expect(diff.empty(),
                     StrFormat("Q%zu sharded differs from single-node: %s",
                               q + 1, diff.c_str()));
    }
  }

 private:
  std::unique_ptr<shard::ShardCluster> cluster_;
  std::vector<std::pair<std::string, std::shared_ptr<db::Table>>> tables_;
};

// ---- scan_adhoc ----

/// One client sending ad-hoc SQL: scan, filter and aggregate kernels under
/// morsel parallelism, over a pool that holds the whole working set.
class ScanAdhoc : public Workload {
 public:
  explicit ScanAdhoc(const RunConfig& config) : Workload(config) {}
  ~ScanAdhoc() override { Teardown(); }

  void Setup(uint64_t setup_id) override {
    db::DatabaseOptions options;
    options.buffer_pool_pages = kScanPoolPages;
    options.threads = kScanThreads;
    database_ = std::make_unique<db::Database>(options);
    LoadTables(Scale(config_, kScanScale), config_.seed, setup_id,
               [this](const std::string& name, std::shared_ptr<db::Table> t) {
                 database_->RegisterTable(name, std::move(t));
               });
    ScopedSpan span(setup_id, spans::kSetupPrepare, spans::kSetup);
    pool_ = AdhocSqlPool(config_.seed);
    serve::ServiceOptions service;
    service.workers = 1;
    service_ = std::make_unique<serve::QueryService>(
        LocalExecutor(database_.get(), /*refresh=*/false), service);
  }

  void Teardown() override {
    service_.reset();
    database_.reset();
    expected_.clear();
    verified_.clear();
  }

  std::string Header() const override {
    return StrFormat(
        "scan_adhoc: tpch sf=%g %s %s clients=1 closed-loop, %zu SQL texts "
        "(Q1-shaped share %.2f)",
        Scale(config_, kScanScale), DbConfig(*database_).c_str(),
        ServiceConfig(service_->options()).c_str(), pool_.size(),
        kAdhocQ1Share);
  }

  int Clients() const override { return 1; }

  /// Expected answers come from a serial run; the parallel window must
  /// reproduce them bit for bit.
  void PrepareExpected(Checks* checks) override {
    const int threads = database_->threads();
    database_->set_threads(1);
    expected_.assign(pool_.size(), 0);
    for (size_t i = 0; i < pool_.size(); ++i) {
      Result<sql::PlannedQuery> planned = sql::PlanQuery(pool_[i], *database_);
      checks->Expect(planned.ok(), "planning " + pool_[i] + ": " +
                                       planned.status().ToString());
      if (!planned.ok()) {
        continue;
      }
      std::shared_ptr<const db::Table> table =
          database_->Run(planned->plan).table;
      expected_[i] = serve::QueryService::FingerprintTable(*table);
      if (i % (kAdhocParams / 4) == 0) {  // 4 texts of each template
        verified_.emplace_back(planned->plan, std::move(table));
      }
    }
    database_->set_threads(threads);
  }

  Outcome Issue(int /*client*/, uint64_t seq, uint64_t id) override {
    size_t choice = AdhocChoice(config_.seed, seq);
    db::PlanPtr plan;
    {
      ScopedSpan span(id, spans::kSqlPlan, spans::kRequest);
      Result<sql::PlannedQuery> planned =
          sql::PlanQuery(pool_[choice], *database_);
      if (!planned.ok()) {
        return {planned.status(), 0, expected_[choice]};
      }
      plan = planned->plan;
    }
    return Serve(*service_, std::move(plan), id, expected_[choice]);
  }

  db::StorageStats PoolStats() override {
    return database_->storage().StatsSnapshot();
  }

  void Verify(Checks* checks) override {
    for (const auto& [plan, table] : verified_) {
      std::string diff =
          Diff(*table, *db::ReferenceExecute(plan, *database_));
      checks->Expect(diff.empty(), "ad-hoc text differs from the reference "
                                   "interpreter: " + diff);
    }
  }

 private:
  std::unique_ptr<db::Database> database_;
  std::unique_ptr<serve::QueryService> service_;
  std::vector<std::string> pool_;
  std::vector<uint64_t> expected_;
  std::vector<std::pair<db::PlanPtr, std::shared_ptr<const db::Table>>>
      verified_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& config) {
  if (name == "olap_mix") {
    return std::make_unique<OlapMix>(config);
  }
  if (name == "scan_adhoc") {
    return std::make_unique<ScanAdhoc>(config);
  }
  if (name == "ingest_mix") {
    return std::make_unique<IngestMix>(config);
  }
  if (name == "sharded_mix") {
    return std::make_unique<ShardedMix>(config);
  }
  return nullptr;
}

// ---- The measurement loop ----

struct LoadResult {
  int64_t attempted = 0;
  int64_t ok_in_window = 0;  // correct answers completed before the end
  std::vector<double> latency_ms;
  Checks checks;  // failed reads and wrong answers
};

/// Runs every client's closed loop until `end_ns`, and on past it until
/// the client sent `min_per_client` requests. Latency runs from the
/// request's start to its response and counts only correct answers
/// completed inside the window.
LoadResult RunLoad(Workload& workload, int64_t end_ns,
                   uint64_t min_per_client) {
  LoadResult total;
  std::mutex mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < workload.Clients(); ++c) {
    clients.emplace_back([&, c] {
      LoadResult mine;
      for (uint64_t seq = 0;; ++seq) {
        const int64_t start_ns = NowNs();
        if (start_ns >= end_ns && seq >= min_per_client) {
          break;
        }
        const uint64_t id = ReadId(c, seq);
        Outcome outcome;
        {
          ScopedSpan span(id, spans::kRequest, "");
          outcome = workload.Issue(c, seq, id);
        }
        const int64_t done_ns = NowNs();
        ++mine.attempted;
        const bool correct =
            outcome.status.ok() && outcome.fingerprint == outcome.expected;
        mine.checks.Expect(
            correct,
            outcome.status.ok()
                ? StrFormat("client %d request %llu: wrong answer", c,
                            static_cast<unsigned long long>(seq))
                : StrFormat("client %d request %llu: %s", c,
                            static_cast<unsigned long long>(seq),
                            outcome.status.ToString().c_str()));
        if (correct && done_ns <= end_ns) {
          ++mine.ok_in_window;
          mine.latency_ms.push_back(static_cast<double>(done_ns - start_ns) /
                                    1e6);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      total.attempted += mine.attempted;
      total.ok_in_window += mine.ok_in_window;
      total.latency_ms.insert(total.latency_ms.end(), mine.latency_ms.begin(),
                              mine.latency_ms.end());
      total.checks.Merge(mine.checks);
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  return total;
}

struct Window {
  LoadResult reads;
  WriterTotals writer;
  db::StorageStats pool;
  db::StorageStats writes;
  double rss_growth_mb = 0.0;
  double qps = 0.0;
};

Window MeasureWindow(Workload& workload, double seconds) {
  Window w;
  const db::StorageStats pool_before = workload.PoolStats();
  const db::StorageStats writes_before = workload.WriteStats();
  const double rss_before = CurrentRssMb();
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  workload.BeginWindow(start_ns, end_ns);
  w.reads = RunLoad(workload, end_ns, 0);
  w.writer = workload.EndWindow();
  w.pool = Minus(workload.PoolStats(), pool_before);
  w.writes = Minus(workload.WriteStats(), writes_before);
  w.rss_growth_mb = CurrentRssMb() - rss_before;
  w.qps = static_cast<double>(w.reads.ok_in_window) / seconds;
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"olap_mix", "scan_adhoc",
                                                 "ingest_mix", "sharded_mix"};
  return names;
}

WorkloadReport RunWorkload(const std::string& name, const RunConfig& config) {
  WorkloadReport report;
  report.workload = name;
  std::unique_ptr<Workload> workload = MakeWorkload(name, config);
  if (workload == nullptr) {
    report.correct = false;
    report.errors.push_back("unknown workload " + name);
    return report;
  }

  // Set-up runs several times; its time is the median, and the last
  // set-up's state serves the windows.
  std::vector<double> setup_s;
  Tracer::SetEnabled(config.trace);
  const int64_t setups_start_ns = NowNs();
  do {
    workload->Teardown();
    const uint64_t setup_id = kSetupIdBase + setup_s.size();
    const int64_t start_ns = NowNs();
    {
      ScopedSpan span(setup_id, spans::kSetup, "");
      workload->Setup(setup_id);
    }
    setup_s.push_back(static_cast<double>(NowNs() - start_ns) / 1e9);
  } while (!config.smoke && setup_s.size() < kSetupMaxRepeats &&
           (setup_s.size() < kSetupRepeats ||
            NowNs() - setups_start_ns < kSetupMinNs));
  Tracer::SetEnabled(false);
  report.header = workload->Header();

  Checks checks;
  workload->PrepareExpected(&checks);
  LoadResult warmup = RunLoad(*workload, NowNs() + kWarmupNs, kWarmupRequests);
  Window window = MeasureWindow(*workload, config.seconds);
  // Read before verification, whose reference interpreter is not part of
  // the served workload.
  const double peak_rss_mb = PeakRssMb();
  Window traced;
  if (config.trace) {
    Tracer::SetEnabled(true);
    traced = MeasureWindow(*workload, config.seconds);
    Tracer::SetEnabled(false);
  }
  workload->Verify(&checks);

  for (const Checks* c : {&warmup.checks, &window.reads.checks,
                          &window.writer.checks, &traced.reads.checks,
                          &traced.writer.checks}) {
    checks.Merge(*c);
  }
  report.attempted = warmup.attempted + window.reads.attempted +
                     window.writer.attempted + traced.reads.attempted +
                     traced.writer.attempted;
  report.failed = checks.failed;
  report.errors = checks.errors;
  report.correct = report.failed == 0;

  const std::vector<double>& latency = window.reads.latency_ms;
  report.latency_n = latency.size();
  report.p99_supported = PercentileSupported(latency.size(), 99);
  const double error_ratio =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  report.end_to_end = {
      {"setup_s", Percentile(setup_s, 50), "s"},
      {"qps", window.qps, "queries/s"},
      {"latency_p50_ms", Percentile(latency, 50), "ms"},
      {"latency_p99_ms", Percentile(latency, 99), "ms"},
      {"error_ratio", error_ratio, "fraction"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  if (workload->Writes()) {
    report.end_to_end.push_back(
        {"ingest_rows_per_s",
         static_cast<double>(window.writer.rows_acked) / config.seconds,
         "rows/s"});
  }

  if (config.trace) {
    report.spans = Tracer::Drain();
    LayerInputs in;
    in.window_s = config.seconds;
    in.setup_repeats = static_cast<int>(setup_s.size());
    in.qps_untraced = window.qps;
    in.qps_traced = traced.qps;
    in.storage = traced.pool;
    in.writes = traced.writes;
    in.rows_acked = traced.writer.rows_acked;
    in.rss_growth_mb = traced.rss_growth_mb;
    report.per_layer = DeriveLayerMetrics(report.spans, in);
  }
  return report;
}

}  // namespace perfbench
}  // namespace perfeval
