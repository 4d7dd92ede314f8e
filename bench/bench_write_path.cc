// A9 — the write path measured (DESIGN.md S15). Three panels:
//
//  1. ingest rate vs commit batch size: every commit pays one fsync
//     (seek + unsynced bytes), so rows/s on the observed clock — real
//     CPU time plus the DiskModel's simulated write stall — should rise
//     with batch size until the per-row WAL encoding cost dominates. A
//     group-commit cell commits from several threads at once and reports
//     fsyncs per commit < 1, the amortization WalWriter::SyncUpTo buys.
//  2. recovery time vs WAL length: Open() replays the log, so recovery
//     should be linear in committed records — and a checkpoint resets
//     the line to (checkpoint load + short tail), which is the whole
//     point of taking one.
//  3. read latency under concurrent ingest: the same closed-loop driver
//     as A8 runs against serve::QueryService twice — once on a quiet
//     database and once while a background writer commits batches into
//     lineitem — and reports the p50/p99 shift with bootstrap CIs.
//     Queries fold freshly committed deltas in via the refresh hook, so
//     the shift prices the merge, not just lock contention.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/metrics.h"
#include "core/timer.h"
#include "db/database.h"
#include "load_sweep.h"
#include "report/gnuplot.h"
#include "report/svg.h"
#include "report/table_format.h"
#include "serve/loadgen.h"
#include "serve/service.h"
#include "stats/bootstrap.h"
#include "stats/confidence.h"
#include "txn/store.h"
#include "txn/vdisk.h"
#include "workload/tpch_gen.h"

namespace perfeval {
namespace {

constexpr double kConfidence = 0.95;

void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// The ingest target: a two-column table over a pristine database, the
/// smallest catalog a DeltaStore can mutate.
std::unique_ptr<db::Database> MakeIngestDb() {
  auto database = std::make_unique<db::Database>();
  auto events = std::make_shared<db::Table>(db::Schema(
      {{"id", db::DataType::kInt64}, {"v", db::DataType::kDouble}}));
  events->AppendRow({db::Value::Int64(0), db::Value::Double(0.0)});
  database->RegisterTable("events", std::move(events));
  return database;
}

std::vector<std::vector<db::Value>> Batch(int64_t start, int rows) {
  std::vector<std::vector<db::Value>> out;
  out.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    out.push_back({db::Value::Int64(start + i),
                   db::Value::Double(static_cast<double>(start + i) * 0.5)});
  }
  return out;
}

/// Commits `commits` batches of `rows_per_commit` into a fresh store and
/// returns rows/s on the observed clock (real + simulated write stall).
double IngestOnce(int commits, int rows_per_commit, db::StorageStats* stats) {
  std::unique_ptr<db::Database> database = MakeIngestDb();
  txn::VirtualDisk disk;
  txn::DeltaStore store(database.get(), &disk);
  Require(store.Open(), "DeltaStore::Open");
  disk.ResetStats();
  core::WallTimer timer;
  int64_t next_id = 1;
  for (int c = 0; c < commits; ++c) {
    uint64_t txn = store.Begin();
    Require(store.BufferInsert(txn, "events", Batch(next_id, rows_per_commit)),
            "BufferInsert");
    Require(store.Commit(txn), "Commit");
    next_id += rows_per_commit;
  }
  double real_s = timer.ElapsedSeconds();
  *stats = disk.stats();
  double observed_s = real_s + static_cast<double>(stats->write_stall_ns) / 1e9;
  return static_cast<double>(commits) * rows_per_commit / observed_s;
}

struct IngestCell {
  int batch_rows = 0;
  stats::ConfidenceInterval rows_per_sec;
  double fsyncs_per_commit = 0.0;
  double wal_bytes_per_row = 0.0;
};

struct RecoveryCell {
  int commits = 0;
  bool checkpointed = false;
  size_t wal_bytes = 0;
  uint64_t records_replayed = 0;
  /// Bootstrap interval: recovery times are positive and skewed, and a
  /// Student-t interval on a handful of them reaches below zero. Below
  /// stats::kMinBootstrapSamples reps (the smoke run) only the range.
  stats::MeanEstimate recover_ms;
};

/// Builds `commits` batches of durable state (optionally checkpointing,
/// then committing a short tail), then measures Open() from a fresh
/// pristine database `reps` (>= 1) times; `seed` drives the bootstrap.
RecoveryCell MeasureRecovery(int commits, bool checkpointed, int reps,
                             uint64_t seed) {
  RecoveryCell cell;
  cell.commits = commits;
  cell.checkpointed = checkpointed;
  txn::VirtualDisk disk;
  {
    std::unique_ptr<db::Database> database = MakeIngestDb();
    txn::DeltaStore store(database.get(), &disk);
    Require(store.Open(), "DeltaStore::Open");
    int64_t next_id = 1;
    for (int c = 0; c < commits; ++c) {
      uint64_t txn = store.Begin();
      Require(store.BufferInsert(txn, "events", Batch(next_id, 8)),
              "BufferInsert");
      Require(store.Commit(txn), "Commit");
      next_id += 8;
    }
    if (checkpointed) {
      Require(store.Checkpoint(), "Checkpoint");
      for (int c = 0; c < 8; ++c) {
        uint64_t txn = store.Begin();
        Require(store.BufferInsert(txn, "events", Batch(next_id, 8)),
                "BufferInsert");
        Require(store.Commit(txn), "Commit");
        next_id += 8;
        cell.commits = commits + c + 1;
      }
    }
    cell.wal_bytes = disk.Size("wal.log");
  }
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    disk.Reopen();  // power-off: volatile state gone, durable state kept.
    std::unique_ptr<db::Database> pristine = MakeIngestDb();
    txn::DeltaStore recovered(pristine.get(), &disk);
    core::WallTimer timer;
    Require(recovered.Open(), "recovery Open");
    samples.push_back(timer.ElapsedMs());
    cell.records_replayed = recovered.stats().wal_records_replayed;
  }
  cell.recover_ms = stats::EstimateMean(samples, kConfidence, seed);
  return cell;
}

}  // namespace
}  // namespace perfeval

int main(int argc, char** argv) {
  using namespace perfeval;  // NOLINT(build/namespaces) bench binary.
  bench::BenchContext ctx(
      "A9",
      "write-path measurement: commit-batch-size sweep with fsync "
      "accounting on the observed clock, group-commit fsync "
      "amortization, recovery-time-vs-WAL-length sweep with a "
      "checkpoint cell, and closed-loop query latency quiet vs under "
      "concurrent ingest; means and percentiles with CIs",
      argc, argv);
  ctx.properties().SetDefault("totalRows", "2048");
  ctx.properties().SetDefault("ingestReps", "5");
  ctx.properties().SetDefault("recoveryReps", "5");
  ctx.properties().SetDefault("scaleFactor", "0.01");
  ctx.properties().SetDefault("workers", "4");
  ctx.properties().SetDefault("requests", "160");
  ctx.properties().SetDefault("resamples", "1000");
  ctx.properties().SetDefault("runSeed", "42");
  ctx.PrintHeader("write path: ingest, recovery, reads under ingest (A9)");

  bool smoke = ctx.Smoke();
  int total_rows = static_cast<int>(ctx.properties().GetInt("totalRows", 2048));
  int ingest_reps = static_cast<int>(ctx.properties().GetInt("ingestReps", 5));
  int recovery_reps =
      static_cast<int>(ctx.properties().GetInt("recoveryReps", 5));
  double sf = ctx.properties().GetDouble("scaleFactor", 0.01);
  int workers = static_cast<int>(ctx.properties().GetInt("workers", 4));
  int requests = static_cast<int>(ctx.properties().GetInt("requests", 160));
  int resamples = static_cast<int>(ctx.properties().GetInt("resamples", 1000));
  uint64_t run_seed =
      static_cast<uint64_t>(ctx.properties().GetInt("runSeed", 42));
  std::vector<int> batch_sizes = {1, 4, 16, 64, 256};
  std::vector<int> recovery_commits = {64, 256, 1024};
  int group_commits_per_thread = 64;
  if (smoke) {
    total_rows = 256;
    ingest_reps = 2;
    recovery_reps = 2;
    sf = 0.005;
    requests = 48;
    resamples = 200;
    batch_sizes = {1, 16, 128};
    recovery_commits = {16, 64};
    group_commits_per_thread = 12;
  }
  if (recovery_reps < 1) {
    std::fprintf(stderr, "recoveryReps must be >= 1\n");
    return 2;
  }

  // --- Panel 1: ingest rate vs commit batch size.
  report::TextTable ingest_table;
  ingest_table.SetHeader({"batch rows", "commits", "rows/s (observed)",
                          "fsyncs/commit", "WAL bytes/row"});
  std::vector<IngestCell> ingest;
  core::Series ingest_series{"ingest rate", {}, {}, {}};
  for (int batch : batch_sizes) {
    int commits = total_rows / batch;
    std::vector<double> rates;
    db::StorageStats disk_stats;
    for (int r = 0; r < ingest_reps; ++r) {
      rates.push_back(IngestOnce(commits, batch, &disk_stats));
    }
    IngestCell cell;
    cell.batch_rows = batch;
    cell.rows_per_sec = stats::MeanConfidenceInterval(rates, kConfidence);
    cell.fsyncs_per_commit =
        static_cast<double>(disk_stats.fsyncs) / commits;
    cell.wal_bytes_per_row =
        static_cast<double>(disk_stats.bytes_written) / (commits * batch);
    ingest.push_back(cell);
    ingest_table.AddRow(
        {StrFormat("%d", batch), StrFormat("%d", commits),
         StrFormat("%.0f [%.0f,%.0f]", cell.rows_per_sec.mean,
                   cell.rows_per_sec.lower, cell.rows_per_sec.upper),
         StrFormat("%.2f", cell.fsyncs_per_commit),
         StrFormat("%.1f", cell.wal_bytes_per_row)});
    ingest_series.AppendWithError(batch, cell.rows_per_sec.mean,
                                  cell.rows_per_sec.HalfWidth());
  }
  std::printf("Ingest rate vs commit batch size (%d rows per rep, %d reps; "
              "observed clock = real + simulated write stall):\n%s\n",
              total_rows, ingest_reps, ingest_table.ToString().c_str());

  // --- Panel 1b: group commit — concurrent committers share fsyncs.
  report::TextTable group_table;
  group_table.SetHeader({"threads", "commits", "fsyncs", "fsyncs/commit"});
  struct GroupCell {
    int threads = 0;
    int64_t commits = 0;
    int64_t fsyncs = 0;
  };
  std::vector<GroupCell> group_cells;
  for (int threads : {1, 4}) {
    std::unique_ptr<db::Database> database = MakeIngestDb();
    txn::VirtualDisk disk;
    txn::DeltaStore store(database.get(), &disk);
    Require(store.Open(), "DeltaStore::Open");
    disk.ResetStats();
    std::vector<std::thread> committers;
    for (int t = 0; t < threads; ++t) {
      committers.emplace_back([&, t] {
        int64_t next_id = 1 + t * 1'000'000;
        for (int c = 0; c < group_commits_per_thread; ++c) {
          uint64_t txn = store.Begin();
          Require(store.BufferInsert(txn, "events", Batch(next_id, 4)),
                  "BufferInsert");
          Require(store.Commit(txn), "Commit");
          next_id += 4;
        }
      });
    }
    for (std::thread& t : committers) {
      t.join();
    }
    GroupCell cell;
    cell.threads = threads;
    cell.commits = static_cast<int64_t>(threads) * group_commits_per_thread;
    cell.fsyncs = disk.stats().fsyncs;
    group_cells.push_back(cell);
    group_table.AddRow(
        {StrFormat("%d", threads),
         StrFormat("%lld", static_cast<long long>(cell.commits)),
         StrFormat("%lld", static_cast<long long>(cell.fsyncs)),
         StrFormat("%.2f",
                   static_cast<double>(cell.fsyncs) / cell.commits)});
  }
  bool group_commit_shown = group_cells.back().fsyncs <
                            group_cells.back().commits;
  std::printf("Group commit (concurrent committers share the fsync):\n%s\n",
              group_table.ToString().c_str());

  // --- Panel 2: recovery time vs WAL length, plus the checkpoint bound.
  report::TextTable recovery_table;
  recovery_table.SetHeader({"commits", "checkpoint", "WAL bytes",
                            "records replayed",
                            "recovery ms [95% bootstrap CI] or (range)"});
  std::vector<RecoveryCell> recovery;
  core::Series recovery_series{"replay from WAL", {}, {}, {}};
  for (int commits : recovery_commits) {
    recovery.push_back(MeasureRecovery(commits, false, recovery_reps,
                                       run_seed * 31 + commits));
  }
  recovery.push_back(MeasureRecovery(recovery_commits.back(), true,
                                     recovery_reps, run_seed * 31 + 1));
  for (const RecoveryCell& cell : recovery) {
    recovery_table.AddRow(
        {StrFormat("%d", cell.commits), cell.checkpointed ? "yes" : "no",
         StrFormat("%zu", cell.wal_bytes),
         StrFormat("%llu", static_cast<unsigned long long>(
                               cell.records_replayed)),
         cell.recover_ms.ToString()});
    if (!cell.checkpointed) {
      // The chart shows the replay line only; the checkpointed cell is a
      // single point (WriteSeriesCsv wants equal-length series) and lives
      // in the table and the JSON instead. Below the sample floor there
      // is no interval to draw.
      recovery_series.AppendWithError(
          static_cast<double>(cell.commits), cell.recover_ms.mean,
          cell.recover_ms.has_ci ? cell.recover_ms.ci.HalfWidth() : 0.0);
    }
  }
  std::printf("Recovery time vs log length (%d reps per cell; the "
              "checkpointed cell replays only the post-checkpoint "
              "tail):\n%s\n",
              recovery_reps, recovery_table.ToString().c_str());

  // --- Panel 3: read latency quiet vs under concurrent ingest.
  db::Database database;
  workload::TpchGenerator gen(sf);
  gen.LoadAll(&database);
  txn::VirtualDisk disk;
  txn::DeltaStore store(&database, &disk);
  Require(store.Open(), "DeltaStore::Open");

  serve::ServiceOptions service_options;
  service_options.workers = workers;
  service_options.queue_capacity = static_cast<size_t>(requests) + 1;
  service_options.overload = serve::OverloadPolicy::kShed;
  service_options.fingerprint_results = false;
  serve::QueryService service(&database, service_options);

  serve::LoadOptions closed_options;
  closed_options.mode = serve::LoadMode::kClosed;
  closed_options.requests = requests;
  closed_options.clients = workers;
  closed_options.run_seed = run_seed;
  serve::LoadGenerator load(&service, closed_options);
  (void)load.Run();  // warm the buffer pool, unmeasured.
  serve::LoadResult quiet = load.Run();

  // Source rows cloned from lineitem so every ingest batch is
  // schema-valid without touching the store from the driver thread.
  std::vector<std::vector<db::Value>> proto;
  {
    std::shared_ptr<db::Table> lineitem = store.MergedTable("lineitem");
    size_t cols = lineitem->schema().num_columns();
    size_t rows = std::min<size_t>(lineitem->num_rows(), 64);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<db::Value> row;
      row.reserve(cols);
      for (size_t c = 0; c < cols; ++c) {
        row.push_back(lineitem->ValueAt(r, c));
      }
      proto.push_back(std::move(row));
    }
  }
  std::atomic<bool> stop{false};
  uint64_t ingest_commits = 0;
  const int ingest_batch = 8;
  std::thread ingester([&] {
    size_t next = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::vector<db::Value>> rows;
      rows.reserve(ingest_batch);
      for (int i = 0; i < ingest_batch; ++i) {
        rows.push_back(proto[(next + i) % proto.size()]);
      }
      next += ingest_batch;
      uint64_t txn = store.Begin();
      Require(store.BufferInsert(txn, "lineitem", std::move(rows)),
              "BufferInsert");
      Require(store.Commit(txn), "Commit");
      ++ingest_commits;
    }
  });
  core::WallTimer ingest_window;
  serve::LoadResult busy = load.Run();
  double window_s = ingest_window.ElapsedSeconds();
  stop.store(true, std::memory_order_relaxed);
  ingester.join();
  double ingest_rows_per_sec =
      static_cast<double>(ingest_commits) * ingest_batch / window_s;

  // Percentiles the sample cannot support print as "n/a (n=…)".
  bench::LatencyPercentile quiet_p50 = bench::SummarizePercentile(
      quiet.client_latency, 50.0, run_seed * 977, resamples);
  bench::LatencyPercentile quiet_p99 = bench::SummarizePercentile(
      quiet.client_latency, 99.0, run_seed * 977 + 1, resamples);
  bench::LatencyPercentile busy_p50 = bench::SummarizePercentile(
      busy.client_latency, 50.0, run_seed * 1979, resamples);
  bench::LatencyPercentile busy_p99 = bench::SummarizePercentile(
      busy.client_latency, 99.0, run_seed * 1979 + 1, resamples);
  report::TextTable read_table;
  read_table.SetHeader({"condition", "achieved qph", "p50 (ms)", "p99 (ms)"});
  read_table.AddRow({"quiet", StrFormat("%.0f", quiet.qph),
                     quiet_p50.ToString(/*with_ci=*/true),
                     quiet_p99.ToString(/*with_ci=*/true)});
  read_table.AddRow({"under ingest", StrFormat("%.0f", busy.qph),
                     busy_p50.ToString(/*with_ci=*/true),
                     busy_p99.ToString(/*with_ci=*/true)});
  std::printf(
      "Read latency: closed loop (%d clients, %d requests) on TPC-H sf "
      "%.3g, quiet vs under concurrent ingest (%.0f rows/s committed into "
      "lineitem during the measured window):\n%s\n",
      workers, requests, sf, ingest_rows_per_sec,
      read_table.ToString().c_str());
  Require(store.CheckIntegrity(), "CheckIntegrity after ingest");

  // --- Charts.
  report::ChartSpec ingest_chart;
  ingest_chart.title = "Ingest rate vs commit batch size";
  ingest_chart.x_label = "Rows per commit";
  ingest_chart.y_label = "Rows/s (observed clock)";
  ingest_chart.style = report::ChartStyle::kErrorBars;
  ingest_chart.series = {ingest_series};
  std::string ingest_stem = ctx.ResultPath("a9_ingest_rate");
  if (!report::WriteChart(ingest_chart, ingest_stem).ok() ||
      !report::WriteSvgChart(ingest_chart, ingest_stem).ok()) {
    std::fprintf(stderr, "cannot write charts at %s\n", ingest_stem.c_str());
    return 1;
  }
  ctx.AddOutput(ingest_stem + ".gnu");
  ctx.AddOutput(ingest_stem + ".svg");

  report::ChartSpec recovery_chart;
  recovery_chart.title = "Recovery time vs committed records";
  recovery_chart.x_label = "Commits in durable state";
  recovery_chart.y_label = "Open() time (ms)";
  recovery_chart.style = report::ChartStyle::kErrorBars;
  recovery_chart.series = {recovery_series};
  std::string recovery_stem = ctx.ResultPath("a9_recovery");
  if (!report::WriteChart(recovery_chart, recovery_stem).ok() ||
      !report::WriteSvgChart(recovery_chart, recovery_stem).ok()) {
    std::fprintf(stderr, "cannot write charts at %s\n",
                 recovery_stem.c_str());
    return 1;
  }
  ctx.AddOutput(recovery_stem + ".gnu");
  ctx.AddOutput(recovery_stem + ".svg");

  // --- Machine-readable results.
  std::string json = "{\n";
  json += "  \"experiment\": \"A9\",\n";
  json += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += StrFormat("  \"total_rows\": %d,\n", total_rows);
  json += StrFormat("  \"scale_factor\": %g,\n", sf);
  json += StrFormat("  \"workers\": %d,\n", workers);
  json += StrFormat("  \"requests\": %d,\n", requests);
  json += "  \"ingest\": [\n";
  for (size_t i = 0; i < ingest.size(); ++i) {
    const IngestCell& cell = ingest[i];
    json += StrFormat(
        "    {\"batch_rows\": %d, \"rows_per_sec\": %.1f, "
        "\"ci_lower\": %.1f, \"ci_upper\": %.1f, "
        "\"fsyncs_per_commit\": %.3f, \"wal_bytes_per_row\": %.2f}%s\n",
        cell.batch_rows, cell.rows_per_sec.mean, cell.rows_per_sec.lower,
        cell.rows_per_sec.upper, cell.fsyncs_per_commit,
        cell.wal_bytes_per_row, i + 1 < ingest.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"group_commit\": [\n";
  for (size_t i = 0; i < group_cells.size(); ++i) {
    const GroupCell& cell = group_cells[i];
    json += StrFormat(
        "    {\"threads\": %d, \"commits\": %lld, \"fsyncs\": %lld}%s\n",
        cell.threads, static_cast<long long>(cell.commits),
        static_cast<long long>(cell.fsyncs),
        i + 1 < group_cells.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"recovery\": [\n";
  for (size_t i = 0; i < recovery.size(); ++i) {
    const RecoveryCell& cell = recovery[i];
    const stats::MeanEstimate& ms = cell.recover_ms;
    // Below the sample floor the interval keys are null: the cell reports
    // its range and n only.
    std::string interval =
        ms.has_ci ? StrFormat("\"ci_lower_ms\": %.3f, \"ci_upper_ms\": %.3f",
                              ms.ci.lower, ms.ci.upper)
                  : "\"ci_lower_ms\": null, \"ci_upper_ms\": null";
    json += StrFormat(
        "    {\"commits\": %d, \"checkpointed\": %s, \"wal_bytes\": %zu, "
        "\"records_replayed\": %llu, \"n\": %zu, \"recover_ms\": %.3f, "
        "%s, \"min_ms\": %.3f, \"max_ms\": %.3f}%s\n",
        cell.commits, cell.checkpointed ? "true" : "false", cell.wal_bytes,
        static_cast<unsigned long long>(cell.records_replayed), ms.n, ms.mean,
        interval.c_str(), ms.min, ms.max, i + 1 < recovery.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"read_latency\": {\n";
  json += StrFormat("    \"ingest_rows_per_sec\": %.1f,\n",
                    ingest_rows_per_sec);
  json += StrFormat(
      "    \"quiet\": {\"qph\": %.0f, \"p50\": %s, \"p99\": %s},\n",
      quiet.qph, quiet_p50.ToJson().c_str(), quiet_p99.ToJson().c_str());
  json += StrFormat(
      "    \"under_ingest\": {\"qph\": %.0f, \"p50\": %s, \"p99\": %s}\n",
      busy.qph, busy_p50.ToJson().c_str(), busy_p99.ToJson().c_str());
  json += "  }\n";
  json += "}\n";

  std::string json_path = ctx.ResultPath("BENCH_write_path.json");
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  ctx.AddOutput(json_path);
  ctx.AddNote(group_commit_shown
                  ? "group commit amortized fsyncs across committers"
                  : "group commit NOT visible (fsyncs == commits)");
  ctx.Finish();
  return 0;
}
