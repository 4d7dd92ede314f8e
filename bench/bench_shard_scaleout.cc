// A10 — scale-out serving across a hash-partitioned shard cluster
// (DESIGN.md S16): throughput–latency curves vs shard count, shard-count
// speedup with bootstrap ratio CIs, and the tail-amplification effect
// scatter-gather inherits from waiting on the slowest shard — measured
// clean and with an injected straggler.
//
// Protocol:
//  1. For each shard count N in {1, 2, 4, 8}: build an N-shard cluster
//     behind a front-end QueryService and run the shared offered-load
//     sweep (load_sweep.h — identical machinery to A8, so A8-vs-A10
//     differences are system differences): closed-loop capacity
//     calibration, then an open-loop Poisson sweep at fractions of
//     capacity. Speedup vs N=1 is reported as a bootstrap ratio CI over
//     the per-request closed-loop latencies (Kalibera & Jones: report
//     measured speedups with resampled intervals, not point ratios).
//     The threads executing fragments are N x shard workers plus the
//     front-end workers, which claim the fragments they wait on; the
//     header and JSON name them, since the 1-shard baseline includes the
//     front-end workers too.
//  2. Tail amplification: the coordinator's latency is max-over-shards,
//     so with per-shard latency CDF F the coordinator sees F^N — the p99
//     of the max sits at roughly the per-shard p(0.99^(1/N)) quantile.
//     Measured directly: per-repetition per-shard server times pooled
//     into one histogram vs the per-repetition max, p99 against p99.
//  3. Straggler injection: one shard of the 4-shard cluster gets the
//     spinning-disk DiskModel (the rest keep the default) plus a nonzero
//     serve realize_stall_scale, and every repetition runs cold — the
//     amplification table gains a cell where the max is pinned to the
//     slow shard, with the slowest-shard attribution share proving it.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "db/database.h"
#include "load_sweep.h"
#include "report/gnuplot.h"
#include "report/svg.h"
#include "report/table_format.h"
#include "serve/latency.h"
#include "serve/service.h"
#include "shard/cluster.h"
#include "shard/frontend.h"
#include "stats/bootstrap.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace {

const int kShardCounts[] = {1, 2, 4, 8};
constexpr double kConfidence = 0.95;

struct ScaleoutCell {
  int shards = 0;
  double capacity_qps = 0.0;
  stats::ConfidenceInterval speedup;  ///< vs the 1-shard cluster.
  std::vector<bench::LoadCell> sweep;
  core::Series p50_series;
  core::Series p99_series;
  /// Per-request closed-loop client latencies (ms), the ratio-CI samples.
  std::vector<double> closed_latencies_ms;
};

struct TailCell {
  int shards = 0;
  bool straggler = false;
  double per_shard_p99_ms = 0.0;   ///< pooled over shards x repetitions.
  double max_p99_ms = 0.0;         ///< p99 of per-repetition max.
  double amplification = 0.0;      ///< max p99 / pooled per-shard p99.
  int slow_shard = -1;             ///< straggler cells: the injected shard.
  double slow_shard_share = 0.0;   ///< fraction of reps it was slowest.
};

std::unique_ptr<shard::ShardCluster> MakeCluster(
    int num_shards, double sf, int shard_workers,
    const std::map<int, db::DiskModel>& disk_override,
    double realize_stall_scale) {
  shard::ShardClusterOptions options;
  options.num_shards = num_shards;
  options.shard_service.workers = shard_workers;
  options.shard_service.fingerprint_results = false;
  options.shard_service.queue_capacity = 4096;
  options.shard_service.realize_stall_scale = realize_stall_scale;
  options.shard_disk_override = disk_override;
  auto cluster = std::make_unique<shard::ShardCluster>(options);
  workload::TpchGenerator gen(sf);
  cluster->LoadTpch(&gen);
  return cluster;
}

/// Runs `reps` scatter-gather executions and summarizes the per-shard vs
/// max-over-shards server-time tails. `cold` flushes all caches before
/// every repetition so the DiskModel's stall is charged each time (the
/// straggler cell needs the slow disk visible every run).
TailCell MeasureTail(shard::ShardCluster* cluster, const db::PlanPtr& plan,
                     int reps, bool cold) {
  TailCell cell;
  cell.shards = cluster->num_shards();
  serve::LatencyHistogram per_shard;
  serve::LatencyHistogram max_over_shards;
  std::map<int, int> slowest_counts;
  for (int r = 0; r < reps; ++r) {
    if (cold) {
      cluster->FlushCaches();
    }
    shard::ShardedResult result = cluster->Execute(plan);
    int64_t max_ns = 0;
    for (const shard::ShardExecution& exec : result.shards) {
      per_shard.Record(exec.timing.TotalNs());
      max_ns = std::max(max_ns, exec.timing.TotalNs());
    }
    max_over_shards.Record(max_ns);
    ++slowest_counts[result.slowest_shard];
  }
  cell.per_shard_p99_ms = per_shard.ValueAtPercentile(99.0) / 1e6;
  cell.max_p99_ms = max_over_shards.ValueAtPercentile(99.0) / 1e6;
  cell.amplification = cell.per_shard_p99_ms > 0.0
                           ? cell.max_p99_ms / cell.per_shard_p99_ms
                           : 0.0;
  int best_shard = -1;
  int best_count = -1;
  for (const auto& [shard_id, count] : slowest_counts) {
    if (count > best_count) {
      best_count = count;
      best_shard = shard_id;
    }
  }
  cell.slow_shard = best_shard;
  cell.slow_shard_share =
      reps > 0 ? static_cast<double>(best_count) / reps : 0.0;
  return cell;
}

std::string TailCellJson(const TailCell& cell) {
  return StrFormat(
      "{\"shards\": %d, \"straggler\": %s, \"per_shard_p99_ms\": %.4f, "
      "\"max_over_shards_p99_ms\": %.4f, \"amplification\": %.3f, "
      "\"slowest_shard\": %d, \"slowest_shard_share\": %.3f}",
      cell.shards, cell.straggler ? "true" : "false", cell.per_shard_p99_ms,
      cell.max_p99_ms, cell.amplification, cell.slow_shard,
      cell.slow_shard_share);
}

}  // namespace
}  // namespace perfeval

int main(int argc, char** argv) {
  using namespace perfeval;  // NOLINT(build/namespaces) bench binary.
  bench::BenchContext ctx(
      "A10",
      "per shard count: closed-loop capacity calibration + open-loop "
      "Poisson sweep through the sharded front-end (shared A8 machinery); "
      "speedup vs 1 shard as bootstrap ratio CIs; tail amplification "
      "(p99 of max-over-shards vs pooled per-shard p99), clean and with "
      "an injected slow-disk straggler",
      argc, argv);
  ctx.properties().SetDefault("scaleFactor", "0.01");
  ctx.properties().SetDefault("requests", "240");
  ctx.properties().SetDefault("tailReps", "60");
  ctx.properties().SetDefault("shardWorkers", "2");
  ctx.properties().SetDefault("frontWorkers", "4");
  ctx.properties().SetDefault("resamples", "1000");
  ctx.properties().SetDefault("runSeed", "42");
  if (ctx.Smoke()) {
    ctx.properties().SetDefault("smokeNote", "true");
  }
  ctx.PrintHeader("scale-out serving across a shard cluster (A10)");

  bool smoke = ctx.Smoke();
  double sf = ctx.properties().GetDouble("scaleFactor", 0.01);
  int requests = static_cast<int>(ctx.properties().GetInt("requests", 240));
  int tail_reps = static_cast<int>(ctx.properties().GetInt("tailReps", 60));
  int shard_workers =
      static_cast<int>(ctx.properties().GetInt("shardWorkers", 2));
  int front_workers =
      static_cast<int>(ctx.properties().GetInt("frontWorkers", 4));
  int resamples =
      static_cast<int>(ctx.properties().GetInt("resamples", 1000));
  uint64_t run_seed =
      static_cast<uint64_t>(ctx.properties().GetInt("runSeed", 42));
  if (smoke) {
    sf = 0.005;
    requests = 48;
    tail_reps = 12;
    resamples = 200;
  }
  // A mix of scan-heavy and join-heavy queries that all decompose into
  // shard fragments (Q1/Q6: split aggregates; Q3/Q12: co-partitioned
  // joins under split aggregates).
  const std::vector<int> query_mix = {1, 3, 6, 12};

  // A front-end worker waiting on a fragment claims and runs it itself
  // (claim-on-wait), so the front-end workers execute fragments too.
  auto executing_threads = [&](int num_shards) {
    return num_shards * shard_workers + front_workers;
  };
  std::printf(
      "TPC-H sf %.3g, shard counts {1,2,4,8}, %d requests per cell, query "
      "mix Q1/Q3/Q6/Q12\n"
      "threads executing fragments: N x %d shard workers + %d front-end "
      "workers that claim fragments; the 1-shard baseline includes the "
      "front-end workers (%d threads)\n\n",
      sf, requests, shard_workers, front_workers, executing_threads(1));

  // --- Part 1: throughput–latency sweep per shard count.
  std::vector<ScaleoutCell> scaleout;
  for (int num_shards : kShardCounts) {
    auto cluster = MakeCluster(num_shards, sf, shard_workers, {}, 0.0);
    serve::ServiceOptions front_options;
    front_options.workers = front_workers;
    front_options.queue_capacity = static_cast<size_t>(requests) + 1;
    front_options.overload = serve::OverloadPolicy::kShed;
    front_options.fingerprint_results = false;
    shard::FrontEnd frontend(cluster.get(), front_options);

    bench::LoadSweepOptions sweep_options;
    sweep_options.requests = requests;
    sweep_options.capacity_clients = front_workers;
    sweep_options.fractions = smoke ? std::vector<double>{1.0}
                                    : std::vector<double>{0.5, 0.85, 1.0};
    sweep_options.run_seed = run_seed + static_cast<uint64_t>(num_shards);
    sweep_options.resamples = resamples;
    sweep_options.query_mix = query_mix;
    bench::LoadSweepResult sweep =
        bench::RunLoadSweep(&frontend.service(), sweep_options);

    ScaleoutCell cell;
    cell.shards = num_shards;
    cell.capacity_qps = sweep.capacity_qps;
    cell.sweep = sweep.cells;
    cell.p50_series = sweep.p50_series;
    cell.p50_series.name = StrFormat("p50 N=%d", num_shards);
    cell.p99_series = sweep.p99_series;
    cell.p99_series.name = StrFormat("p99 N=%d", num_shards);
    for (double v : sweep.closed_run.client_latency.RepresentativeValues()) {
      cell.closed_latencies_ms.push_back(v / 1e6);
    }
    scaleout.push_back(std::move(cell));
    frontend.Shutdown();
  }
  // Speedup vs 1 shard: ratio of mean closed-loop latencies (same client
  // population and mix on both sides, so the latency ratio is the
  // capacity ratio), bootstrap-resampled.
  for (size_t i = 0; i < scaleout.size(); ++i) {
    scaleout[i].speedup = stats::BootstrapRatioCI(
        scaleout[0].closed_latencies_ms, scaleout[i].closed_latencies_ms,
        kConfidence, run_seed * 31 + static_cast<uint64_t>(i));
  }

  report::TextTable scale_table;
  scale_table.SetHeader({"shards", "exec threads", "capacity q/s",
                         "speedup vs 1", "p99 @ full load (ms)"});
  for (const ScaleoutCell& cell : scaleout) {
    const bench::LoadCell& full = cell.sweep.back();
    scale_table.AddRow(
        {StrFormat("%d", cell.shards),
         StrFormat("%d", executing_threads(cell.shards)),
         StrFormat("%.1f", cell.capacity_qps),
         StrFormat("%.2fx [%.2f,%.2f]", cell.speedup.mean, cell.speedup.lower,
                   cell.speedup.upper),
         full.percentiles[2].ToString(/*with_ci=*/true)});
  }
  std::printf("Scale-out sweep (open loop through the front-end):\n%s\n",
              scale_table.ToString().c_str());

  // --- Part 2: tail amplification, clean then with a straggler.
  std::vector<TailCell> tails;
  {
    db::PlanPtr probe;
    for (int num_shards : kShardCounts) {
      auto cluster = MakeCluster(num_shards, sf, shard_workers, {}, 0.0);
      if (probe == nullptr) {
        probe = workload::GetTpchQuery(6).Build(cluster->shard_db(0));
      }
      cluster->Execute(probe);  // warm every shard pool, unmeasured.
      tails.push_back(MeasureTail(cluster.get(), probe, tail_reps,
                                  /*cold=*/false));
    }
    // Straggler: shard 2 of 4 gets the spinning-rust model (the default
    // DiskModel; the others run SSD-class), its stall partially realized
    // as wall time, and every repetition runs cold so the model is
    // charged each time.
    std::map<int, db::DiskModel> override_map;
    for (int s = 0; s < 4; ++s) {
      override_map[s] = db::DiskModel::Ssd();
    }
    override_map[2] = db::DiskModel{};
    auto straggler_cluster =
        MakeCluster(4, sf, shard_workers, override_map,
                    /*realize_stall_scale=*/smoke ? 0.0 : 0.001);
    TailCell straggler =
        MeasureTail(straggler_cluster.get(), probe, tail_reps, /*cold=*/true);
    straggler.straggler = true;
    tails.push_back(straggler);
  }

  report::TextTable tail_table;
  tail_table.SetHeader({"shards", "cell", "per-shard p99 (ms)",
                        "max-over-shards p99 (ms)", "amplification",
                        "slowest shard (share)"});
  for (const TailCell& cell : tails) {
    tail_table.AddRow(
        {StrFormat("%d", cell.shards),
         cell.straggler ? "straggler (slow disk on shard 2)" : "clean",
         StrFormat("%.3f", cell.per_shard_p99_ms),
         StrFormat("%.3f", cell.max_p99_ms),
         StrFormat("%.2fx", cell.amplification),
         StrFormat("%d (%.0f%%)", cell.slow_shard,
                   cell.slow_shard_share * 100.0)});
  }
  std::printf(
      "Tail amplification (server-side, Q6; the coordinator waits for "
      "max-over-shards, so per-shard CDF F becomes F^N — the p99 of the "
      "max sits near the per-shard p(0.99^(1/N)) quantile):\n%s\n",
      tail_table.ToString().c_str());
  const TailCell& straggler_cell = tails.back();
  std::printf(
      "straggler cell: shard %d slowest in %.0f%% of repetitions — one "
      "slow disk pins the whole cluster's tail to itself.\n\n",
      straggler_cell.slow_shard, straggler_cell.slow_shard_share * 100.0);

  // --- Charts: p50 and p99 vs offered load, one curve each per shard
  // count, where the cells support the percentile.
  report::ChartSpec chart;
  chart.title = "Sharded front-end latency vs offered load";
  chart.x_label = "Offered load (queries/s)";
  chart.y_label = "Client latency (ms)";
  chart.style = report::ChartStyle::kErrorBars;
  std::vector<core::Series> p50_curves;
  std::vector<core::Series> p99_curves;
  for (const ScaleoutCell& cell : scaleout) {
    p50_curves.push_back(cell.p50_series);
    p99_curves.push_back(cell.p99_series);
  }
  bench::AddPercentileCurves("p50", p50_curves, &chart);
  bench::AddPercentileCurves("p99", p99_curves, &chart);
  std::string stem = ctx.ResultPath("a10_shard_scaleout");
  if (!report::WriteChart(chart, stem).ok() ||
      !report::WriteSvgChart(chart, stem).ok()) {
    std::fprintf(stderr, "cannot write charts at %s\n", stem.c_str());
    return 1;
  }
  ctx.AddOutput(stem + ".gnu");
  ctx.AddOutput(stem + ".svg");

  // --- Machine-readable results.
  std::string json = "{\n";
  json += "  \"experiment\": \"A10\",\n";
  json += StrFormat("  \"scale_factor\": %g,\n", sf);
  json += StrFormat("  \"requests_per_cell\": %d,\n", requests);
  json += StrFormat("  \"tail_reps\": %d,\n", tail_reps);
  json += StrFormat("  \"shard_workers\": %d,\n", shard_workers);
  json += StrFormat("  \"front_workers\": %d,\n", front_workers);
  json += "  \"executing_threads\": \"shards x shard_workers + "
          "front_workers: front-end workers claim fragments, and the "
          "1-shard baseline includes them\",\n";
  json += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += "  \"query_mix\": [1, 3, 6, 12],\n";
  json += "  \"scaleout\": [\n";
  for (size_t i = 0; i < scaleout.size(); ++i) {
    const ScaleoutCell& cell = scaleout[i];
    json += StrFormat(
        "    {\"shards\": %d, \"executing_threads\": %d, "
        "\"capacity_qps\": %.2f, "
        "\"speedup_vs_1\": {\"mean\": %.3f, \"ci_lower\": %.3f, "
        "\"ci_upper\": %.3f, \"confidence\": %.2f},\n",
        cell.shards, executing_threads(cell.shards), cell.capacity_qps,
        cell.speedup.mean, cell.speedup.lower, cell.speedup.upper,
        kConfidence);
    json += "     \"sweep\": " + bench::SweepJson(cell.sweep, 5) + "}";
    json += (i + 1 < scaleout.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"tail_amplification\": [\n";
  for (size_t i = 0; i < tails.size(); ++i) {
    json += "    " + TailCellJson(tails[i]) +
            (i + 1 < tails.size() ? ",\n" : "\n");
  }
  json += "  ]\n";
  json += "}\n";

  std::string json_path = ctx.ResultPath("BENCH_shard_scaleout.json");
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  ctx.AddOutput(json_path);
  ctx.AddNote(StrFormat(
      "straggler pins the tail: shard %d slowest in %.0f%% of reps",
      straggler_cell.slow_shard, straggler_cell.slow_shard_share * 100.0));
  ctx.Finish();
  return 0;
}
