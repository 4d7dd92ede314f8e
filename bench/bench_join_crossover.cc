// A2 — ablation: comparing alternatives the paper's way ("who wins, by
// what factor, and where is the crossover"). Three operator duels on the
// bundled engine:
//
//   1. Hash vs merge join over input size, for pre-sorted (clustered)
//      and random key orders: one join operator, run under the session's
//      hash algorithm (radix by default) and pinned to JoinAlgo::kMerge.
//      Merge join exploits sortedness and skips its sort; hash join is
//      oblivious to order.
//   2. TopN (partial sort, O(n log k)) vs Sort+Limit (O(n log n)) over
//      input size at fixed k.
//   3. Radix-partitioned join sweep: radix bits x worker threads against
//      the flat hash join at 1 thread, speedups reported with bootstrap
//      confidence intervals (Kalibera & Jones), and the hwsim cache-cost
//      dissection explaining the shape.
//
// Every point times the operators under test from the engine's own TRACE
// (slides 28-29), as the minimum (duels) or median (sweep) of hot runs;
// series are written as plot-ready CSV+gnuplot and the sweep as
// BENCH_join_crossover.json.
// `--smoke` shrinks every part to a seconds-long ctest-able pass.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <thread>

#include "bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/metrics.h"
#include "db/database.h"
#include "db/join.h"
#include "hwsim/join_model.h"
#include "report/gnuplot.h"
#include "report/table_format.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"

namespace perfeval {
namespace {

std::shared_ptr<db::Table> MakeKeyed(size_t rows, int64_t key_range,
                                     bool sorted, uint64_t seed) {
  Pcg32 rng(seed);
  auto table = std::make_shared<db::Table>(db::Schema(
      {{"k", db::DataType::kInt64}, {"v", db::DataType::kInt64}}));
  std::vector<int64_t> keys;
  keys.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    keys.push_back(rng.NextInRange(0, key_range));
  }
  if (sorted) {
    std::sort(keys.begin(), keys.end());
  }
  table->ReserveRows(rows);
  for (size_t i = 0; i < rows; ++i) {
    table->column(0).AppendInt64(keys[i]);
    table->column(1).AppendInt64(static_cast<int64_t>(i));
  }
  table->FinishBulkLoad();
  return table;
}

using OpPrefixes = std::initializer_list<const char*>;

/// Summed wall time of the operators under test (trace labels starting
/// with one of `ops`) from the query TRACE — the paper's "use timings
/// provided by the tested software", so a duel measures the operators it
/// compares, not scans and rendering around them. Trace times are self
/// times, so the sum counts no child twice.
double OpWallNs(const db::QueryResult& result, OpPrefixes ops) {
  double wall_ns = 0.0;
  bool found = false;
  for (const db::OpTrace& trace : result.profile.traces()) {
    for (const char* op : ops) {
      if (trace.op.rfind(op, 0) == 0) {
        wall_ns += static_cast<double>(trace.wall_ns);
        found = true;
      }
    }
  }
  PERFEVAL_CHECK(found) << "no traced operator to time";
  return wall_ns;
}

/// Hot samples (ns) of the `ops` operators' wall time under the
/// database's current algo/bits/threads settings, after one warm-up.
std::vector<double> OpSamples(db::Database& database,
                              const db::PlanPtr& plan, int runs,
                              OpPrefixes ops) {
  (void)database.Run(plan);  // warm-up.
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    samples.push_back(OpWallNs(database.Run(plan), ops));
  }
  return samples;
}

/// A duel cell: the minimum of 3 hot runs, in ms.
double MinOpMs(db::Database& database, const db::PlanPtr& plan,
               OpPrefixes ops) {
  return stats::Min(OpSamples(database, plan, 3, ops)) / 1e6;
}

std::string CiJson(const stats::ConfidenceInterval& ci) {
  return StrFormat("{\"mean\": %.4f, \"lower\": %.4f, \"upper\": %.4f}",
                   ci.mean, ci.lower, ci.upper);
}

}  // namespace
}  // namespace perfeval

int main(int argc, char** argv) {
  using namespace perfeval;  // NOLINT(build/namespaces) bench binary.
  bench::BenchContext ctx("A2",
                          "hot runs: 1 warm-up, minimum of 3 (duels) / "
                          "median of `runs` (radix sweep); wall time of the "
                          "operators under test from the query TRACE",
                          argc, argv);
  bool smoke = ctx.Smoke();
  ctx.properties().SetDefault("maxRows", smoke ? "16384" : "262144");
  ctx.properties().SetDefault("sweepProbeRows",
                              smoke ? "32768" : "1048576");
  ctx.properties().SetDefault("runs", smoke ? "3" : "5");
  ctx.properties().SetDefault("maxThreads", smoke ? "2" : "8");
  ctx.PrintHeader("operator crossovers: hash vs merge algorithm, topn vs "
                  "sort, radix bits x threads");
  if (smoke) {
    std::printf("[smoke mode: shrunk inputs, shortened sweep]\n\n");
  }

  size_t max_rows =
      static_cast<size_t>(ctx.properties().GetInt("maxRows", 262144));

  // ---- Part 1: join duel. ----
  report::TextTable join_table;
  join_table.SetHeader({"rows/side", "keys", "hash (ms)", "merge (ms)",
                        "winner", "factor"});
  core::Series hash_sorted{"hash, sorted keys", {}, {}, {}};
  core::Series merge_sorted{"merge, sorted keys", {}, {}, {}};
  core::Series hash_random{"hash, random keys", {}, {}, {}};
  core::Series merge_random{"merge, random keys", {}, {}, {}};

  for (size_t rows = 4096; rows <= max_rows; rows *= 4) {
    for (bool sorted : {true, false}) {
      db::Database database;
      // Unique-ish keys: range 4x the row count.
      int64_t range = static_cast<int64_t>(rows) * 4;
      database.RegisterTable("l", MakeKeyed(rows, range, sorted, 1));
      database.RegisterTable("r", MakeKeyed(rows, range, sorted, 2));
      db::PlanPtr l = db::Scan("l", database.GetTable("l").schema());
      db::PlanPtr r = db::Scan("r", database.GetTable("r").schema());
      db::PlanPtr hash = db::HashJoin(l, r, "k", "k");
      db::PlanPtr merge =
          db::HashJoinWith(l, r, {"k"}, {"k"}, db::JoinAlgo::kMerge);
      double hash_ms = MinOpMs(database, hash, {"HashJoin("});
      double merge_ms = MinOpMs(database, merge, {"HashJoin("});
      bool hash_wins = hash_ms < merge_ms;
      double factor = hash_wins ? merge_ms / hash_ms : hash_ms / merge_ms;
      join_table.AddRow({StrFormat("%zu", rows),
                         sorted ? "sorted" : "random",
                         StrFormat("%.2f", hash_ms),
                         StrFormat("%.2f", merge_ms),
                         hash_wins ? "hash" : "merge",
                         StrFormat("%.2fx", factor)});
      double x = static_cast<double>(rows);
      if (sorted) {
        hash_sorted.Append(x, hash_ms);
        merge_sorted.Append(x, merge_ms);
      } else {
        hash_random.Append(x, hash_ms);
        merge_random.Append(x, merge_ms);
      }
    }
  }
  std::printf("%s\n", join_table.ToString().c_str());
  std::printf(
      "expected shape: merge join wins on pre-sorted (clustered) keys — "
      "it skips its sort; the gap narrows or flips on random keys where "
      "merge pays two sorts.\n\n");

  report::ChartSpec join_chart;
  join_chart.title = "Join algorithm crossover";
  join_chart.x_label = "rows per side";
  join_chart.y_label = "join operator time (ms)";
  join_chart.logscale_x = true;
  join_chart.logscale_y = true;
  join_chart.series = {hash_sorted, merge_sorted, hash_random,
                       merge_random};
  std::string join_stem = ctx.ResultPath("a2_join_crossover");
  if (!report::WriteChart(join_chart, join_stem).ok()) {
    return 1;
  }
  ctx.AddOutput(join_stem + ".csv");

  // ---- Part 2: TopN vs Sort+Limit. ----
  report::TextTable top_table;
  top_table.SetHeader({"rows", "k", "sort+limit (ms)", "topn (ms)",
                       "speedup"});
  core::Series sort_series{"sort+limit", {}, {}, {}};
  core::Series topn_series{"topn", {}, {}, {}};
  const size_t k = 10;
  for (size_t rows = 16384; rows <= max_rows * 4; rows *= 4) {
    db::Database database;
    database.RegisterTable(
        "t", MakeKeyed(rows, static_cast<int64_t>(rows) * 100, false, 3));
    db::PlanPtr t = db::Scan("t", database.GetTable("t").schema());
    db::PlanPtr sorted_plan = db::Limit(db::Sort(t, {{"k", true}}), k);
    db::PlanPtr topn_plan = db::TopN(t, {{"k", true}}, k);
    double sort_ms = MinOpMs(database, sorted_plan, {"Sort", "Limit"});
    double topn_ms = MinOpMs(database, topn_plan, {"TopN"});
    top_table.AddRow({StrFormat("%zu", rows), StrFormat("%zu", k),
                      StrFormat("%.2f", sort_ms),
                      StrFormat("%.2f", topn_ms),
                      StrFormat("%.1fx", sort_ms / topn_ms)});
    sort_series.Append(static_cast<double>(rows), sort_ms);
    topn_series.Append(static_cast<double>(rows), topn_ms);
  }
  std::printf("%s\n", top_table.ToString().c_str());
  std::printf(
      "expected shape: the top-n operator wins everywhere and its factor "
      "grows with n (O(n log k) vs O(n log n) plus full materialization "
      "of the sorted table).\n\n");

  report::ChartSpec top_chart;
  top_chart.title = "Top-N vs full sort";
  top_chart.x_label = "rows";
  top_chart.y_label = "operator time (ms)";
  top_chart.logscale_x = true;
  top_chart.logscale_y = true;
  top_chart.series = {sort_series, topn_series};
  std::string top_stem = ctx.ResultPath("a2_topn");
  if (!report::WriteChart(top_chart, top_stem).ok()) {
    return 1;
  }
  ctx.AddOutput(top_stem + ".csv");

  // ---- Part 3: radix bits x threads sweep vs the flat hash join. ----
  size_t probe_rows = static_cast<size_t>(
      ctx.properties().GetInt("sweepProbeRows", 1048576));
  size_t build_rows = probe_rows / 4;
  int runs = static_cast<int>(ctx.properties().GetInt("runs", 5));
  int max_threads =
      static_cast<int>(ctx.properties().GetInt("maxThreads", 8));
  unsigned host_cores = std::thread::hardware_concurrency();
  int auto_bits = db::ChooseRadixBits(build_rows);

  db::Database database;
  int64_t range = static_cast<int64_t>(build_rows) * 2;
  database.RegisterTable("build",
                         MakeKeyed(build_rows, range, false, 11));
  database.RegisterTable("probe",
                         MakeKeyed(probe_rows, range, false, 12));
  db::PlanPtr sweep_plan = db::HashJoin(
      db::Scan("probe", database.GetTable("probe").schema()),
      db::Scan("build", database.GetTable("build").schema()), "k", "k");

  std::printf(
      "radix sweep: build %zu rows, probe %zu rows, %d measured runs, "
      "auto fan-out %d bits, %u hardware thread(s)\n\n",
      build_rows, probe_rows, runs, auto_bits, host_cores);

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) {
    thread_counts.push_back(t);
  }
  // -1 = flat (non-partitioned) hash; the rest are explicit fan-outs,
  // always including whatever ChooseRadixBits picked.
  std::vector<int> bit_settings = smoke
                                      ? std::vector<int>{auto_bits}
                                      : std::vector<int>{2, 4, 6, 8, 10, 12};
  if (std::find(bit_settings.begin(), bit_settings.end(), auto_bits) ==
      bit_settings.end()) {
    bit_settings.push_back(auto_bits);
    std::sort(bit_settings.begin(), bit_settings.end());
  }
  bit_settings.insert(bit_settings.begin(), -1);

  report::TextTable sweep_table;
  sweep_table.SetHeader({"algo", "bits", "threads", "join (ms)",
                         "speedup vs hash@1t", "95% CI"});
  std::string sweep_json;
  // Baseline: the flat hash join at 1 thread, the sweep's first cell.
  std::vector<double> hash_t1;
  std::vector<double> radix_auto_t1;
  std::vector<double> radix_auto_tmax;
  uint64_t ci_seed = 1;
  bool first_entry = true;
  for (int bits : bit_settings) {
    bool flat = bits < 0;
    for (int threads : thread_counts) {
      // The flat table has no partition stage: threads only parallelize
      // key extraction and probing, so sweeping it at every thread count
      // still isolates the partitioning effect.
      database.set_threads(threads);
      database.set_join_algo(flat ? db::JoinAlgo::kHash
                                  : db::JoinAlgo::kRadix);
      database.set_radix_bits(flat ? 0 : bits);
      std::vector<double> samples =
          OpSamples(database, sweep_plan, runs, {"HashJoin("});
      if (flat && threads == 1) {
        hash_t1 = samples;
      }
      stats::ConfidenceInterval speedup =
          stats::BootstrapRatioCI(hash_t1, samples, 0.95, ci_seed++);
      if (!flat && bits == auto_bits) {
        if (threads == 1) {
          radix_auto_t1 = samples;
        }
        if (threads == max_threads) {
          radix_auto_tmax = samples;
        }
      }
      double median = stats::Median(samples);
      sweep_table.AddRow(
          {flat ? "hash (flat)" : "radix",
           flat ? "-" : StrFormat("%d%s", bits,
                                  bits == auto_bits ? " (auto)" : ""),
           std::to_string(threads), StrFormat("%.2f", median / 1e6),
           StrFormat("%.2fx", speedup.mean),
           StrFormat("[%.2f, %.2f]", speedup.lower, speedup.upper)});
      sweep_json += StrFormat(
          "    %s{\"algo\": \"%s\", \"radix_bits\": %d, \"threads\": %d, "
          "\"median_join_ns\": %.0f, \"speedup_vs_hash\": %s}",
          first_entry ? "" : ",\n", flat ? "hash" : "radix",
          flat ? 0 : bits, threads, median, CiJson(speedup).c_str());
      first_entry = false;
    }
  }
  database.set_threads(1);
  database.set_join_algo(db::JoinAlgo::kRadix);
  database.set_radix_bits(0);
  std::printf("%s\n", sweep_table.ToString().c_str());

  stats::ConfidenceInterval algo_speedup = stats::BootstrapRatioCI(
      hash_t1, radix_auto_t1, 0.95, 1001);
  stats::ConfidenceInterval self_speedup = stats::BootstrapRatioCI(
      radix_auto_t1, radix_auto_tmax, 0.95, 1002);
  std::printf(
      "radix(auto) vs hash at 1 thread: %.2fx [%.2f, %.2f]\n"
      "radix(auto) self-speedup at %d threads: %.2fx [%.2f, %.2f]\n"
      "(parallel speedup above 1x needs spare physical cores; this host "
      "has %u)\n\n",
      algo_speedup.mean, algo_speedup.lower, algo_speedup.upper,
      max_threads, self_speedup.mean, self_speedup.lower,
      self_speedup.upper, host_cores);

  // ---- hwsim dissection: why the sweep has this shape. ----
  // Simulated per-pass CPU/memory split on the reference profile whose L2
  // sizes ChooseRadixBits (DESIGN.md §4): partitioning pays a sequential
  // pass to shrink the random working set of build+probe.
  const hwsim::MachineProfile& machine =
      hwsim::MachineByName("Sun Ultra");
  hwsim::JoinSpec spec;
  spec.build_rows = smoke ? (1 << 13) : (1 << 17);
  spec.probe_rows = smoke ? (1 << 15) : (1 << 19);
  std::vector<int> model_bits =
      smoke ? std::vector<int>{0, 4} : std::vector<int>{0, 2, 4, 6, 8, 10};

  report::TextTable model_table;
  model_table.SetHeader({"bits", "partition (ns/t)", "build (ns/t)",
                         "probe (ns/t)", "total (ms)", "memory share"});
  std::string model_json;
  for (size_t bi = 0; bi < model_bits.size(); ++bi) {
    spec.radix_bits = model_bits[bi];
    hwsim::JoinCostResult cost = hwsim::SimulateRadixJoin(machine, spec);
    double partition_ns = 0.0;
    double build_ns = 0.0;
    double probe_ns = 0.0;
    std::string passes_json;
    for (size_t pi = 0; pi < cost.passes.size(); ++pi) {
      const hwsim::JoinPassCost& pass = cost.passes[pi];
      if (pass.pass == "partition") {
        partition_ns = pass.TotalNsPerTuple();
      } else if (pass.pass == "build") {
        build_ns = pass.TotalNsPerTuple();
      } else {
        probe_ns = pass.TotalNsPerTuple();
      }
      passes_json += StrFormat(
          "%s{\"pass\": \"%s\", \"tuples\": %lld, "
          "\"cpu_ns_per_tuple\": %.2f, \"mem_ns_per_tuple\": %.2f}",
          pi == 0 ? "" : ", ", pass.pass.c_str(),
          static_cast<long long>(pass.tuples), pass.cpu_ns_per_tuple,
          pass.mem_ns_per_tuple);
    }
    model_table.AddRow({std::to_string(cost.radix_bits),
                        cost.radix_bits == 0 ? "-"
                                             : StrFormat("%.1f", partition_ns),
                        StrFormat("%.1f", build_ns),
                        StrFormat("%.1f", probe_ns),
                        StrFormat("%.2f", cost.TotalNs() / 1e6),
                        StrFormat("%.2f", cost.MemoryShare())});
    model_json += StrFormat(
        "    %s{\"radix_bits\": %d, \"total_ns\": %.0f, "
        "\"memory_share\": %.3f, \"passes\": [%s]}",
        bi == 0 ? "" : ",\n", cost.radix_bits, cost.TotalNs(),
        cost.MemoryShare(), passes_json.c_str());
  }
  std::printf("hwsim dissection (%s, %d): simulated join cost per tuple\n%s\n",
              machine.system.c_str(), machine.year,
              model_table.ToString().c_str());
  std::printf(
      "expected shape: moderate fan-out moves build+probe time from "
      "memory to cache for one extra (prefetched) sequential pass; "
      "excessive fan-out exceeds prefetcher stream capacity and cache "
      "sets, so the partition pass itself turns memory-bound.\n");

  std::string json = "{\n";
  json += "  \"experiment\": \"A2\",\n";
  json += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += StrFormat("  \"build_rows\": %zu,\n", build_rows);
  json += StrFormat("  \"probe_rows\": %zu,\n", probe_rows);
  json += StrFormat("  \"runs\": %d,\n", runs);
  json += StrFormat("  \"hardware_threads\": %u,\n", host_cores);
  json += StrFormat("  \"auto_radix_bits\": %d,\n", auto_bits);
  json += StrFormat("  \"hash_median_join_ns\": %.0f,\n",
                    stats::Median(hash_t1));
  json += "  \"sweep\": [\n" + sweep_json + "\n  ],\n";
  json += StrFormat("  \"radix_auto_speedup_vs_hash_1thread\": %s,\n",
                    CiJson(algo_speedup).c_str());
  json += StrFormat("  \"radix_auto_self_speedup_at_%d_threads\": %s,\n",
                    max_threads, CiJson(self_speedup).c_str());
  json += StrFormat("  \"hwsim_system\": \"%s\",\n", machine.system.c_str());
  json += "  \"hwsim_dissection\": [\n" + model_json + "\n  ]\n";
  json += "}\n";

  std::string json_path = ctx.ResultPath("BENCH_join_crossover.json");
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  ctx.AddOutput(json_path);
  ctx.AddNote(StrFormat(
      "radix(auto,1t) vs hash(1t) %.2fx [%.2f, %.2f]; self-speedup at %d "
      "threads %.2fx on %u-core host",
      algo_speedup.mean, algo_speedup.lower, algo_speedup.upper,
      max_threads, self_speedup.mean, host_cores));
  ctx.Finish();
  return 0;
}
