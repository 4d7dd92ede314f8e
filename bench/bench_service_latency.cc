// A8 — throughput–latency curves for the concurrent query service, and
// the closed-vs-open-loop comparison the load-generation literature
// insists on (Schroeder et al.; paper slides 22–35: report server and
// client time separately, and report distributions, not means).
//
// Protocol (the sweep itself lives in load_sweep.h, shared with A10's
// sharded front-end): a closed-loop calibration run (one client per
// worker, no think time) measures the service's capacity; the sweep then
// offers open-loop Poisson load at fractions of that capacity and reports
// client-observed percentiles with bootstrap CIs. The comparison cell
// re-runs closed- and open-loop at the *same* offered load: the closed
// driver stops issuing while the service is busy (coordinated omission),
// so its tail under-reports the latency an independent arrival process
// actually experiences — open-loop p99 exceeding closed-loop p99 at equal
// offered load is that effect, measured.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "db/database.h"
#include "load_sweep.h"
#include "report/table_format.h"
#include "serve/loadgen.h"
#include "serve/service.h"
#include "workload/tpch_gen.h"

int main(int argc, char** argv) {
  using namespace perfeval;  // NOLINT(build/namespaces) bench binary.
  bench::BenchContext ctx(
      "A8",
      "closed-loop calibration, then open-loop Poisson sweep at fractions "
      "of capacity; percentiles with bootstrap CIs; closed-vs-open "
      "comparison at equal offered load",
      argc, argv);
  ctx.properties().SetDefault("scaleFactor", "0.01");
  ctx.properties().SetDefault("workers", "4");
  ctx.properties().SetDefault("requests", "400");
  ctx.properties().SetDefault("resamples", "1000");
  ctx.properties().SetDefault("runSeed", "42");
  if (ctx.Smoke()) {
    ctx.properties().SetDefault("smokeNote", "true");
  }
  ctx.PrintHeader("service latency under open/closed-loop load (A8)");

  bool smoke = ctx.Smoke();
  double sf = ctx.properties().GetDouble("scaleFactor", 0.01);
  int workers = static_cast<int>(ctx.properties().GetInt("workers", 4));
  int requests = static_cast<int>(ctx.properties().GetInt("requests", 400));
  int resamples =
      static_cast<int>(ctx.properties().GetInt("resamples", 1000));
  uint64_t run_seed =
      static_cast<uint64_t>(ctx.properties().GetInt("runSeed", 42));
  if (smoke) {
    sf = 0.005;
    requests = 80;
    resamples = 200;
  }

  db::Database database;
  workload::TpchGenerator gen(sf);
  gen.LoadAll(&database);

  serve::ServiceOptions service_options;
  service_options.workers = workers;
  // The sweep measures queueing, so the queue must be able to hold the
  // whole backlog of a saturated run: admission control is a different
  // experiment (serve_test covers the policies).
  service_options.queue_capacity = static_cast<size_t>(requests) + 1;
  service_options.overload = serve::OverloadPolicy::kShed;
  service_options.fingerprint_results = false;
  serve::QueryService service(&database, service_options);

  std::printf("TPC-H sf %.3g, %d service workers, %d requests per cell\n\n",
              sf, workers, requests);

  // --- Calibration + open-loop offered-load sweep (shared machinery).
  bench::LoadSweepOptions sweep_options;
  sweep_options.requests = requests;
  sweep_options.capacity_clients = workers;
  sweep_options.fractions = smoke ? std::vector<double>{0.5, 1.0}
                                  : std::vector<double>{0.3, 0.5, 0.7,
                                                        0.85, 1.0};
  sweep_options.run_seed = run_seed;
  sweep_options.resamples = resamples;
  bench::LoadSweepResult sweep = bench::RunLoadSweep(&service, sweep_options);
  std::printf(
      "capacity (closed loop, %d clients, zero think): %.1f q/s "
      "(%.0f qph)\n\n",
      workers, sweep.capacity_qps, sweep.closed_run.qph);
  std::printf("Open-loop offered-load sweep (client-observed latency, "
              "charged from intended arrival):\n%s\n",
              bench::SweepTable(sweep.cells).ToString().c_str());

  // --- Coordinated omission: closed vs open at the same offered load.
  // A closed driver with zero think time offers exactly what it achieves,
  // so the open-loop cell below offers the same load the closed cell
  // sustained — the only difference is whether arrivals wait for the
  // service (closed) or for nobody (open).
  bench::LoadCell closed_cell = sweep.closed_cell;
  serve::LoadOptions matched_options;
  matched_options.mode = serve::LoadMode::kOpen;
  matched_options.requests = requests;
  matched_options.offered_qps = sweep.capacity_qps;
  matched_options.run_seed = run_seed + 101;
  serve::LoadGenerator matched_gen(&service, matched_options);
  serve::LoadResult matched_run = matched_gen.Run();
  bench::LoadCell open_cell = bench::SummarizeLoadRun(
      sweep.capacity_qps, matched_run, run_seed * 2791, resamples);

  report::TextTable cmp_table;
  cmp_table.SetHeader({"driver", "offered q/s", "achieved qph", "p50 (ms)",
                       "p90 (ms)", "p99 (ms)", "p99.9 (ms)"});
  for (const auto& [name, cell] :
       {std::pair<const char*, const bench::LoadCell&>{"closed",
                                                       closed_cell},
        std::pair<const char*, const bench::LoadCell&>{"open", open_cell}}) {
    cmp_table.AddRow({name, StrFormat("%.1f", cell.offered_qps),
                      StrFormat("%.0f", cell.achieved_qph),
                      cell.percentiles[0].ToString(/*with_ci=*/false),
                      cell.percentiles[1].ToString(/*with_ci=*/false),
                      cell.percentiles[2].ToString(/*with_ci=*/true),
                      cell.percentiles[3].ToString(/*with_ci=*/false)});
  }
  // The verdict compares the furthest-out percentile both samples support.
  int tail = 0;
  for (int i = 0; i < bench::kSweepNumPercentiles; ++i) {
    if (open_cell.percentiles[i].supported &&
        closed_cell.percentiles[i].supported) {
      tail = i;
    }
  }
  const char* tail_name = bench::kSweepPercentileNames[tail];
  bool omission_shown =
      open_cell.percentiles[tail].ms > closed_cell.percentiles[tail].ms;
  std::printf("Closed vs open loop at equal offered load:\n%s\n",
              cmp_table.ToString().c_str());
  std::printf(
      "open-loop %s %s closed-loop %s (%.2f vs %.2f ms): a closed driver "
      "stops offering load while it waits, so queueing delay the arrival "
      "process would have seen is simply never measured — coordinated "
      "omission %s.\n\n",
      tail_name, omission_shown ? "exceeds" : "does NOT exceed", tail_name,
      open_cell.percentiles[tail].ms, closed_cell.percentiles[tail].ms,
      omission_shown ? "demonstrated" : "not visible in this run");

  // --- Charts: throughput–latency curve with CI error bars.
  std::string stem = ctx.ResultPath("a8_service_latency");
  if (!bench::WriteThroughputLatencyChart(
           sweep, "Service latency vs offered load (open loop)", stem)
           .ok()) {
    std::fprintf(stderr, "cannot write charts at %s\n", stem.c_str());
    return 1;
  }
  ctx.AddOutput(stem + ".gnu");
  ctx.AddOutput(stem + ".svg");

  // --- Machine-readable results.
  std::string json = "{\n";
  json += "  \"experiment\": \"A8\",\n";
  json += StrFormat("  \"scale_factor\": %g,\n", sf);
  json += StrFormat("  \"workers\": %d,\n", workers);
  json += StrFormat("  \"requests_per_cell\": %d,\n", requests);
  json += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += StrFormat("  \"capacity_qps\": %.2f,\n", sweep.capacity_qps);
  json += "  \"sweep\": " + bench::SweepJson(sweep.cells, 2) + ",\n";
  json += "  \"comparison\": {\n";
  json += StrFormat("    \"offered_qps\": %.2f,\n", sweep.capacity_qps);
  json += "    \"closed\": " + bench::LoadCellJson(closed_cell) + ",\n";
  json += "    \"open\": " + bench::LoadCellJson(open_cell) + ",\n";
  json += StrFormat("    \"compared_percentile\": \"%s\",\n", tail_name);
  json += StrFormat("    \"open_exceeds_closed\": %s\n",
                    omission_shown ? "true" : "false");
  json += "  }\n";
  json += "}\n";

  std::string json_path = ctx.ResultPath("BENCH_service_latency.json");
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  ctx.AddOutput(json_path);
  ctx.AddNote(omission_shown
                  ? StrFormat("coordinated omission demonstrated (open %s > "
                              "closed)",
                              tail_name)
                  : "coordinated omission NOT visible in this run");
  ctx.Finish();
  return 0;
}
