// A3 — the paper's first metric: "Throughput: queries per time"
// (slide 22), measured the way the standard benchmark the paper cites
// (TPC-H, slide 13) defines it: a single-stream power test (geometric
// mean over all 22 queries, so no one query dominates) and a multi-stream
// throughput test over per-stream query permutations.

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "report/csv.h"
#include "report/table_format.h"
#include "serve/latency.h"
#include "workload/driver.h"
#include "workload/tpch_gen.h"

int main(int argc, char** argv) {
  using namespace perfeval;  // NOLINT(build/namespaces) bench binary.
  bench::BenchContext ctx(
      "A3", "power: hot single stream; throughput: permuted streams",
      argc, argv);
  ctx.properties().SetDefault("scaleFactor", "0.01");
  ctx.properties().SetDefault("maxStreams", "4");
  ctx.PrintHeader("TPC-H-style power and throughput metrics");

  double sf = ctx.properties().GetDouble("scaleFactor", 0.01);
  int max_streams =
      static_cast<int>(ctx.properties().GetInt("maxStreams", 4));
  db::Database database;
  Result<int> threads = ctx.DbThreads();
  if (!threads.ok()) {
    std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
    return 2;
  }
  database.set_threads(threads.value());
  workload::TpchGenerator gen(sf);
  gen.LoadAll(&database);
  std::printf("TPC-H scale factor %.3g, all 22 queries, dbThreads=%d\n\n",
              sf, database.threads());

  workload::TpchDriver driver(&database);

  workload::PowerResult power = driver.RunPowerTest();
  std::printf("Power test (single stream, hot):\n");
  std::printf("  stream total: %.1f ms, geometric mean per query: %.2f ms\n",
              power.stream.total_ms, power.geomean_ms);
  std::printf("  power metric: %.0f queries/hour\n\n", power.power_qph);

  report::TextTable table;
  table.SetHeader({"streams", "total (ms)", "throughput (queries/hour)"});
  report::CsvWriter csv({"streams", "total_ms", "qph"});
  for (int streams = 1; streams <= max_streams; ++streams) {
    workload::ThroughputResult result =
        driver.RunThroughputTest(streams, 42);
    table.AddRow({std::to_string(streams),
                  StrFormat("%.1f", result.total_ms),
                  StrFormat("%.0f", result.throughput_qph)});
    csv.AddNumericRow({static_cast<double>(streams), result.total_ms,
                       result.throughput_qph});
  }
  std::printf("Throughput test (sequential permuted streams):\n%s\n",
              table.ToString().c_str());
  std::printf(
      "single-threaded streams run back to back, so queries/hour should "
      "stay roughly flat across stream counts (work scales with streams); "
      "power_qph exceeds throughput_qph because the geometric mean damps "
      "the heavy join queries that dominate the arithmetic total.\n\n");

  // Concurrent variant: the same streams and permutations, but run at the
  // same time on one worker thread per stream (after an unmeasured warm-up
  // pass). total_ms is wall clock of the measured window, so queries/hour
  // measures multi-stream scale-up; the per-stream qph spread and the
  // per-query latency percentiles report the distribution behind the
  // aggregate (slide 140: never just the mean).
  report::TextTable ctable;
  ctable.SetHeader({"streams", "wall (ms)", "qph", "scale-up",
                    "stream qph min/med/max", "query ms p50/p90/p99"});
  report::CsvWriter ccsv({"streams", "wall_ms", "qph", "scaleup",
                          "stream_qph_min", "stream_qph_median",
                          "stream_qph_max", "query_ms_p50", "query_ms_p90",
                          "query_ms_p99"});
  double qph_one_stream = 0.0;
  for (int streams = 1; streams <= max_streams; ++streams) {
    workload::ThroughputResult result =
        driver.RunConcurrentThroughputTest(streams, 42);
    if (streams == 1) {
      qph_one_stream = result.throughput_qph;
    }
    double scaleup = qph_one_stream > 0.0
                         ? result.throughput_qph / qph_one_stream
                         : 0.0;
    serve::LatencyHistogram query_latency;
    for (const workload::StreamResult& stream : result.streams) {
      for (double ms : stream.query_ms) {
        query_latency.Record(static_cast<int64_t>(ms * 1e6));
      }
    }
    double p50_ms = query_latency.ValueAtPercentile(50.0) / 1e6;
    double p90_ms = query_latency.ValueAtPercentile(90.0) / 1e6;
    double p99_ms = query_latency.ValueAtPercentile(99.0) / 1e6;
    ctable.AddRow({std::to_string(streams),
                   StrFormat("%.1f", result.total_ms),
                   StrFormat("%.0f", result.throughput_qph),
                   StrFormat("%.2fx", scaleup),
                   StrFormat("%.0f/%.0f/%.0f", result.stream_qph_min,
                             result.stream_qph_median,
                             result.stream_qph_max),
                   StrFormat("%.1f/%.1f/%.1f", p50_ms, p90_ms, p99_ms)});
    ccsv.AddNumericRow({static_cast<double>(streams), result.total_ms,
                        result.throughput_qph, scaleup,
                        result.stream_qph_min, result.stream_qph_median,
                        result.stream_qph_max, p50_ms, p90_ms, p99_ms});
  }
  std::printf("Throughput test (concurrent permuted streams, warm):\n%s\n",
              ctable.ToString().c_str());
  std::printf(
      "concurrent streams share the buffer pool and the host's cores; "
      "scale-up above 1x needs spare cores, and results stay deterministic "
      "regardless (only timings may move). A wide stream qph spread means "
      "some streams starved while the aggregate looked fine; the "
      "percentiles are per-query latencies across all streams.\n");

  std::string csv_path = ctx.ResultPath("a3_throughput.csv");
  if (!csv.WriteToFile(csv_path).ok()) {
    return 1;
  }
  ctx.AddOutput(csv_path);
  std::string ccsv_path = ctx.ResultPath("a3_throughput_concurrent.csv");
  if (!ccsv.WriteToFile(ccsv_path).ok()) {
    return 1;
  }
  ctx.AddOutput(ccsv_path);
  ctx.Finish();
  return 0;
}
