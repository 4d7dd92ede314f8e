#include "load_sweep.h"

#include "common/string_util.h"
#include "report/gnuplot.h"
#include "report/svg.h"
#include "stats/descriptive.h"

namespace perfeval {
namespace bench {

const double kSweepPercentiles[kSweepNumPercentiles] = {50.0, 90.0, 99.0,
                                                        99.9};
const char* const kSweepPercentileNames[kSweepNumPercentiles] = {
    "p50", "p90", "p99", "p99.9"};

std::string LatencyPercentile::ToString(bool with_ci) const {
  if (!supported) {
    return StrFormat("n/a (n=%zu)", n);
  }
  if (!with_ci) {
    return StrFormat("%.2f", ms);
  }
  return StrFormat("%.2f [%.2f,%.2f]", ms, ci.lower, ci.upper);
}

std::string LatencyPercentile::ToJson() const {
  if (!supported) {
    return "null";
  }
  return StrFormat(
      "{\"ms\": %.4f, \"ci_lower_ms\": %.4f, \"ci_upper_ms\": %.4f, "
      "\"confidence\": %.2f}",
      ms, ci.lower, ci.upper, ci.confidence);
}

LatencyPercentile SummarizePercentile(const serve::LatencyHistogram& latency,
                                      double p, uint64_t ci_seed,
                                      int resamples) {
  LatencyPercentile out;
  out.n = static_cast<size_t>(latency.TotalCount());
  out.supported = stats::PercentileSupported(out.n, p);
  out.ms = latency.ValueAtPercentile(p) / 1e6;
  if (!out.supported) {
    return out;
  }
  out.ci = latency.PercentileCI(p, kSweepConfidence, ci_seed, resamples);
  out.ci.mean /= 1e6;
  out.ci.lower /= 1e6;
  out.ci.upper /= 1e6;
  return out;
}

LoadCell SummarizeLoadRun(double offered_qps, const serve::LoadResult& run,
                          uint64_t ci_seed, int resamples) {
  LoadCell cell;
  cell.offered_qps = offered_qps;
  cell.achieved_qph = run.qph;
  cell.errors = run.errors;
  for (int i = 0; i < kSweepNumPercentiles; ++i) {
    cell.percentiles[i] = SummarizePercentile(
        run.client_latency, kSweepPercentiles[i],
        ci_seed + static_cast<uint64_t>(i), resamples);
  }
  return cell;
}

std::string LoadCellJson(const LoadCell& cell) {
  std::string percentiles = "{";
  for (int i = 0; i < kSweepNumPercentiles; ++i) {
    percentiles += StrFormat("%s\"%s\": %s", i == 0 ? "" : ", ",
                             kSweepPercentileNames[i],
                             cell.percentiles[i].ToJson().c_str());
  }
  percentiles += "}";
  return StrFormat(
      "{\"offered_qps\": %.2f, \"achieved_qph\": %.0f, \"errors\": %lld, "
      "\"percentiles\": %s}",
      cell.offered_qps, cell.achieved_qph,
      static_cast<long long>(cell.errors), percentiles.c_str());
}

LoadSweepResult RunLoadSweep(serve::QueryService* service,
                             const LoadSweepOptions& options) {
  LoadSweepResult result;

  // Capacity calibration: closed loop, zero think time.
  serve::LoadOptions closed_options;
  closed_options.mode = serve::LoadMode::kClosed;
  closed_options.requests = options.requests;
  closed_options.clients = options.capacity_clients;
  closed_options.run_seed = options.run_seed;
  closed_options.query_mix = options.query_mix;
  serve::LoadGenerator closed_gen(service, closed_options);
  if (options.warmup) {
    (void)closed_gen.Run();  // warm the buffer pool, unmeasured.
  }
  result.closed_run = closed_gen.Run();
  result.capacity_qps = result.closed_run.achieved_qps;
  result.closed_cell =
      SummarizeLoadRun(result.capacity_qps, result.closed_run,
                       options.run_seed * 1979, options.resamples);

  // Open-loop Poisson sweep at fractions of capacity.
  result.p50_series = core::Series{"p50", {}, {}, {}};
  result.p99_series = core::Series{"p99", {}, {}, {}};
  for (size_t i = 0; i < options.fractions.size(); ++i) {
    double offered = result.capacity_qps * options.fractions[i];
    serve::LoadOptions open_options;
    open_options.mode = serve::LoadMode::kOpen;
    open_options.requests = options.requests;
    open_options.offered_qps = offered;
    open_options.run_seed = options.run_seed + 1 + static_cast<uint64_t>(i);
    open_options.query_mix = options.query_mix;
    serve::LoadGenerator open_gen(service, open_options);
    serve::LoadResult run = open_gen.Run();
    LoadCell cell = SummarizeLoadRun(
        offered, run, options.run_seed * 977 + static_cast<uint64_t>(i),
        options.resamples);
    result.cells.push_back(cell);
    result.p50_series.AppendWithError(offered, cell.percentiles[0].ms,
                                      cell.percentiles[0].ci.HalfWidth());
    result.p99_series.AppendWithError(offered, cell.percentiles[2].ms,
                                      cell.percentiles[2].ci.HalfWidth());
  }
  return result;
}

report::TextTable SweepTable(const std::vector<LoadCell>& cells) {
  report::TextTable table;
  table.SetHeader({"offered q/s", "achieved qph", "p50 (ms)", "p90 (ms)",
                   "p99 (ms)", "p99.9 (ms)"});
  for (const LoadCell& cell : cells) {
    table.AddRow({StrFormat("%.1f", cell.offered_qps),
                  StrFormat("%.0f", cell.achieved_qph),
                  cell.percentiles[0].ToString(/*with_ci=*/true),
                  cell.percentiles[1].ToString(/*with_ci=*/false),
                  cell.percentiles[2].ToString(/*with_ci=*/true),
                  cell.percentiles[3].ToString(/*with_ci=*/false)});
  }
  return table;
}

std::string SweepJson(const std::vector<LoadCell>& cells, int indent) {
  std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "[\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    out += pad + "  " + LoadCellJson(cells[i]) +
           (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out += pad + "]";
  return out;
}

Status WriteThroughputLatencyChart(const LoadSweepResult& sweep,
                                   const std::string& title,
                                   const std::string& stem) {
  report::ChartSpec chart;
  chart.title = title;
  chart.x_label = "Offered load (queries/s)";
  chart.y_label = "Client latency (ms)";
  chart.style = report::ChartStyle::kErrorBars;
  chart.series = {sweep.p50_series, sweep.p99_series};
  Status status = report::WriteChart(chart, stem);
  if (!status.ok()) {
    return status;
  }
  return report::WriteSvgChart(chart, stem);
}

}  // namespace bench
}  // namespace perfeval
