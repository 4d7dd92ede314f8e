// The paper's recommended two-stage experiment methodology (slides 59,
// 110-113) applied to the storage layer:
//
//   Stage 1 — screening: a 2^(4-1) fractional factorial (8 runs instead of
//   16) over four storage knobs, allocation of variation to find the
//   factors that matter.
//
//   Stage 2 — refinement: a finer one-factor sweep over the winner,
//   plotted with error bars.

#include <cmath>
#include <cstdio>

#include "common/string_util.h"
#include "db/database.h"
#include "doe/allocation.h"
#include "doe/confounding.h"
#include "doe/effects.h"
#include "report/gnuplot.h"
#include "report/table_format.h"
#include "sched/scheduler.h"
#include "stats/confidence.h"
#include "stats/regression.h"
#include "workload/micro.h"

using namespace perfeval;  // NOLINT(build/namespaces) example binary.

namespace {

std::shared_ptr<db::Table> MakeData() {
  workload::MicroTableSpec spec;
  spec.name = "readings";
  spec.num_rows = 300'000;
  spec.columns.push_back({"sensor", workload::Distribution::kSequential, 0,
                          299'999, 1.0, 0.0});
  spec.columns.push_back(
      {"value", workload::Distribution::kGaussian, 0, 100'000, 1.0, 0.0});
  return workload::GenerateMicroTable(spec);
}

/// Response: observed time (ms) of a cold selective scan.
double MeasureConfig(const std::shared_ptr<db::Table>& data, bool big_pool,
                     bool big_pages, bool ssd, bool zone_maps) {
  db::DatabaseOptions options;
  options.buffer_pool_pages = big_pool ? 2048 : 16;
  options.rows_per_page = big_pages ? 8192 : 512;
  options.disk = ssd ? db::DiskModel::Ssd() : db::DiskModel();
  db::Database database(options);
  database.RegisterTable("readings", data);
  db::ExprPtr predicate = workload::PredicateForSelectivity(
      database.GetTable("readings"), "sensor", 0.02);
  db::PlanPtr plan = db::FilterScan("readings", data->schema(),
                                    {"sensor", "value"}, predicate);
  database.FlushCaches();
  return database
      .Run(plan, db::ExecMode::kOptimized, db::SinkKind::kDiscard,
           zone_maps)
      .ServerRealMs();
}

}  // namespace

int main() {
  std::shared_ptr<db::Table> data = MakeData();
  const std::vector<std::string> names = {"pool", "pagesize", "ssd",
                                          "zonemaps"};

  // ---- Stage 1: 2^(4-1) screening, D = ABC (resolution IV). ----
  doe::FractionalDesignSpec spec(4, {doe::Generator{3, 0b0111}});
  doe::SignTable table = doe::SignTable::Fractional(spec);
  std::printf("Stage 1: 2^(4-1) screening, D=ABC — %zu of 16 runs\n",
              table.num_runs());
  std::printf("alias structure:\n%s\n", spec.DescribeAliases(1).c_str());

  // The fractional sign table as a Design, executed through the
  // experiment scheduler. The response is a deterministic simulated cold
  // scan (virtual-time disk), so the trials are simulation-bound: the
  // concurrent isolation policy may fan them out across workers without
  // perturbing the results, and the randomized run order de-correlates run
  // index from time-varying machine state — at identical reported numbers.
  std::vector<doe::DesignPoint> points;
  for (size_t run = 0; run < table.num_runs(); ++run) {
    doe::DesignPoint point;
    for (size_t f = 0; f < 4; ++f) {
      point.levels.push_back(table.FactorSign(run, f) > 0 ? 1 : 0);
    }
    points.push_back(point);
  }
  doe::Design design({doe::Factor::TwoLevel("pool", "16", "2048"),
                      doe::Factor::TwoLevel("pagesize", "512", "8192"),
                      doe::Factor::TwoLevel("ssd", "hdd", "ssd"),
                      doe::Factor::TwoLevel("zonemaps", "off", "on")},
                     points, "2^(4-1) D=ABC");
  core::RunProtocol protocol;
  protocol.warmup_runs = 0;  // MeasureConfig is cold by construction.
  protocol.measured_runs = 1;
  protocol.aggregation = core::Aggregation::kLast;
  sched::Options sched_options;
  sched_options.experiment_id = "doe_screening";
  sched_options.jobs = 4;
  sched_options.order = core::RunOrder::kRandomized;
  sched_options.seed = 7;
  sched_options.isolation = core::IsolationPolicy::kConcurrent;
  sched::Scheduler scheduler(sched_options);
  Result<core::ExperimentResult> screening = scheduler.Run(
      design, protocol, core::ResponseMetric::kRealMs,
      [&](const doe::DesignPoint& point, const core::TrialSpec&) {
        core::Measurement m;
        m.real_ns = static_cast<int64_t>(
            MeasureConfig(data, point.levels[0] > 0, point.levels[1] > 0,
                          point.levels[2] > 0, point.levels[3] > 0) *
            1e6);
        return m;
      });
  if (!screening.ok()) {
    std::fprintf(stderr, "screening failed: %s\n",
                 screening.status().ToString().c_str());
    return 1;
  }
  std::printf("protocol: %s\n\n",
              screening->protocol_description.c_str());
  std::vector<double> y = screening->AggregatedResponses();
  doe::EffectModel model = doe::EstimateMainEffectsFractional(table, y);
  report::TextTable effects;
  effects.SetHeader({"factor", "effect q (ms)"});
  size_t winner = 0;
  double winner_magnitude = -1.0;
  for (size_t f = 0; f < 4; ++f) {
    double q = model.Coefficient(doe::EffectMask{1} << f);
    effects.AddRow({names[f], StrFormat("%+.2f", q)});
    if (std::fabs(q) > winner_magnitude) {
      winner_magnitude = std::fabs(q);
      winner = f;
    }
  }
  std::printf("%s\n", effects.ToString().c_str());
  std::printf("dominant factor: %s\n\n", names[winner].c_str());

  // ---- Stage 2: refine the dominant factor (the disk in any sane run)
  // with a sweep over disk bandwidth at the best levels of the rest. ----
  std::printf("Stage 2: refining the disk factor — seek-time sweep\n");
  core::Series series;
  series.name = "cold scan";
  for (double seek_ms : {0.05, 0.5, 2.0, 5.0, 9.0, 15.0}) {
    db::DatabaseOptions options;
    options.buffer_pool_pages = 2048;
    options.rows_per_page = 8192;
    options.disk.seek_ns = static_cast<int64_t>(seek_ms * 1e6);
    db::Database database(options);
    database.RegisterTable("readings", data);
    db::ExprPtr predicate = workload::PredicateForSelectivity(
        database.GetTable("readings"), "sensor", 0.02);
    db::PlanPtr plan = db::FilterScan("readings", data->schema(),
                                      {"sensor", "value"}, predicate);
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i) {
      database.FlushCaches();
      samples.push_back(database.Run(plan).ServerRealMs());
    }
    stats::ConfidenceInterval ci =
        stats::MeanConfidenceInterval(samples, 0.95);
    series.AppendWithError(seek_ms, ci.mean, ci.HalfWidth());
    std::printf("  seek %5.2f ms -> %7.2f ms  [+/- %.2f]\n", seek_ms,
                ci.mean, ci.HalfWidth());
  }

  // Fit the cost model: scan time = fixed + per-seek-ms * seek_ms.
  // The slope estimates how many seeks the scan performs.
  stats::LinearFit fit = stats::FitLinear(series.x, series.y);
  std::printf("\ncost model fit: %s\n", fit.ToString().c_str());
  std::printf(
      "slope = ms of scan time per ms of seek latency ~= number of "
      "seeks: %.2f [%.2f, %.2f]\n",
      fit.slope, fit.slope_ci.lower, fit.slope_ci.upper);

  report::ChartSpec chart;
  chart.title = "Cold selective scan vs disk seek time";
  chart.x_label = "seek time (ms)";
  chart.y_label = "scan time (ms)";
  chart.style = report::ChartStyle::kErrorBars;
  chart.series = {series};
  if (report::WriteChart(chart, "bench_results/doe_screening").ok()) {
    std::printf("\nwrote bench_results/doe_screening.{csv,gnu}\n");
  }
  return 0;
}
