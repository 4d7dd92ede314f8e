// Quickstart: the perfeval workflow in one page.
//
// 1. Define factors and a design (doe).
// 2. Run it under a documented protocol with the harness (core).
// 3. Estimate effects and allocate variation (doe).
// 4. Report with confidence intervals (stats) and emit plot-ready files
//    (report).
//
// The system under test here is the bundled mini column-store: we ask
// whether vectorized execution and zone maps matter for a selective scan.

#include <cstdio>

#include "core/runner.h"
#include "db/database.h"
#include "doe/allocation.h"
#include "doe/effects.h"
#include "doe/interaction.h"
#include "report/gnuplot.h"
#include "workload/micro.h"

using namespace perfeval;  // NOLINT(build/namespaces) example binary.

int main() {
  // ---- The system under test: one synthetic table. ----
  workload::MicroTableSpec spec;
  spec.name = "events";
  spec.num_rows = 200'000;
  spec.columns.push_back(
      {"v", workload::Distribution::kUniform, 0, 1'000'000, 1.0, 0.0});
  db::Database database;
  database.RegisterTable("events", workload::GenerateMicroTable(spec));
  db::ExprPtr predicate = workload::PredicateForSelectivity(
      database.GetTable("events"), "v", 0.05);
  db::PlanPtr query = db::FilterScan(
      "events", database.GetTable("events").schema(), {"v"}, predicate);

  // ---- 1. Factors and design: a 2^2 full factorial. ----
  doe::Design design = doe::TwoLevelFullFactorial(
      {doe::Factor::TwoLevel("vectorized", "off", "on"),
       doe::Factor::TwoLevel("zonemaps", "off", "on")});
  std::printf("Design (%zu runs):\n%s\n", design.num_runs(),
              design.ToTable().c_str());

  // ---- 2. Run under a documented protocol. ----
  core::RunProtocol protocol;
  protocol.warmup_runs = 1;
  protocol.measured_runs = 5;
  protocol.aggregation = core::Aggregation::kMedian;
  core::ExperimentRunner runner(protocol, core::ResponseMetric::kUserMs);
  core::ExperimentResult result =
      runner.Run(design, [&](const doe::DesignPoint& point) {
        db::ExecMode mode = point.levels[0] == 1
                                ? db::ExecMode::kOptimized
                                : db::ExecMode::kDebug;
        bool zone_maps = point.levels[1] == 1;
        db::QueryResult qr =
            database.Run(query, mode, db::SinkKind::kDiscard, zone_maps);
        return qr.server;
      });
  std::printf("%s\n", result.ToTable(design).c_str());

  // ---- 3. Effects and allocation of variation. ----
  doe::SignTable table = doe::SignTable::FullFactorial(2);
  std::vector<double> y = result.AggregatedResponses();
  doe::EffectModel model = doe::EstimateEffects(table, y);
  std::printf("Fitted model (ms):\n%s\n", model.ToString().c_str());
  std::printf("Allocation of variation:\n%s\n",
              doe::AllocateVariation(table, y).ToTable().c_str());

  // Interaction plot (paper, slide 58): parallel lines = no interaction.
  std::vector<core::Series> interaction =
      doe::InteractionPlot(table, y, 0, 1, "zonemaps");
  std::printf(
      "Interaction of vectorization x zone maps (slope gap %.3f ms — "
      "parallel lines when ~0):\n", 
      doe::InteractionSlopeGap(table, y, 0, 1));
  for (const core::Series& s : interaction) {
    std::printf("  %-14s  A=off: %8.3f ms   A=on: %8.3f ms\n",
                s.name.c_str(), s.y[0], s.y[1]);
  }
  std::printf("\n");

  // ---- 4. A plot-ready chart with the guidelines baked in. ----
  core::Series series;
  series.name = "median scan time";
  for (size_t run = 0; run < y.size(); ++run) {
    series.AppendWithError(static_cast<double>(run + 1), y[run],
                           result.runs[run].confidence.has_value()
                               ? result.runs[run].confidence->HalfWidth()
                               : 0.0);
  }
  report::ChartSpec chart;
  chart.title = "Selective scan: vectorization x zone maps";
  chart.x_label = "design point";
  chart.y_label = "user CPU time (ms)";
  chart.style = report::ChartStyle::kErrorBars;
  chart.series = {series};
  if (report::WriteChart(chart, "bench_results/quickstart").ok()) {
    std::printf(
        "wrote bench_results/quickstart.{csv,gnu} — run gnuplot on the "
        ".gnu file to render the figure\n");
  }
  return 0;
}
