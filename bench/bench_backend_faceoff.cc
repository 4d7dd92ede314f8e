// A12 — two backends, one harness (the paper's two-engines discipline
// applied internally, slides 8-13): the columnar vectorized executor and
// the packed-tuple row store execute the SAME plan trees over the SAME
// generated data through the SAME measurement protocol, so every reported
// difference is layout + kernel, never harness. Three parts:
//
//   1. Who wins: all 22 TPC-H queries, hot, interleaved col/row samples
//      (ABAB ordering so drift hits both arms equally), median observed
//      server time (wall + simulated stall) with bootstrap row/col ratio
//      CIs; non-overlap with 1.0 flags the distinguishable queries. Every
//      sample pair is diffed — a who-wins row is only reported for
//      results proven equal.
//   2. Per-operator attribution: TRACE wall time grouped by operator kind
//      across the suite, per backend — where the row store's
//      tuple-at-a-time CPU actually goes.
//   3. Crossover sweep, cold: selectivity (l_quantity threshold) x
//      projected-column count over lineitem. The row store reads whole
//      tuples no matter how narrow the projection (one stream, one seek);
//      the columnar scan reads only the referenced columns but opens one
//      stream per column. Narrow projections: columnar wins on bytes.
//      Wide projections: equal bytes, and the column store pays one seek
//      per column vs the row store's one per table — the classic
//      layout crossover, priced by the shared DiskModel and located by
//      the sweep.
//
// Everything lands in BENCH_backend_faceoff.json plus plot-ready
// CSV+gnuplot; `--smoke` shrinks the scale factor and run counts to a
// ctest-able pass.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/metrics.h"
#include "db/database.h"
#include "db/plan.h"
#include "db/reference.h"
#include "engine/backend.h"
#include "report/gnuplot.h"
#include "report/table_format.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace {

constexpr double kDoubleTol = 1e-9;

/// The sweep's hypothesis, declared before any cell runs. The outcome is
/// reported as confirmed or refuted; only a result diff between the
/// backends fails the run.
constexpr char kH1[] = "the row store wins at least one cold crossover cell";

/// Operator kind of a trace label: "HashJoin(l_orderkey=o_orderkey)"
/// attributes to "HashJoin", "Scan(lineitem)" to "Scan".
std::string OpKind(const std::string& op) {
  size_t paren = op.find('(');
  return paren == std::string::npos ? op : op.substr(0, paren);
}

struct OpAttribution {
  int64_t col_ns = 0;
  int64_t row_ns = 0;
};

void Attribute(const db::Profiler& profile, bool is_row,
               std::map<std::string, OpAttribution>* by_op) {
  for (const db::OpTrace& trace : profile.traces()) {
    OpAttribution& slot = (*by_op)[OpKind(trace.op)];
    (is_row ? slot.row_ns : slot.col_ns) += trace.wall_ns;
  }
}

std::string CiJson(const stats::ConfidenceInterval& ci) {
  return StrFormat("{\"mean\": %.4f, \"lower\": %.4f, \"upper\": %.4f}",
                   ci.mean, ci.lower, ci.upper);
}

}  // namespace
}  // namespace perfeval

int main(int argc, char** argv) {
  using namespace perfeval;  // NOLINT(build/namespaces) bench binary.
  bench::BenchContext ctx(
      "A12",
      "hot who-wins: 1 warm-up each, interleaved col/row samples, median "
      "ObservedServerNs (wall + simulated stall), row-vs-col DiffTables "
      "on every sample pair; cold sweep: FlushCaches on both backends "
      "before every sample; both backends share DiskModel, pool budget "
      "and rows_per_page",
      argc, argv, bench::DbKnobs::kApplied);
  bool smoke = ctx.Smoke();
  ctx.properties().SetDefault("scaleFactor", smoke ? "0.002" : "0.02");
  ctx.properties().SetDefault("runs", smoke ? "3" : "5");
  ctx.PrintHeader(
      "multi-backend faceoff: columnar vs row store through one harness "
      "— who-wins table, per-operator attribution, layout crossover");
  if (smoke) {
    std::printf("[smoke mode: tiny scale factor, few runs]\n\n");
  }
  std::printf("declared before the run: H1: %s\n\n", kH1);
  double sf = ctx.properties().GetDouble("scaleFactor", 0.02);
  int runs = static_cast<int>(ctx.properties().GetInt("runs", 5));

  db::Database database;
  workload::TpchGenerator gen(sf);
  gen.LoadAll(&database);
  Status knobs = ctx.ApplyDbKnobs(&database);
  if (!knobs.ok()) {
    std::fprintf(stderr, "%s\n", knobs.ToString().c_str());
    return 2;
  }
  std::unique_ptr<engine::Backend> columnar =
      engine::CreateBackend(db::BackendKind::kColumnar, &database);
  std::unique_ptr<engine::Backend> row =
      engine::CreateBackend(db::BackendKind::kRowStore, &database);
  engine::ExecOptions options;
  options.threads = database.threads();

  // ---- Part 1: hot who-wins over the 22 TPC-H queries. ----
  report::TextTable wins_table;
  wins_table.SetHeader({"query", "col (ms)", "row (ms)", "row finish",
                        "row/col", "95% CI", "winner"});
  std::string wins_json;
  std::map<std::string, OpAttribution> by_op;
  uint64_t ci_seed = 1200;
  int col_wins = 0;
  int row_wins = 0;
  int distinct = 0;
  for (int q = 1; q <= 22; ++q) {
    db::PlanPtr plan = workload::GetTpchQuery(q).Build(database);
    (void)columnar->Execute(plan, options);  // warm-up.
    (void)row->Execute(plan, options);
    std::vector<double> col_samples;
    std::vector<double> row_samples;
    std::vector<double> finish_samples;
    for (int r = 0; r < runs; ++r) {
      engine::BackendResult col_result = columnar->Execute(plan, options);
      engine::BackendResult row_result = row->Execute(plan, options);
      col_samples.push_back(
          static_cast<double>(col_result.ObservedServerNs()));
      row_samples.push_back(
          static_cast<double>(row_result.ObservedServerNs()));
      finish_samples.push_back(static_cast<double>(row_result.finish_ns));
      std::string diff =
          db::DiffTables(*row_result.table, *col_result.table, kDoubleTol,
                         /*ignore_row_order=*/true);
      if (!diff.empty()) {
        std::fprintf(stderr, "Q%d rep %d: backends disagree: %s\n", q, r,
                     diff.c_str());
        return 2;
      }
      if (r == runs - 1) {
        Attribute(col_result.profile, /*is_row=*/false, &by_op);
        Attribute(row_result.profile, /*is_row=*/true, &by_op);
      }
    }
    double col_median = stats::Median(col_samples);
    double row_median = stats::Median(row_samples);
    double finish_median = stats::Median(finish_samples);
    stats::ConfidenceInterval ratio =
        stats::BootstrapRatioCI(row_samples, col_samples, 0.95, ci_seed++);
    bool is_distinct = ratio.lower > 1.0 || ratio.upper < 1.0;
    distinct += is_distinct ? 1 : 0;
    bool row_faster = row_median < col_median;
    (row_faster ? row_wins : col_wins) += 1;
    wins_table.AddRow(
        {StrFormat("Q%d", q), StrFormat("%.2f", col_median / 1e6),
         StrFormat("%.2f", row_median / 1e6),
         StrFormat("%.2f", finish_median / 1e6),
         StrFormat("%.2fx", row_median / col_median),
         StrFormat("[%.2f, %.2f]%s", ratio.lower, ratio.upper,
                   is_distinct ? "" : " ~"),
         row_faster ? "row" : "col"});
    wins_json += StrFormat(
        "    %s{\"query\": %d, \"col_ns\": %.0f, \"row_ns\": %.0f, "
        "\"row_finish_ns\": %.0f, \"row_over_col\": %.4f, "
        "\"row_over_col_ci\": %s, \"distinct\": %s, \"winner\": \"%s\"}",
        q == 1 ? "" : ",\n", q, col_median, row_median, finish_median,
        row_median / col_median, CiJson(ratio).c_str(),
        is_distinct ? "true" : "false", row_faster ? "row" : "col");
  }
  std::printf("TPC-H who-wins, hot (row finish = packed-result -> Table "
              "conversion, outside server time; ~ = CI overlaps 1.0)\n%s\n",
              wins_table.ToString().c_str());
  std::printf(
      "columnar wins %d/22, row store %d/22; %d/22 distinguishable at "
      "95%% (ratio CI excludes 1.0)\n\n",
      col_wins, row_wins, distinct);

  // ---- Part 2: per-operator attribution across the suite. ----
  report::TextTable op_table;
  op_table.SetHeader({"operator", "col total (ms)", "row total (ms)",
                      "row/col"});
  std::string op_json;
  bool first = true;
  for (const auto& [op, attribution] : by_op) {
    double col_ms = static_cast<double>(attribution.col_ns) / 1e6;
    double row_ms = static_cast<double>(attribution.row_ns) / 1e6;
    op_table.AddRow({op, StrFormat("%.2f", col_ms),
                     StrFormat("%.2f", row_ms),
                     attribution.col_ns > 0
                         ? StrFormat("%.2fx", row_ms / col_ms)
                         : "-"});
    op_json += StrFormat(
        "    %s{\"op\": \"%s\", \"col_ns\": %lld, \"row_ns\": %lld}",
        first ? "" : ",\n", op.c_str(),
        (long long)attribution.col_ns, (long long)attribution.row_ns);
    first = false;
  }
  std::printf(
      "per-operator TRACE attribution, one hot rep of each of the 22 "
      "queries\n%s\n"
      "expected shape: the row store's scan/filter pay tuple-at-a-time "
      "interpretation the vectorized kernels amortize; its joins and "
      "sorts work on packed tuples and sit closer to parity.\n\n",
      op_table.ToString().c_str());

  // ---- Part 3: cold layout crossover, selectivity x projected width. ----
  const db::Schema& lineitem = database.GetTable("lineitem").schema();
  std::vector<std::string> all_columns;
  for (size_t c = 0; c < lineitem.num_columns(); ++c) {
    all_columns.push_back(lineitem.column(c).name);
  }
  const double kThresholds[] = {5.0, 25.0, 50.0};
  const size_t kWidths[] = {1, 4, 8, 16};
  double lineitem_rows =
      static_cast<double>(database.GetTable("lineitem").num_rows());
  report::TextTable sweep_table;
  sweep_table.SetHeader({"l_quantity <", "selectivity", "columns",
                         "col (ms)", "col MB", "col misses", "row (ms)",
                         "row MB", "row misses", "winner"});
  std::string sweep_json;
  core::Series col_series{"columnar", {}, {}, {}};
  core::Series row_series{"row store", {}, {}, {}};
  int crossover_row_wins = 0;
  first = true;
  for (double threshold : kThresholds) {
    for (size_t width : kWidths) {
      std::vector<std::string> projected(all_columns.begin(),
                                         all_columns.begin() + width);
      db::ExprPtr pred = db::Lt(db::Col(lineitem, "l_quantity"),
                                db::LitDouble(threshold));
      db::PlanPtr plan = db::FilterScan("lineitem", projected, pred);
      std::vector<double> col_samples;
      std::vector<double> row_samples;
      engine::BackendResult col_result;
      engine::BackendResult row_result;
      for (int r = 0; r < runs; ++r) {
        columnar->FlushCaches();
        row->FlushCaches();
        col_result = columnar->Execute(plan, options);
        row_result = row->Execute(plan, options);
        col_samples.push_back(
            static_cast<double>(col_result.ObservedServerNs()));
        row_samples.push_back(
            static_cast<double>(row_result.ObservedServerNs()));
      }
      std::string diff =
          db::DiffTables(*row_result.table, *col_result.table, kDoubleTol,
                         /*ignore_row_order=*/false);
      if (!diff.empty()) {
        std::fprintf(stderr, "sweep t=%.0f width=%zu: %s\n", threshold,
                     width, diff.c_str());
        return 2;
      }
      double selectivity =
          static_cast<double>(col_result.table->num_rows()) /
          lineitem_rows;
      double col_median = stats::Median(col_samples);
      double row_median = stats::Median(row_samples);
      bool row_faster = row_median < col_median;
      crossover_row_wins += row_faster ? 1 : 0;
      sweep_table.AddRow(
          {StrFormat("%.0f", threshold), StrFormat("%.3f", selectivity),
           StrFormat("%zu", width), StrFormat("%.2f", col_median / 1e6),
           StrFormat("%.1f",
                     static_cast<double>(col_result.storage.bytes_read) /
                         1e6),
           StrFormat("%lld", (long long)col_result.storage.page_misses),
           StrFormat("%.2f", row_median / 1e6),
           StrFormat("%.1f",
                     static_cast<double>(row_result.storage.bytes_read) /
                         1e6),
           StrFormat("%lld", (long long)row_result.storage.page_misses),
           row_faster ? "row" : "col"});
      if (threshold == kThresholds[1]) {
        col_series.Append(static_cast<double>(width), col_median / 1e6);
        row_series.Append(static_cast<double>(width), row_median / 1e6);
      }
      sweep_json += StrFormat(
          "    %s{\"threshold\": %.0f, \"selectivity\": %.4f, "
          "\"columns\": %zu, \"col_ns\": %.0f, \"row_ns\": %.0f, "
          "\"col_bytes\": %lld, \"row_bytes\": %lld, "
          "\"col_misses\": %lld, \"row_misses\": %lld, "
          "\"winner\": \"%s\"}",
          first ? "" : ",\n", threshold, selectivity, width, col_median,
          row_median, (long long)col_result.storage.bytes_read,
          (long long)row_result.storage.bytes_read,
          (long long)col_result.storage.page_misses,
          (long long)row_result.storage.page_misses,
          row_faster ? "row" : "col");
      first = false;
    }
  }
  std::printf("cold layout crossover: FilterScan(lineitem), observed "
              "server time = wall + DiskModel stall\n%s\n",
              sweep_table.ToString().c_str());
  std::printf(
      "row store wins %d/%d cold cells. The mechanism is visible in the "
      "bytes/misses columns: the row store always reads full tuples "
      "through one per-table stream (one seek); the columnar scan reads "
      "only the projected columns but opens one stream per column — "
      "narrow projections trade seeks for far fewer bytes and win, wide "
      "projections read the same bytes plus the extra seeks and lose.\n\n",
      crossover_row_wins, static_cast<int>(3 * 4));
  const char* h1_outcome = crossover_row_wins > 0 ? "confirmed" : "refuted";
  std::printf("H1: %s: %s (row store won %d/12 cold cells)\n\n", kH1,
              h1_outcome, crossover_row_wins);

  report::ChartSpec sweep_chart;
  sweep_chart.title = "Cold scan: columnar vs row store vs projected width";
  sweep_chart.x_label = "projected columns (of 16)";
  sweep_chart.y_label = "observed server time (ms)";
  sweep_chart.logscale_y = true;
  sweep_chart.series = {col_series, row_series};
  std::string sweep_stem = ctx.ResultPath("a12_crossover");
  if (!report::WriteChart(sweep_chart, sweep_stem).ok()) {
    return 1;
  }
  ctx.AddOutput(sweep_stem + ".csv");

  std::string json = "{\n";
  json += "  \"experiment\": \"A12\",\n";
  json += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += StrFormat("  \"scale_factor\": %.4f,\n", sf);
  json += StrFormat("  \"runs\": %d,\n", runs);
  json += StrFormat("  \"threads\": %d,\n", options.threads);
  json += "  \"tpch_who_wins\": [\n" + wins_json + "\n  ],\n";
  json += StrFormat("  \"col_wins\": %d,\n", col_wins);
  json += StrFormat("  \"row_wins\": %d,\n", row_wins);
  json += StrFormat("  \"distinct_at_95\": %d,\n", distinct);
  json += "  \"op_attribution\": [\n" + op_json + "\n  ],\n";
  json += "  \"cold_crossover\": [\n" + sweep_json + "\n  ],\n";
  json += StrFormat("  \"crossover_row_wins\": %d,\n", crossover_row_wins);
  json += StrFormat(
      "  \"hypotheses\": [{\"id\": \"H1\", \"statement\": \"%s\", "
      "\"outcome\": \"%s\"}],\n",
      kH1, h1_outcome);
  json += "  \"queries\": 22\n";
  json += "}\n";

  std::string json_path = ctx.ResultPath("BENCH_backend_faceoff.json");
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << json;
  out.close();
  ctx.AddOutput(json_path);
  ctx.AddNote(StrFormat(
      "hot TPC-H: columnar %d/22, row %d/22 (%d distinguishable at 95%%); "
      "cold crossover: row store wins %d/12 cells, winning where "
      "projections are wide enough that equal bytes meet fewer seeks; "
      "H1 (%s): %s",
      col_wins, row_wins, distinct, crossover_row_wins, kH1, h1_outcome));
  ctx.Finish();
  return 0;
}
