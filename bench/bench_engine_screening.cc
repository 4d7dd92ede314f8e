// A1 — ablation in the paper's own methodology (slides 59, 110-113):
// screen the database engine's design factors with a 2^k design, allocate
// the variation, and show that a half-fraction 2^(5-1) reaches the same
// ranking of important factors with half the runs.
//
// Factors (all two-level):
//   A  buffer pool size   32 vs 4096 pages
//   B  zone maps          off vs on
//   C  execution mode     debug vs optimized
//   D  page size          512 vs 4096 rows/page
//   E  disk model         HDD vs SSD
// Response: total observed time (ms) of one cold TPC-H Q6 followed by two
// hot repetitions — so both I/O factors and CPU factors can show up.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "db/database.h"
#include "doe/allocation.h"
#include "doe/effects.h"
#include "report/csv.h"
#include "report/table_format.h"
#include "sched/scheduler.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace {

struct Tables {
  std::vector<std::pair<std::string, std::shared_ptr<db::Table>>> tables;
};

Tables GenerateOnce(double scale_factor) {
  workload::TpchGenerator gen(scale_factor);
  Tables out;
  for (const char* name : {"region", "nation", "supplier", "customer",
                           "part", "partsupp", "orders", "lineitem"}) {
    out.tables.emplace_back(name, gen.Generate(name));
  }
  return out;
}

double RunConfiguration(const Tables& tables, bool big_pool, bool zone_maps,
                        bool optimized, bool big_pages, bool ssd) {
  db::DatabaseOptions options;
  options.buffer_pool_pages = big_pool ? 4096 : 32;
  options.rows_per_page = big_pages ? 4096 : 512;
  options.disk = ssd ? db::DiskModel::Ssd() : db::DiskModel();
  db::Database database(options);
  for (const auto& [name, table] : tables.tables) {
    database.RegisterTable(name, table);
  }
  db::ExecMode mode =
      optimized ? db::ExecMode::kOptimized : db::ExecMode::kDebug;
  db::PlanPtr plan = workload::GetTpchQuery(6).Build(database);
  database.FlushCaches();
  double total_ms = 0.0;
  for (int run = 0; run < 3; ++run) {
    total_ms += database
                    .Run(plan, mode, db::SinkKind::kDiscard, zone_maps)
                    .ServerRealMs();
  }
  return total_ms;
}

}  // namespace
}  // namespace perfeval

int main(int argc, char** argv) {
  using namespace perfeval;  // NOLINT(build/namespaces) bench binary.
  bench::BenchContext ctx(
      "A1", "per design point: cold Q6 + 2 hot repetitions, observed time",
      argc, argv, bench::DbKnobs::kIgnored,
      bench::ScheduleKnobs::kApplied);
  ctx.properties().SetDefault("scaleFactor", "0.01");
  ctx.PrintHeader("engine factor screening with 2^5 and 2^(5-1) designs");

  double sf = ctx.properties().GetDouble("scaleFactor", 0.01);
  Tables tables = GenerateOnce(sf);
  std::printf("TPC-H scale factor %.3g\n\n", sf);

  const std::vector<std::string> factor_names = {
      "pool", "zonemaps", "vectorized", "pagesize", "ssd"};
  doe::SignTable full = doe::SignTable::FullFactorial(5);
  // The same 32 configurations as a Design (both use the standard order:
  // factor f of run r is "high" iff bit f of r is set), executed through
  // the scheduler: --jobs/--order/--isolation control the worker pool, the
  // run order and whether trials may overlap; the results are reassembled
  // into design order, so they do not depend on any of the three.
  doe::Design design = doe::TwoLevelFullFactorial(
      {doe::Factor::TwoLevel("pool", "32", "4096"),
       doe::Factor::TwoLevel("zonemaps", "off", "on"),
       doe::Factor::TwoLevel("vectorized", "debug", "opt"),
       doe::Factor::TwoLevel("pagesize", "512", "4096"),
       doe::Factor::TwoLevel("ssd", "hdd", "ssd")});
  core::RunProtocol protocol;
  protocol.warmup_runs = 0;   // The cold+2-hot sequence is the trial itself.
  protocol.measured_runs = 1;
  protocol.aggregation = core::Aggregation::kLast;
  sched::Scheduler scheduler(ctx.ScheduleOptions());
  std::printf("schedule: %s\n\n",
              scheduler.options().ToScheduleSpec().Describe().c_str());
  Result<core::ExperimentResult> scheduled = scheduler.Run(
      design, protocol, core::ResponseMetric::kRealMs,
      [&](const doe::DesignPoint& point, const core::TrialSpec&) {
        core::Measurement m;
        m.real_ns = static_cast<int64_t>(
            RunConfiguration(tables, point.levels[0] > 0,
                             point.levels[1] > 0, point.levels[2] > 0,
                             point.levels[3] > 0, point.levels[4] > 0) *
            1e6);
        return m;
      });
  if (!scheduled.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 scheduled.status().ToString().c_str());
    return 1;
  }
  std::vector<double> y = scheduled->AggregatedResponses();
  report::CsvWriter csv(
      {"pool", "zonemaps", "vectorized", "pagesize", "ssd", "total_ms"});
  for (size_t run = 0; run < full.num_runs(); ++run) {
    const doe::DesignPoint& point = design.points()[run];
    csv.AddNumericRow({point.levels[0] > 0 ? 1.0 : 0.0,
                       point.levels[1] > 0 ? 1.0 : 0.0,
                       point.levels[2] > 0 ? 1.0 : 0.0,
                       point.levels[3] > 0 ? 1.0 : 0.0,
                       point.levels[4] > 0 ? 1.0 : 0.0, y[run]});
  }

  doe::VariationAllocation allocation = doe::AllocateVariation(full, y);
  report::TextTable table;
  table.SetHeader({"effect", "%var"});
  int printed = 0;
  for (const doe::VariationComponent& c : allocation.components) {
    if (printed++ == 8) {
      break;
    }
    table.AddRow({doe::EffectName(c.effect, factor_names),
                  StrFormat("%.1f%%", c.fraction * 100.0)});
  }
  std::printf("Full 2^5 design (32 runs) — top effects:\n%s\n",
              table.ToString().c_str());

  // Half fraction E = ABCD (resolution V): pick the 16 matching runs.
  doe::FractionalDesignSpec spec(5, {doe::Generator{4, 0b01111}});
  doe::SignTable fraction = doe::SignTable::Fractional(spec);
  std::vector<double> y_fraction;
  for (size_t frun = 0; frun < fraction.num_runs(); ++frun) {
    // Locate the full-design run with identical signs.
    size_t index = 0;
    for (size_t f = 0; f < 5; ++f) {
      if (fraction.FactorSign(frun, f) > 0) {
        index |= size_t{1} << f;
      }
    }
    y_fraction.push_back(y[index]);
  }
  doe::EffectModel fraction_model =
      doe::EstimateMainEffectsFractional(fraction, y_fraction);
  std::printf(
      "Half fraction 2^(5-1), E=ABCD (16 runs, resolution V) — main "
      "effects:\n");
  report::TextTable fraction_table;
  fraction_table.SetHeader({"factor", "effect q (ms)"});
  for (size_t f = 0; f < 5; ++f) {
    fraction_table.AddRow(
        {factor_names[f],
         StrFormat("%.2f",
                   fraction_model.Coefficient(doe::EffectMask{1} << f))});
  }
  std::printf("%s\n", fraction_table.ToString().c_str());

  // Do the full design and the fraction agree on the most important main
  // effect?
  auto top_main = [&](auto coefficient) {
    size_t best = 0;
    double best_magnitude = -1.0;
    for (size_t f = 0; f < 5; ++f) {
      double magnitude = std::fabs(coefficient(f));
      if (magnitude > best_magnitude) {
        best_magnitude = magnitude;
        best = f;
      }
    }
    return best;
  };
  doe::EffectModel full_model = doe::EstimateEffects(full, y);
  size_t full_top = top_main([&](size_t f) {
    return full_model.Coefficient(doe::EffectMask{1} << f);
  });
  size_t fraction_top = top_main([&](size_t f) {
    return fraction_model.Coefficient(doe::EffectMask{1} << f);
  });
  std::printf(
      "most important factor — full design: %s, half fraction: %s "
      "(agree: %s)\n",
      factor_names[full_top].c_str(), factor_names[fraction_top].c_str(),
      full_top == fraction_top ? "YES" : "NO");
  std::printf(
      "\npaper (slide 113): run a 2^k or 2^(k-p) design, evaluate factor "
      "importance, then refine the important factors.\n");

  std::string csv_path = ctx.ResultPath("a1_screening.csv");
  if (!csv.WriteToFile(csv_path).ok()) {
    return 1;
  }
  ctx.AddOutput(csv_path);
  ctx.Finish();
  return full_top == fraction_top ? 0 : 1;
}
