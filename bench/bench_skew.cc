// A4 — ablation: data skew as a controlled workload characteristic
// (slide 11: micro-benchmarks must control "value ranges and distribution,
// correlation"). The TPC-H generator's Zipf foreign-key knob sweeps the
// part-key skew from uniform (theta 0) to heavy (theta 1.5); the bench
// reports how the data changes (distinct keys, hottest key's share) and
// what that does to a hash join and a group-by on the skewed key. The
// honest punchline (measured, see EXPERIMENTS.md A4): the data profile
// changes dramatically while these in-memory operators barely move at this
// scale — materialization dominates the join, and the group-by's hash map
// fits in cache at every theta. A result quoted "on skewed data" without
// the data profile beside it says almost nothing.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "bench_util.h"
#include "common/string_util.h"
#include "db/database.h"
#include "report/csv.h"
#include "report/table_format.h"
#include "sched/scheduler.h"
#include "stats/descriptive.h"
#include "workload/tpch_gen.h"

namespace perfeval {
namespace {

constexpr double kThetas[] = {0.0, 0.5, 1.0, 1.5};

/// The generated tables for one theta, shared read-only by all of that
/// theta's trials (each trial registers them into its own Database, so no
/// execution state is shared between workers).
struct SkewTables {
  std::shared_ptr<db::Table> part;
  std::shared_ptr<db::Table> orders;
  std::shared_ptr<db::Table> lineitem;
};

struct DataProfile {
  int64_t distinct_parts;
  double top_key_share;
};

SkewTables GenerateAtTheta(double theta, double sf) {
  workload::TpchGenerator gen(sf, 19920101, theta);
  return {gen.Generate("part"), gen.Generate("orders"),
          gen.Generate("lineitem")};
}

DataProfile ProfileOf(const SkewTables& tables) {
  const auto& partkeys = tables.lineitem->ColumnByName("l_partkey").ints();
  std::unordered_map<int64_t, int64_t> counts;
  for (int64_t k : partkeys) {
    ++counts[k];
  }
  int64_t top = 0;
  for (const auto& [key, count] : counts) {
    top = std::max(top, count);
  }
  return {static_cast<int64_t>(counts.size()),
          static_cast<double>(top) / static_cast<double>(partkeys.size())};
}

/// One self-contained trial: a fresh Database over the shared tables, one
/// un-measured warm-up execution of the plan, then the measured run. Each
/// (theta, operator, replication) trial is an independent job for the
/// scheduler, so `--jobs`/`--order` never change the reported numbers.
core::Measurement MeasureTrial(const SkewTables& tables, bool join_op) {
  db::Database database;
  database.RegisterTable("part", tables.part);
  database.RegisterTable("orders", tables.orders);
  database.RegisterTable("lineitem", tables.lineitem);
  db::PlanPtr lineitem = db::Scan(
      "lineitem", tables.lineitem->schema(), {"l_partkey"});
  db::PlanPtr plan =
      join_op ? db::HashJoin(lineitem,
                             db::Scan("part", tables.part->schema(),
                                      {"p_partkey"}),
                             "l_partkey", "p_partkey")
              : db::Aggregate(lineitem, {"l_partkey"},
                              {{db::AggOp::kCount, nullptr, "n"}});
  (void)database.Run(plan);  // Warm this trial's own instance.
  core::Measurement m;
  m.user_ns =
      static_cast<int64_t>(database.Run(plan).ServerUserMs() * 1e6);
  return m;
}

}  // namespace
}  // namespace perfeval

int main(int argc, char** argv) {
  using namespace perfeval;  // NOLINT(build/namespaces) bench binary.
  bench::BenchContext ctx("A4",
                          "hot runs: 1 warm-up, minimum of 3, user CPU time",
                          argc, argv, bench::DbKnobs::kIgnored,
                          bench::ScheduleKnobs::kApplied);
  ctx.properties().SetDefault("scaleFactor", "0.02");
  ctx.PrintHeader("foreign-key skew sweep: data profile and operator cost");

  double sf = ctx.properties().GetDouble("scaleFactor", 0.02);

  // Generate the four datasets once, serially (generation is the expensive
  // part); profile them while the scheduler only measures operators.
  std::vector<SkewTables> tables;
  std::vector<DataProfile> profiles;
  for (double theta : kThetas) {
    tables.push_back(GenerateAtTheta(theta, sf));
    profiles.push_back(ProfileOf(tables.back()));
  }

  // theta x operator design, measured through the scheduler: every
  // (point, replication) pair is one self-contained trial.
  doe::Design design = doe::FullFactorialDesign(
      {doe::Factor("theta", {"0.0", "0.5", "1.0", "1.5"}),
       doe::Factor("operator", {"join", "group-by"})});
  core::RunProtocol protocol;
  protocol.warmup_runs = 0;  // Each trial warms its own Database instance.
  protocol.measured_runs = 3;
  protocol.aggregation = core::Aggregation::kMin;
  sched::Scheduler scheduler(ctx.ScheduleOptions());
  std::printf("schedule: %s\n\n",
              scheduler.options().ToScheduleSpec().Describe().c_str());
  Result<core::ExperimentResult> scheduled = scheduler.Run(
      design, protocol, core::ResponseMetric::kUserMs,
      [&](const doe::DesignPoint& point, const core::TrialSpec&) {
        return MeasureTrial(tables[point.levels[0]], point.levels[1] == 0);
      });
  if (!scheduled.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 scheduled.status().ToString().c_str());
    return 1;
  }
  // Factor 0 (theta) varies fastest: points 0..3 are the join at each
  // theta, points 4..7 the group-by.
  std::vector<double> y = scheduled->AggregatedResponses();

  report::TextTable table;
  table.SetHeader({"zipf theta", "distinct parts", "hottest key share",
                   "join (ms)", "group-by (ms)"});
  report::CsvWriter csv({"theta", "distinct_parts", "top_share", "join_ms",
                         "group_ms"});
  for (size_t t = 0; t < 4; ++t) {
    double join_ms = y[t];
    double group_ms = y[4 + t];
    table.AddRow({StrFormat("%.1f", kThetas[t]),
                  StrFormat("%lld",
                            static_cast<long long>(
                                profiles[t].distinct_parts)),
                  StrFormat("%.2f%%", profiles[t].top_key_share * 100.0),
                  StrFormat("%.2f", join_ms),
                  StrFormat("%.2f", group_ms)});
    csv.AddNumericRow({kThetas[t],
                       static_cast<double>(profiles[t].distinct_parts),
                       profiles[t].top_key_share, join_ms, group_ms});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "shape: rising theta concentrates references on few keys (distinct "
      "count falls, the hottest key's share climbs to ~40%%) while the "
      "operator costs stay within noise at this scale — the data profile "
      "and the timing must be reported together (slide 42: document "
      "accurately and completely what you do).\n");

  std::string csv_path = ctx.ResultPath("a4_skew.csv");
  if (!csv.WriteToFile(csv_path).ok()) {
    return 1;
  }
  ctx.AddOutput(csv_path);
  ctx.Finish();
  return 0;
}
