// T8 — paper slide 142: "Plot random quantities without confidence
// intervals ... overlapping confidence intervals sometimes mean the two
// quantities are statistically indifferent."
// Two scenarios on live measurements of the database engine:
//  (a) two genuinely different configurations -> disjoint CIs, a winner;
//  (b) the same configuration measured twice under noise -> overlapping
//      CIs, verdict "statistically indifferent".

#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "db/database.h"
#include "report/table_format.h"
#include "stats/compare.h"
#include "workload/micro.h"

namespace perfeval {
namespace {

/// Measures one filtered scan `repetitions` times (hot), returning
/// user-CPU samples in ms with deterministic pseudo-noise added to model
/// run-to-run variation at a controlled magnitude.
std::vector<double> MeasureScans(db::Database& database,
                                 const db::PlanPtr& plan, int repetitions,
                                 double noise_ms, uint64_t seed) {
  Pcg32 rng(seed);
  (void)database.Run(plan);  // warm-up.
  std::vector<double> samples;
  for (int i = 0; i < repetitions; ++i) {
    double ms = database.Run(plan).ServerUserMs();
    samples.push_back(ms + std::fabs(rng.NextGaussian()) * noise_ms);
  }
  return samples;
}

}  // namespace
}  // namespace perfeval

int main(int argc, char** argv) {
  using namespace perfeval;  // NOLINT(build/namespaces) bench binary.
  bench::BenchContext ctx("T8", "hot runs, 10 measured repetitions per side",
                          argc, argv);
  ctx.properties().SetDefault("rows", "400000");
  ctx.PrintHeader("confidence-interval overlap and verdicts");

  workload::MicroTableSpec spec;
  spec.name = "micro";
  spec.num_rows =
      static_cast<size_t>(ctx.properties().GetInt("rows", 400000));
  spec.columns.push_back({"v", workload::Distribution::kUniform, 0,
                          1'000'000, 1.0, 0.0});
  db::Database database;
  database.RegisterTable("micro", workload::GenerateMicroTable(spec));
  const db::Schema& schema = database.GetTable("micro").schema();

  // (a) Cheap vs expensive plan: selectivity 10% vs 90% of a scan.
  db::PlanPtr cheap = db::FilterScan(
      "micro", schema, {"v"},
      workload::PredicateForSelectivity(database.GetTable("micro"), "v",
                                        0.1));
  db::PlanPtr expensive = db::Filter(
      db::FilterScan("micro", schema, {"v"},
                     workload::PredicateForSelectivity(
                         database.GetTable("micro"), "v", 0.9)),
      db::Ge(db::Col(schema, "v"), db::LitInt(0)));

  std::vector<double> mine = MeasureScans(database, cheap, 10, 0.02, 1);
  std::vector<double> yours =
      MeasureScans(database, expensive, 10, 0.02, 2);
  stats::Comparison different = stats::CompareUnpaired(mine, yours, 0.95);
  std::printf("(a) different plans:\n    %s\n\n",
              different.ToString().c_str());

  // (b) The same plan measured twice with noise comparable to the
  // difference: no legitimate winner.
  std::vector<double> run1 = MeasureScans(database, cheap, 10, 0.8, 3);
  std::vector<double> run2 = MeasureScans(database, cheap, 10, 0.8, 4);
  stats::Comparison same = stats::CompareUnpaired(run1, run2, 0.95);
  std::printf("(b) same plan, noisy runs:\n    %s\n\n",
              same.ToString().c_str());

  stats::ConfidenceInterval ci1 = stats::MeanConfidenceInterval(run1, 0.95);
  stats::ConfidenceInterval ci2 = stats::MeanConfidenceInterval(run2, 0.95);
  std::printf("    MINE:  %s\n    YOURS: %s\n    intervals overlap: %s\n\n",
              ci1.ToString().c_str(), ci2.ToString().c_str(),
              ci1.Overlaps(ci2) ? "YES" : "NO");
  std::printf(
      "paper: overlapping confidence intervals sometimes mean the two "
      "quantities are statistically indifferent — claiming \"MINE is "
      "better\" from (b) would be a pictorial game.\n");

  bool shape = different.verdict == stats::Verdict::kAIsBetter &&
               same.verdict == stats::Verdict::kIndifferent;
  ctx.Finish();
  return shape ? 0 : 1;
}
