#ifndef PERFEVAL_BENCH_BENCH_UTIL_H_
#define PERFEVAL_BENCH_BENCH_UTIL_H_

#include <string>

#include "common/result.h"
#include "core/environment.h"
#include "db/join.h"
#include "repro/manifest.h"
#include "repro/properties.h"
#include "sched/options.h"

namespace perfeval {
namespace db {
class Database;
}  // namespace db
}  // namespace perfeval

namespace perfeval {
namespace bench {

/// Whether a bench applies the database knobs (`--dbThreads`, `--dbJoin`,
/// `--radixBits`) through BenchContext::ApplyDbKnobs.
enum class DbKnobs {
  kIgnored,  ///< the bench never applies them; giving one is a usage error.
  kApplied,  ///< the bench calls ApplyDbKnobs on the database it runs.
};

/// Which plans a bench that applies the database knobs runs, so its
/// `db knobs:` line names them. A bench declares this; no flag sets it.
enum class PlanSource {
  /// Rule-order plans only (`plans=rule-order`).
  kRuleOrder,
  /// Rule-order plans and opt::Optimize's plans side by side
  /// (`plans=rule-order+optimized`).
  kRuleOrderAndOptimized,
};

/// Whether a bench schedules its trials through
/// BenchContext::ScheduleOptions (`--jobs`, `--order`, `--isolation`,
/// `--schedSeed`, `--progress`).
enum class ScheduleKnobs {
  kIgnored,  ///< the bench runs its own loop; giving one is a usage error.
  kApplied,  ///< the bench builds its sched::Scheduler from ScheduleOptions.
};

/// Shared scaffolding for the experiment binaries: every bench
///  1. parses -Dkey=value overrides into Properties (paper, slides
///     183–195) plus, for a bench that schedules its trials, the uniform
///     scheduler flags `--jobs=N --order=design|randomized|interleaved
///      --isolation=concurrent|exclusive --progress`,
///  2. prints the environment spec at the paper's recommended granularity
///     (slides 149–156),
///  3. writes results + a provenance manifest under `results_dir`.
class BenchContext {
 public:
  /// `experiment_id` is the DESIGN.md id ("T2", "F1", ...). An argument
  /// that is neither a -Dkey=value property nor a known flag is a usage
  /// error: it prints `usage: unknown argument ...` and exits with 2. So
  /// is an unparsable `--order`/`--isolation`, a database or scheduler
  /// knob (as a flag or a -D property) given to a bench that declares it
  /// `kIgnored`: it would run on with a value it never reads and label
  /// its results with it, and `-DdbOpt` in every bench: which plans a
  /// bench runs is its declared PlanSource.
  BenchContext(const std::string& experiment_id,
               const std::string& protocol_description, int argc,
               char** argv, DbKnobs db_knobs = DbKnobs::kIgnored,
               ScheduleKnobs schedule = ScheduleKnobs::kIgnored);

  repro::Properties& properties() { return properties_; }
  const core::EnvironmentSpec& environment() const { return environment_; }

  /// Scheduler options assembled from the uniform flags (equivalently the
  /// `jobs` / `order` / `isolation` / `schedSeed` / `progress` properties,
  /// so PERFEVAL_jobs=4 and -Djobs=4 work too). An unparsable `order` or
  /// `isolation` is a usage error (message on stderr, exit 2, already at
  /// construction): a fallback would run a schedule nobody asked for
  /// under the name of the one that was. The options land in the manifest
  /// via the properties, so the documented protocol covers the schedule.
  /// Only a bench constructed with ScheduleKnobs::kApplied may call it.
  sched::Options ScheduleOptions() const;

  /// Worker threads for morsel-driven intra-query parallelism
  /// (`--dbThreads=N`, equivalently the `dbThreads` property; default 1).
  /// A pure concurrency knob: query results and storage stats are
  /// identical at any setting, only wall-clock time changes. A value
  /// below 1 is a usage error, not silently clamped to 1.
  Result<int> DbThreads() const;

  /// Join algorithm knob (`--dbJoin=<hash|radix|merge>`,
  /// equivalently the `dbJoin` property; default radix). Unlike the
  /// scheduler flags this is a *treatment* knob — a typo would silently
  /// measure the wrong engine — so an unrecognized value is a hard usage
  /// error, never a fallback.
  Result<db::JoinAlgo> DbJoin() const;

  /// Applies the validated database knobs (`--dbThreads`, `--dbJoin`,
  /// `--radixBits`) to `database`, returning the first usage error. Only
  /// a bench constructed with DbKnobs::kApplied may call it. Benches call
  /// this once after constructing their Database so every binary honours
  /// the uniform flags identically. On success it prints one `db knobs:`
  /// line read back from `database`, naming the plans per `plans`, and
  /// adds the same line to the manifest; benches that never call it
  /// report no knobs, because none were applied.
  Status ApplyDbKnobs(db::Database* database, PlanSource plans);

  /// `--smoke` (equivalently `-Dsmoke=true`): ask the bench for its
  /// seconds-scale fast path — tiny configs, few repetitions — so ctest
  /// can exercise the full measurement/report pipeline on every run. The
  /// emitted numbers are pipeline checks, not publishable measurements.
  bool Smoke() const;

  /// bench_results/<stem> — all artifacts of this experiment go there.
  std::string ResultPath(const std::string& file_name) const;

  /// Prints the standard header: experiment id/title and environment.
  void PrintHeader(const std::string& title) const;

  /// Registers an output for the manifest.
  void AddOutput(const std::string& path) { manifest_.AddOutput(path); }
  void AddNote(const std::string& note) { manifest_.AddNote(note); }

  /// Writes the manifest; call last. Returns the manifest path.
  std::string Finish();

 private:
  std::string experiment_id_;
  DbKnobs db_knobs_;
  ScheduleKnobs schedule_;
  std::string results_dir_;
  repro::Properties properties_;
  core::EnvironmentSpec environment_;
  repro::RunManifest manifest_;
};

}  // namespace bench
}  // namespace perfeval

#endif  // PERFEVAL_BENCH_BENCH_UTIL_H_
