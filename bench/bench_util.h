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

/// Shared scaffolding for the experiment binaries: every bench
///  1. parses -Dkey=value overrides into Properties (paper, slides
///     183–195) plus the uniform scheduler flags
///     `--jobs=N --order=design|randomized|interleaved
///      --isolation=concurrent|exclusive --progress`,
///  2. prints the environment spec at the paper's recommended granularity
///     (slides 149–156),
///  3. writes results + a provenance manifest under `results_dir`.
class BenchContext {
 public:
  /// `experiment_id` is the DESIGN.md id ("T2", "F1", ...). An argument
  /// that is neither a -Dkey=value property nor a known flag is a usage
  /// error: it prints `usage: unknown argument ...` and exits with 2.
  BenchContext(const std::string& experiment_id,
               const std::string& protocol_description, int argc,
               char** argv);

  repro::Properties& properties() { return properties_; }
  const core::EnvironmentSpec& environment() const { return environment_; }

  /// Scheduler options assembled from the uniform flags (equivalently the
  /// `jobs` / `order` / `isolation` / `schedSeed` / `progress` properties,
  /// so PERFEVAL_jobs=4 and -Djobs=4 work too). Unparsable values fall
  /// back to the serial defaults with a warning on stderr — a typo must
  /// not silently change the experiment. The options land in the manifest
  /// via the properties, so the documented protocol covers the schedule.
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

  /// Cost-based-optimizer knob (`--dbOpt=<on|off>`, equivalently the
  /// `dbOpt` property; default off). Same strictness as DbJoin(): any
  /// value other than on/off/true/false is a usage error.
  Result<bool> DbOpt() const;

  /// Applies the validated database knobs (`--dbThreads`, `--dbJoin`,
  /// `--radixBits`, `--dbOpt`) to `database`, returning the
  /// first usage error. Benches call this once after constructing their
  /// Database so every binary honours the uniform flags identically. On
  /// success it prints one `db knobs:` line read back from `database` and
  /// adds the same line to the manifest; benches that never call it
  /// report no knobs, because none were applied.
  Status ApplyDbKnobs(db::Database* database);

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
  std::string results_dir_;
  repro::Properties properties_;
  core::EnvironmentSpec environment_;
  repro::RunManifest manifest_;
};

}  // namespace bench
}  // namespace perfeval

#endif  // PERFEVAL_BENCH_BENCH_UTIL_H_
