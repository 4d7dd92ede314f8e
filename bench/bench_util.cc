#include "bench_util.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"
#include "db/database.h"

namespace perfeval {
namespace bench {
namespace {

/// Maps the uniform scheduler flags onto properties so they flow into the
/// manifest like every other parameter. Returns true when consumed.
bool ConsumeScheduleFlag(const std::string& arg,
                         repro::Properties* properties) {
  const struct {
    const char* prefix;
    const char* key;
  } kFlags[] = {
      {"--jobs=", "jobs"},
      {"--order=", "order"},
      {"--isolation=", "isolation"},
      {"--schedSeed=", "schedSeed"},
      {"--dbThreads=", "dbThreads"},
      {"--dbJoin=", "dbJoin"},
      {"--radixBits=", "radixBits"},
      {"--dbOpt=", "dbOpt"},  // rejected in every bench, see below.
  };
  for (const auto& flag : kFlags) {
    std::string prefix = flag.prefix;
    if (arg.rfind(prefix, 0) == 0) {
      properties->Set(flag.key, arg.substr(prefix.size()));
      return true;
    }
  }
  if (arg == "--progress") {
    properties->Set("progress", "true");
    return true;
  }
  if (arg == "--smoke") {
    properties->Set("smoke", "true");
    return true;
  }
  return false;
}

constexpr const char* kDbKnobKeys[] = {"dbThreads", "dbJoin", "radixBits"};
constexpr const char* kScheduleKeys[] = {"jobs", "order", "isolation",
                                         "schedSeed", "progress"};

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

}  // namespace

BenchContext::BenchContext(const std::string& experiment_id,
                           const std::string& protocol_description,
                           int argc, char** argv, DbKnobs db_knobs,
                           ScheduleKnobs schedule)
    : experiment_id_(experiment_id),
      db_knobs_(db_knobs),
      schedule_(schedule),
      environment_(core::CaptureEnvironment()),
      manifest_(experiment_id, protocol_description) {
  properties_.SetDefault("resultsDir", "bench_results");
  properties_.SetDefault("smoke", "false");
  if (schedule_ == ScheduleKnobs::kApplied) {
    // The defaults land in the manifest, so it names the schedule that
    // ran, and make PERFEVAL_jobs=4 style overrides known keys.
    properties_.SetDefault("jobs", "1");
    properties_.SetDefault("order", "design");
    properties_.SetDefault("isolation", "exclusive");
    properties_.SetDefault("schedSeed", "0");
    properties_.SetDefault("progress", "false");
  }
  std::vector<std::string> rest = properties_.OverrideFromArgs(argc, argv);
  for (const std::string& arg : rest) {
    // Running on with defaults would measure a configuration nobody
    // asked for and label it with the one that was.
    if (!ConsumeScheduleFlag(arg, &properties_)) {
      UsageError(StrFormat(
          "usage: unknown argument '%s' (properties are -Dkey=value)",
          arg.c_str()));
    }
  }
  properties_.OverrideFromEnv("PERFEVAL_");
  // Which plans a bench runs is its declared PlanSource, not a knob.
  if (properties_.Has("dbOpt")) {
    UsageError(StrFormat(
        "usage: --dbOpt is not a knob: %s declares the plans it runs",
        experiment_id_.c_str()));
  }
  // A knob given to a bench that never applies it would run on with a
  // value it never reads and label its results with it.
  auto reject_given = [this](const auto& keys, const char* reason) {
    for (const char* key : keys) {
      if (properties_.Has(key)) {
        UsageError(StrFormat("usage: --%s is not honored by %s (it %s)", key,
                             experiment_id_.c_str(), reason));
      }
    }
  };
  if (db_knobs_ == DbKnobs::kIgnored) {
    reject_given(kDbKnobKeys, "applies no database knobs");
  }
  if (schedule_ == ScheduleKnobs::kIgnored) {
    reject_given(kScheduleKeys, "schedules no trials");
  } else {
    // Parsed here as well, so an unparsable --order/--isolation stops the
    // bench before it measures anything.
    ScheduleOptions();
  }
  results_dir_ = properties_.GetOr("resultsDir", "bench_results");
  manifest_.set_environment(environment_);
}

sched::Options BenchContext::ScheduleOptions() const {
  PERFEVAL_CHECK(schedule_ == ScheduleKnobs::kApplied)
      << experiment_id_ << " declared ScheduleKnobs::kIgnored";
  sched::Options options;
  options.experiment_id = experiment_id_;
  options.jobs = static_cast<int>(properties_.GetInt("jobs", 1));
  options.seed =
      static_cast<uint64_t>(properties_.GetInt("schedSeed", 0));
  options.progress = properties_.GetBool("progress", false);
  Result<core::RunOrder> order =
      sched::ParseRunOrder(properties_.GetOr("order", "design"));
  if (!order.ok()) {
    UsageError("usage: --order: " + order.status().message());
  }
  options.order = order.value();
  Result<core::IsolationPolicy> isolation =
      sched::ParseIsolationPolicy(properties_.GetOr("isolation", "exclusive"));
  if (!isolation.ok()) {
    UsageError("usage: --isolation: " + isolation.status().message());
  }
  options.isolation = isolation.value();
  return options;
}

Result<int> BenchContext::DbThreads() const {
  // Unparsable text reads as 0, so it is rejected with the same message.
  int64_t threads =
      ParseInt64(properties_.GetOr("dbThreads", "1")).value_or(0);
  if (threads < 1 || threads > INT32_MAX) {
    return Status::InvalidArgument(StrFormat(
        "usage: --dbThreads=N with N >= 1 (got \"%s\")",
        properties_.GetOr("dbThreads", "1").c_str()));
  }
  return static_cast<int>(threads);
}

Result<db::JoinAlgo> BenchContext::DbJoin() const {
  const std::string text = properties_.GetOr("dbJoin", "radix");
  Result<db::JoinAlgo> algo = db::ParseJoinAlgo(text);
  if (!algo.ok()) {
    return Status::InvalidArgument(StrFormat(
        "usage: --dbJoin=<hash|radix|merge> (got \"%s\")",
        text.c_str()));
  }
  return algo;
}

Status BenchContext::ApplyDbKnobs(db::Database* database,
                                  PlanSource plans) {
  PERFEVAL_CHECK(db_knobs_ == DbKnobs::kApplied)
      << experiment_id_ << " applies database knobs it declared ignored";
  Result<int> threads = DbThreads();
  if (!threads.ok()) {
    return threads.status();
  }
  database->set_threads(threads.value());
  Result<db::JoinAlgo> join = DbJoin();
  if (!join.ok()) {
    return join.status();
  }
  database->set_join_algo(join.value());
  database->set_radix_bits(
      static_cast<int>(properties_.GetInt("radixBits", 0)));
  // Treatment knobs are part of the experimental setup (paper, slides
  // 149–156). Read them back from the database the bench runs, so the
  // report names the configuration that ran, not the command line.
  std::string applied = StrFormat(
      "db knobs: threads=%d join=%s radix_bits=%d", database->threads(),
      db::JoinAlgoName(database->join_algo()), database->radix_bits());
  applied += plans == PlanSource::kRuleOrderAndOptimized
                 ? " plans=rule-order+optimized"
                 : " plans=rule-order";
  std::printf("%s\n", applied.c_str());
  AddNote(applied);
  return Status::OK();
}

bool BenchContext::Smoke() const {
  return properties_.GetBool("smoke", false);
}

std::string BenchContext::ResultPath(const std::string& file_name) const {
  return results_dir_ + "/" + file_name;
}

void BenchContext::PrintHeader(const std::string& title) const {
  std::printf("== %s: %s ==\n", experiment_id_.c_str(), title.c_str());
  std::printf("%s", environment_.ToReportString().c_str());
  std::printf("\n");
}

std::string BenchContext::Finish() {
  manifest_.set_properties(properties_);
  std::string path =
      ResultPath(StrFormat("%s_manifest.txt", experiment_id_.c_str()));
  Status status = manifest_.WriteToFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "manifest write failed: %s\n",
                 status.ToString().c_str());
  }
  return path;
}

}  // namespace bench
}  // namespace perfeval
