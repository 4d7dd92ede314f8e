#include "bench_util.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

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
      {"--dbOpt=", "dbOpt"},
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

}  // namespace

BenchContext::BenchContext(const std::string& experiment_id,
                           const std::string& protocol_description,
                           int argc, char** argv)
    : experiment_id_(experiment_id),
      environment_(core::CaptureEnvironment()),
      manifest_(experiment_id, protocol_description) {
  properties_.SetDefault("resultsDir", "bench_results");
  properties_.SetDefault("jobs", "1");
  properties_.SetDefault("order", "design");
  properties_.SetDefault("isolation", "exclusive");
  properties_.SetDefault("schedSeed", "0");
  properties_.SetDefault("progress", "false");
  properties_.SetDefault("dbThreads", "1");
  properties_.SetDefault("dbJoin", "radix");
  properties_.SetDefault("dbOpt", "off");
  properties_.SetDefault("smoke", "false");
  std::vector<std::string> rest = properties_.OverrideFromArgs(argc, argv);
  for (const std::string& arg : rest) {
    if (!ConsumeScheduleFlag(arg, &properties_)) {
      std::fprintf(stderr, "warning: ignoring unknown argument '%s'\n",
                   arg.c_str());
    }
  }
  properties_.OverrideFromEnv("PERFEVAL_");
  results_dir_ = properties_.GetOr("resultsDir", "bench_results");
  manifest_.set_environment(environment_);
}

sched::Options BenchContext::ScheduleOptions() const {
  sched::Options options;
  options.experiment_id = experiment_id_;
  options.jobs = static_cast<int>(properties_.GetInt("jobs", 1));
  options.seed =
      static_cast<uint64_t>(properties_.GetInt("schedSeed", 0));
  options.progress = properties_.GetBool("progress", false);
  Result<core::RunOrder> order =
      sched::ParseRunOrder(properties_.GetOr("order", "design"));
  if (order.ok()) {
    options.order = order.value();
  } else {
    std::fprintf(stderr, "warning: %s; using design order\n",
                 order.status().message().c_str());
  }
  Result<core::IsolationPolicy> isolation =
      sched::ParseIsolationPolicy(properties_.GetOr("isolation", "exclusive"));
  if (isolation.ok()) {
    options.isolation = isolation.value();
  } else {
    std::fprintf(stderr, "warning: %s; using exclusive isolation\n",
                 isolation.status().message().c_str());
  }
  return options;
}

Result<int> BenchContext::DbThreads() const {
  // Unparsable text reads as 0, so it is rejected with the same message.
  int64_t threads = properties_.GetInt("dbThreads", 0);
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
        "usage: --dbJoin=<legacy|hash|radix|merge> (got \"%s\")",
        text.c_str()));
  }
  return algo;
}

Result<bool> BenchContext::DbOpt() const {
  const std::string text = properties_.GetOr("dbOpt", "off");
  if (text == "on" || text == "true") {
    return true;
  }
  if (text == "off" || text == "false") {
    return false;
  }
  return Status::InvalidArgument(
      StrFormat("usage: --dbOpt=on|off (got \"%s\")", text.c_str()));
}

Status BenchContext::ApplyDbKnobs(db::Database* database) const {
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
  Result<bool> optimize = DbOpt();
  if (!optimize.ok()) {
    return optimize.status();
  }
  database->set_optimize(optimize.value());
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
  // Treatment knobs are part of the experimental setup (paper, slides
  // 149–156): echo them in every header so a report can never be read
  // without knowing which engine configuration produced it.
  std::printf(
      "db knobs: threads=%s join=%s opt=%s\n",
      properties_.GetOr("dbThreads", "1").c_str(),
      properties_.GetOr("dbJoin", "radix").c_str(),
      properties_.GetOr("dbOpt", "off").c_str());
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
