// perf_bench: the repository's end-to-end benchmark.
//
// Runs four fixed workloads (olap_mix, scan_adhoc, ingest_mix, sharded_mix)
// through the public APIs of serve, db, sql, opt, txn and shard, checks
// every answer, and prints each end-to-end metric as
//   <workload> <metric> <value> <unit>
// With --out=FILE the same values are written as JSON; with --trace=DIR
// every workload repeats its window with spans recorded, the spans are
// written to DIR/<workload>.spans.json and the per-layer metrics printed.
//
//   perf_bench --workload=all --seed=1 --out=perf.json
//   perf_bench --workload=olap_mix --seed=3 --seconds=10 --trace=trace
//
// --workload=all runs each workload in a process of its own, so peak RSS
// and caches never carry over. The program takes no engine settings: each
// workload fixes its configuration, and the header line prints it as read
// back from the constructed objects. Exit status is 0 only when every
// answer and every correctness gate passed.

#include <spawn.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "workloads.h"

extern char** environ;

namespace perfeval {
namespace perfbench {
namespace {

struct Args {
  std::string workload = "all";
  RunConfig config;
  bool seconds_set = false;
  std::string out;
  std::string trace_dir;
};

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perf_bench: %s\n"
               "usage: perf_bench [--workload=all|olap_mix|scan_adhoc|"
               "ingest_mix|sharded_mix] [--seed=N] [--seconds=S] "
               "[--out=FILE] [--trace=DIR] [--smoke]\n",
               problem.c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* problem) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> std::optional<std::string> {
      std::string prefix = std::string(flag) + "=";
      if (!StartsWith(arg, prefix)) {
        return std::nullopt;
      }
      return arg.substr(prefix.size());
    };
    if (auto v = value("--workload")) {
      args->workload = *v;
    } else if (auto v = value("--seed")) {
      std::optional<int64_t> seed = ParseInt64(*v);
      if (!seed || *seed < 0) {
        *problem = "bad --seed " + *v;
        return false;
      }
      args->config.seed = static_cast<uint64_t>(*seed);
    } else if (auto v = value("--seconds")) {
      std::optional<double> seconds = ParseDouble(*v);
      if (!seconds || !(*seconds > 0.0) || *seconds > 3600.0) {
        *problem = "bad --seconds " + *v;
        return false;
      }
      args->config.seconds = *seconds;
      args->seconds_set = true;
    } else if (auto v = value("--out")) {
      args->out = *v;
    } else if (auto v = value("--trace")) {
      args->trace_dir = *v;
      args->config.trace = !v->empty();
    } else if (arg == "--smoke") {
      args->config.smoke = true;
    } else {
      *problem = "unknown argument " + arg;
      return false;
    }
  }
  if (args->config.smoke && !args->seconds_set) {
    args->config.seconds = 1.0;
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  return std::isfinite(v) ? StrFormat("%.17g", v) : "null";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string ReportJson(const WorkloadReport& r, const RunConfig& config) {
  std::string errors = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    errors += (i == 0 ? "" : ", ") + JsonString(r.errors[i]);
  }
  errors += "]";
  return StrFormat(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"smoke\": %s, "
      "\"header\": %s, \"correct\": %s, \"attempted\": %lld, \"failed\": "
      "%lld, \"errors\": %s, \"latency_n\": %zu, \"p99_supported\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s}\n",
      JsonString(r.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.smoke ? "true" : "false",
      JsonString(r.header).c_str(), r.correct ? "true" : "false",
      static_cast<long long>(r.attempted), static_cast<long long>(r.failed),
      errors.c_str(), r.latency_n, r.p99_supported ? "true" : "false",
      MetricsJson(r.end_to_end).c_str(), MetricsJson(r.per_layer).c_str());
}

void PrintReport(const WorkloadReport& r) {
  std::printf("# %s\n", r.header.c_str());
  for (const Metric& m : r.end_to_end) {
    if (m.name == "latency_p99_ms") {
      // A p99 needs ten samples beyond it to mean anything.
      if (r.p99_supported) {
        std::printf("%s %s %.6g %s n=%zu\n", r.workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str(), r.latency_n);
      } else {
        std::printf("%s %s unsupported %s n=%zu (value %.6g)\n",
                    r.workload.c_str(), m.name.c_str(), m.unit.c_str(),
                    r.latency_n, m.value);
      }
      continue;
    }
    std::printf("%s %s %.6g %s\n", r.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const Metric& m : r.per_layer) {
    std::printf("%s %s %.6g %s\n", r.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("# %s correct=%s attempted=%lld failed=%lld\n",
              r.workload.c_str(), r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (const std::string& e : r.errors) {
    std::printf("# %s error: %s\n", r.workload.c_str(), e.c_str());
  }
  std::fflush(stdout);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int RunOne(const Args& args) {
  WorkloadReport report = RunWorkload(args.workload, args.config);
  PrintReport(report);
  if (!args.out.empty() &&
      !WriteFile(args.out, ReportJson(report, args.config))) {
    std::fprintf(stderr, "perf_bench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  if (args.config.trace) {
    std::filesystem::create_directories(args.trace_dir);
    std::string path = args.trace_dir + "/" + args.workload + ".spans.json";
    if (!WriteFile(path, SpansJson(args.workload, report.spans))) {
      std::fprintf(stderr, "perf_bench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return report.correct ? 0 : 1;
}

/// --workload=all: one child process per workload, run one after another.
int RunAll(const Args& args) {
  int status = 0;
  std::string merged = "{\"runs\": [\n";
  for (size_t i = 0; i < WorkloadNames().size(); ++i) {
    const std::string& name = WorkloadNames()[i];
    std::vector<std::string> child = {
        "perf_bench", "--workload=" + name,
        "--seed=" + std::to_string(args.config.seed),
        "--seconds=" + JsonNumber(args.config.seconds)};
    std::string child_out = args.out.empty() ? "" : args.out + "." + name;
    if (!child_out.empty()) {
      child.push_back("--out=" + child_out);
    }
    if (args.config.trace) {
      child.push_back("--trace=" + args.trace_dir);
    }
    if (args.config.smoke) {
      child.push_back("--smoke");
    }
    std::vector<char*> argv;
    for (std::string& a : child) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    int wait_status = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0 ||
        waitpid(pid, &wait_status, 0) != pid || !WIFEXITED(wait_status) ||
        WEXITSTATUS(wait_status) != 0) {
      std::fprintf(stderr, "perf_bench: workload %s failed\n", name.c_str());
      status = 1;
    }
    if (!child_out.empty()) {
      std::ifstream in(child_out);
      std::stringstream text;
      text << in.rdbuf();
      std::string body = text.str();
      if (body.empty()) {
        body = "null\n";
      }
      merged += (i == 0 ? "" : ",") + body;
      std::filesystem::remove(child_out);
    }
  }
  merged += "]}\n";
  if (!args.out.empty() && !WriteFile(args.out, merged)) {
    std::fprintf(stderr, "perf_bench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return status;
}

int Main(int argc, char** argv) {
  Args args;
  std::string problem;
  if (!ParseArgs(argc, argv, &args, &problem)) {
    return Usage(problem);
  }
#ifndef NDEBUG
  if (!args.config.smoke) {
    std::fprintf(stderr,
                 "perf_bench: refusing to time a build without NDEBUG; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 2;
  }
#endif
  if (args.workload == "all") {
    return RunAll(args);
  }
  for (const std::string& name : WorkloadNames()) {
    if (name == args.workload) {
      return RunOne(args);
    }
  }
  return Usage("unknown workload " + args.workload);
}

}  // namespace
}  // namespace perfbench
}  // namespace perfeval

int main(int argc, char** argv) {
  return perfeval::perfbench::Main(argc, argv);
}
