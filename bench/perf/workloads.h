#ifndef PERFEVAL_BENCH_PERF_WORKLOADS_H_
#define PERFEVAL_BENCH_PERF_WORKLOADS_H_

// The four fixed workloads of the end-to-end benchmark. Each runs through
// the public APIs of serve, db, sql, opt, txn and shard, checks every
// answer, and reports the end-to-end metrics (and, traced, the per-layer
// ones) of one process.

#include <cstdint>
#include <string>
#include <vector>

#include "perf_util.h"
#include "trace.h"

namespace perfeval {
namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Length of each measured window.
  double seconds = 30.0;
  /// Tiny data (sf 0.002) and one set-up: exercises every code path.
  bool smoke = false;
  /// Repeat the window with spans recorded and derive per-layer metrics.
  bool trace = false;
};

struct WorkloadReport {
  std::string workload;
  /// Configuration read back from the constructed engine objects.
  std::string header;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures
  size_t latency_n = 0;
  bool p99_supported = false;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // traced runs only
  std::vector<Span> spans;        // traced runs only
};

/// olap_mix, scan_adhoc, ingest_mix, sharded_mix.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload start to finish in this process.
WorkloadReport RunWorkload(const std::string& name, const RunConfig& config);

}  // namespace perfbench
}  // namespace perfeval

#endif  // PERFEVAL_BENCH_PERF_WORKLOADS_H_
