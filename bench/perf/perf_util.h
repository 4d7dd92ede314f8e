#ifndef PERFEVAL_BENCH_PERF_PERF_UTIL_H_
#define PERFEVAL_BENCH_PERF_PERF_UTIL_H_

// Helpers of the end-to-end benchmark that carry no engine state: exact
// percentiles and their support rule, the seeded request schedules, the
// write-path rows, and the process memory readers. Kept apart from the
// workloads so perf_bench_test can pin each one down.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "db/value.h"

namespace perfeval {
namespace perfbench {

/// One reported number, printed as `<workload> <name> <value> <unit>`.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile of raw samples: the smallest sample such that at
/// least p% of the samples are <= it. Always an observed value, never
/// interpolated or bucketed. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// A percentile is reported as supported only when at least ten samples lie
/// beyond it; for p99 that means n >= 1000.
bool PercentileSupported(size_t n, double p);

/// The 22 TPC-H query numbers in the order client `client` cycles through
/// them, a pure function of (seed, client).
std::vector<int> ClientPermutation(uint64_t seed, int client);

/// scan_adhoc's pool of SQL texts: kAdhocParams Q1-shaped texts (group-by
/// under a shipdate cutoff) followed by kAdhocParams Q6-shaped texts
/// (one-year window, discount band, quantity cap), parameters drawn from
/// the seed.
inline constexpr int kAdhocParams = 64;
std::vector<std::string> AdhocSqlPool(uint64_t seed);

/// Index into AdhocSqlPool of request `seq`: Q1-shaped with probability
/// kAdhocQ1Share, parameter set uniform over the template's pool. The two
/// shapes differ about tenfold in latency; at an even mix the median sits
/// on the gap between them and jumps from run to run, so the Q1 share is
/// kept well below one half and the median falls inside the Q6 shape.
inline constexpr double kAdhocQ1Share = 0.3;
size_t AdhocChoice(uint64_t seed, uint64_t seq);

/// What the ingest writer needs to know about the loaded data to make rows
/// that no TPC-H query can see.
struct IngestKeys {
  int64_t max_orderkey = 0;
  int64_t customers = 0;
  int64_t parts = 0;
  int64_t suppliers = 0;
};

/// One commit of the ingest writer: one orders row and kLinesPerCommit
/// lineitem rows for the fresh order key max_orderkey + 1 + commit.
///
/// The rows are invisible to all 22 queries, so every read's answer stays
/// checkable against its pre-ingest fingerprint while the write path does
/// its full work: dates lie after every query window (1999), the customer,
/// part and supplier keys exist in no dimension table (inner joins drop
/// them), the order comment matches Q13's excluded '%special%requests%',
/// the status is 'O' (Q21 wants 'F'), the return flag 'N' (Q10 wants 'R')
/// and the order's summed quantity stays far below Q18's 300.
inline constexpr int kLinesPerCommit = 4;
struct WriterCommit {
  std::vector<db::Value> order;
  std::vector<std::vector<db::Value>> lines;
};
WriterCommit WriterRows(uint64_t seed, uint64_t commit, const IngestKeys& keys);

/// Value in kB of `key` ("VmHWM", "VmRSS") in /proc/<pid>/status text;
/// -1 when absent or malformed.
int64_t StatusFieldKb(const std::string& status_text, const std::string& key);

/// Peak and current resident set size of this process in MB (VmHWM and
/// VmRSS of /proc/self/status); -1 when unreadable.
double PeakRssMb();
double CurrentRssMb();

}  // namespace perfbench
}  // namespace perfeval

#endif  // PERFEVAL_BENCH_PERF_PERF_UTIL_H_
