#include "perf_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/random.h"
#include "db/types.h"

namespace perfeval {
namespace perfbench {
namespace {

// Stream tags keep the schedules of one seed independent of each other.
constexpr uint64_t kPermutationTag = 0x7065726d;  // "perm"
constexpr uint64_t kAdhocPoolTag = 0x706f6f6c;    // "pool"
constexpr uint64_t kAdhocPickTag = 0x7069636b;    // "pick"
constexpr uint64_t kWriterTag = 0x77726974;       // "writ"

std::string DateLiteral(int32_t days) {
  return "DATE '" + db::FormatDate(days) + "'";
}

std::string Money(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// 1-based nearest rank ceil(p * n / 100) of n >= 1 samples, computed so
/// that an integral p * n stays exact.
size_t NearestRank(size_t n, double p) {
  auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= 10;
}

std::vector<int> ClientPermutation(uint64_t seed, int client) {
  std::vector<int> queries(22);
  for (int q = 0; q < 22; ++q) {
    queries[static_cast<size_t>(q)] = q + 1;
  }
  Pcg32 rng(MixSeed(seed, static_cast<uint64_t>(client), kPermutationTag));
  for (size_t i = queries.size() - 1; i > 0; --i) {
    size_t j = rng.NextBounded(static_cast<uint32_t>(i + 1));
    std::swap(queries[i], queries[j]);
  }
  return queries;
}

std::vector<std::string> AdhocSqlPool(uint64_t seed) {
  // Parameter ranges follow the TPC-H substitution rules for Q1 (DELTA in
  // [60, 120] days) and Q6 (DATE = Jan 1 of 1993..1997, DISCOUNT in
  // [0.02, 0.09] with a +-0.01 band, QUANTITY in [24, 25]).
  Pcg32 rng(MixSeed(seed, 0, kAdhocPoolTag));
  std::vector<std::string> pool;
  pool.reserve(2 * kAdhocParams);
  const int32_t q1_base = db::DateFromYmd(1998, 12, 1);
  for (int i = 0; i < kAdhocParams; ++i) {
    int32_t cutoff = q1_base - static_cast<int32_t>(rng.NextInRange(60, 120));
    pool.push_back(
        "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
        "sum(l_extendedprice) AS sum_base_price, "
        "sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
        "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
        "avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price, "
        "avg(l_discount) AS avg_disc, count(*) AS count_order "
        "FROM lineitem WHERE l_shipdate <= " +
        DateLiteral(cutoff) +
        " GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus");
  }
  for (int i = 0; i < kAdhocParams; ++i) {
    int year = static_cast<int>(rng.NextInRange(1993, 1997));
    double discount = static_cast<double>(rng.NextInRange(2, 9)) / 100.0;
    int64_t quantity = rng.NextInRange(24, 25);
    pool.push_back(
        "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_shipdate >= " +
        DateLiteral(db::DateFromYmd(year, 1, 1)) +
        " AND l_shipdate < " + DateLiteral(db::DateFromYmd(year + 1, 1, 1)) +
        " AND l_discount BETWEEN " + Money(discount - 0.01) + " AND " +
        Money(discount + 0.01) +
        " AND l_quantity < " + std::to_string(quantity));
  }
  return pool;
}

size_t AdhocChoice(uint64_t seed, uint64_t seq) {
  Pcg32 rng(MixSeed(seed, seq, kAdhocPickTag));
  bool q1 = rng.NextBernoulli(kAdhocQ1Share);
  size_t param = rng.NextBounded(kAdhocParams);
  return (q1 ? 0 : kAdhocParams) + param;
}

WriterCommit WriterRows(uint64_t seed, uint64_t commit,
                        const IngestKeys& keys) {
  using db::Value;
  Pcg32 rng(MixSeed(seed, commit, kWriterTag));
  const int64_t orderkey = keys.max_orderkey + 1 + static_cast<int64_t>(commit);
  const int32_t orderdate = db::DateFromYmd(1999, 1, 1) +
                            static_cast<int32_t>(rng.NextInRange(0, 180));
  WriterCommit out;
  out.order = {Value::Int64(orderkey),
               Value::Int64(keys.customers + 1),
               Value::String("O"),
               Value::Double(rng.NextDoubleInRange(800.0, 500000.0)),
               Value::Date(orderdate),
               Value::String("5-LOW"),
               Value::String("Clerk#000000001"),
               Value::Int64(0),
               Value::String("ingested with special requests")};
  for (int line = 1; line <= kLinesPerCommit; ++line) {
    double quantity = static_cast<double>(rng.NextInRange(1, 50));
    int32_t shipdate =
        orderdate + static_cast<int32_t>(rng.NextInRange(1, 121));
    out.lines.push_back(
        {Value::Int64(orderkey), Value::Int64(keys.parts + 1),
         Value::Int64(keys.suppliers + 1), Value::Int64(line),
         Value::Double(quantity), Value::Double(quantity * 901.0),
         Value::Double(static_cast<double>(rng.NextInRange(0, 10)) / 100.0),
         Value::Double(static_cast<double>(rng.NextInRange(0, 8)) / 100.0),
         Value::String("N"), Value::String("O"), Value::Date(shipdate),
         Value::Date(orderdate + 60),
         Value::Date(shipdate + static_cast<int32_t>(rng.NextInRange(1, 30))),
         Value::String("NONE"), Value::String("TRUCK"),
         Value::String("ingested line")});
  }
  return out;
}

int64_t StatusFieldKb(const std::string& status_text, const std::string& key) {
  std::istringstream in(status_text);
  std::string line;
  const std::string prefix = key + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    std::istringstream fields(line.substr(prefix.size()));
    int64_t kb = -1;
    std::string unit;
    if (!(fields >> kb >> unit) || unit != "kB" || kb < 0) {
      return -1;
    }
    return kb;
  }
  return -1;
}

namespace {

double StatusFieldMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  int64_t kb = StatusFieldKb(text.str(), key);
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS"); }

}  // namespace perfbench
}  // namespace perfeval
