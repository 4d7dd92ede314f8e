// Shared offered-load-sweep machinery for the serving benches (A8's
// single-node service, A10's sharded front-end): closed-loop capacity
// calibration, an open-loop Poisson sweep at fractions of that capacity,
// percentile summaries with bootstrap CIs, JSON cell emission, and the
// throughput–latency chart. Factored here so both benches measure and
// report identically — a capacity or percentile difference between A8 and
// A10 is then a system difference, never a harness difference.

#ifndef PERFEVAL_BENCH_LOAD_SWEEP_H_
#define PERFEVAL_BENCH_LOAD_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/metrics.h"
#include "report/gnuplot.h"
#include "report/table_format.h"
#include "serve/loadgen.h"
#include "serve/service.h"
#include "stats/confidence.h"

namespace perfeval {
namespace bench {

/// The percentiles every serving bench reports, and their labels.
inline constexpr double kSweepConfidence = 0.95;
inline constexpr int kSweepNumPercentiles = 4;
extern const double kSweepPercentiles[kSweepNumPercentiles];
extern const char* const kSweepPercentileNames[kSweepNumPercentiles];

/// One client-latency percentile of a run. Reported only where the run's
/// sample supports it (stats::PercentileSupported): further out, the
/// estimate rests on the few slowest requests and the upper end of its
/// bootstrap interval is just the sample maximum.
struct LatencyPercentile {
  size_t n = 0;            ///< latencies the percentile is taken over.
  bool supported = false;  ///< whether reports may print it.
  double ms = 0.0;         ///< point estimate, for charts and verdicts.
  stats::ConfidenceInterval ci;  ///< bootstrap CI in ms; zero unless
                                 ///< supported.

  /// "12.30 [11.80,12.90]" (or "12.30" without `with_ci`); "n/a (n=48)"
  /// when unsupported.
  std::string ToString(bool with_ci) const;
  /// {"ms": ..., "ci_lower_ms": ..., "ci_upper_ms": ..., "confidence":
  /// ...}, or null when unsupported.
  std::string ToJson() const;
};

/// The p-th percentile of `latency` (p in [0, 100]) in ms, with its
/// deterministic bootstrap CI when the sample supports it.
LatencyPercentile SummarizePercentile(const serve::LatencyHistogram& latency,
                                      double p, uint64_t ci_seed,
                                      int resamples);

/// Appends `percentile` at `x` to a chart series, with its CI half-width
/// as the error bar, only where the sample supports it: a point the
/// table prints as "n/a" would claim what the table does not.
void AppendSupportedPoint(core::Series* series, double x,
                          const LatencyPercentile& percentile);

/// Adds the curves of one percentile (one per sweep) that have a point
/// to `chart`. A curve with none is left off, and the chart's title names
/// the percentile and says why.
void AddPercentileCurves(const std::string& percentile,
                         const std::vector<core::Series>& curves,
                         report::ChartSpec* chart);

/// One measured cell of an offered-load sweep.
struct LoadCell {
  double offered_qps = 0.0;
  double achieved_qph = 0.0;
  int64_t errors = 0;
  LatencyPercentile percentiles[kSweepNumPercentiles];
};

/// Summarizes one load-generator run into a cell: client-observed
/// percentiles with deterministic bootstrap CIs (SummarizePercentile).
LoadCell SummarizeLoadRun(double offered_qps, const serve::LoadResult& run,
                          uint64_t ci_seed, int resamples);

/// {"offered_qps": ..., "achieved_qph": ..., "errors": ...,
///  "percentiles": {"p50": {...}, ...}} — one JSON object per cell.
std::string LoadCellJson(const LoadCell& cell);

struct LoadSweepOptions {
  /// Requests per cell (calibration run and each sweep cell).
  int requests = 400;
  /// Closed-loop client population of the capacity calibration (one per
  /// service worker is the convention: zero think time, full pipeline).
  int capacity_clients = 4;
  /// Open-loop offered load, as fractions of the calibrated capacity.
  std::vector<double> fractions = {0.3, 0.5, 0.7, 0.85, 1.0};
  uint64_t run_seed = 42;
  int resamples = 1000;
  /// TPC-H query numbers sampled per request; all 22 when empty.
  std::vector<int> query_mix;
  /// Run one unmeasured closed-loop pass first (buffer-pool warmup).
  bool warmup = true;
};

struct LoadSweepResult {
  /// Closed-loop capacity: achieved q/s with `capacity_clients` clients
  /// and zero think time.
  double capacity_qps = 0.0;
  /// The measured calibration run (A8's coordinated-omission comparison
  /// reuses it as the closed-loop cell).
  serve::LoadResult closed_run;
  LoadCell closed_cell;
  /// One open-loop cell per fraction, in `fractions` order.
  std::vector<LoadCell> cells;
  /// p50/p99 vs offered q/s, chart-ready: a point estimate with its CI
  /// half-width error bar for each cell whose sample supports the
  /// percentile (AppendSupportedPoint), none for the others.
  core::Series p50_series;
  core::Series p99_series;
};

/// Calibrates capacity closed-loop, then sweeps open-loop Poisson load at
/// the configured fractions. Deterministic in (options, service state).
LoadSweepResult RunLoadSweep(serve::QueryService* service,
                             const LoadSweepOptions& options);

/// The sweep rendered as the standard text table (offered/achieved/
/// percentile columns, CI brackets on p50 and p99, "n/a (n=…)" where the
/// sample does not support a percentile).
report::TextTable SweepTable(const std::vector<LoadCell>& cells);

/// The sweep cells as a JSON array literal, one cell per line, indented by
/// `indent` spaces.
std::string SweepJson(const std::vector<LoadCell>& cells, int indent);

/// Writes the throughput–latency curve (p50 + p99 with error bars) as
/// gnuplot script and SVG at `stem`.{gnu,svg}, leaving off a curve no
/// cell supports (AddPercentileCurves).
Status WriteThroughputLatencyChart(const LoadSweepResult& sweep,
                                   const std::string& title,
                                   const std::string& stem);

}  // namespace bench
}  // namespace perfeval

#endif  // PERFEVAL_BENCH_LOAD_SWEEP_H_
