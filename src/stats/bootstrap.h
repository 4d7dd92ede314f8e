#ifndef PERFEVAL_STATS_BOOTSTRAP_H_
#define PERFEVAL_STATS_BOOTSTRAP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/confidence.h"

namespace perfeval {
namespace stats {

/// Resamples drawn per bootstrap interval. Large enough that the
/// percentile endpoints are stable to well under the reporting precision.
constexpr int kBootstrapResamples = 10000;

/// Percentile-bootstrap confidence interval for the mean of `samples`:
/// draw `kBootstrapResamples` resamples with replacement, take the
/// empirical (alpha/2, 1-alpha/2) quantiles of the resampled means. Unlike
/// the Student-t interval it assumes nothing about the sample
/// distribution — benchmark timings are routinely skewed and multi-modal,
/// which is why Kalibera & Jones recommend bootstrap intervals for
/// reporting measured speedups. Deterministic: `seed` fully determines the
/// resampling. Requires >= 2 samples.
ConfidenceInterval BootstrapMeanCI(const std::vector<double>& samples,
                                   double confidence, uint64_t seed);

/// Fewest samples a bootstrap interval of the mean is reported from. n
/// values resampled with replacement form only C(2n-1, n) distinct
/// multisets — 3 at n = 2, 35 at n = 4, 126 at n = 5 — so below this
/// floor the percentile "interval" is an artifact of the handful of means
/// the resampling can produce. Below it, report the range and n.
constexpr size_t kMinBootstrapSamples = 5;

/// The mean of a sample, with its bootstrap interval when the sample
/// reaches kMinBootstrapSamples and with only its observed range below.
struct MeanEstimate {
  size_t n = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  bool has_ci = false;
  ConfidenceInterval ci;  ///< BootstrapMeanCI; meaningful iff has_ci.

  /// "12.3 [11.8,12.9] n=8" with an interval, "12.3 (range 11.8-12.9,
  /// n=2)" without; values printed with `precision` decimals.
  std::string ToString(int precision = 2) const;
};

/// Mean of `samples` (>= 1) with BootstrapMeanCI(samples, confidence,
/// seed) when samples.size() >= kMinBootstrapSamples, else with the
/// range only.
MeanEstimate EstimateMean(const std::vector<double>& samples,
                          double confidence, uint64_t seed);

/// Percentile-bootstrap interval for the ratio mean(numerator) /
/// mean(denominator) — the shape of a reported speedup, where numerator
/// and denominator are independent per-repetition timings of the two
/// systems. Each resample draws both sides independently with
/// replacement. `mean` is the plug-in ratio of the full-sample means.
/// Requires >= 2 samples on each side and a strictly positive denominator
/// mean in every resample.
ConfidenceInterval BootstrapRatioCI(const std::vector<double>& numerator,
                                    const std::vector<double>& denominator,
                                    double confidence, uint64_t seed);

/// Percentile-bootstrap interval for the p-th percentile (p in [0, 100]) of
/// `samples` — the shape of a reported tail latency. Each resample draws n
/// values with replacement and takes its R-7 percentile; the interval is
/// the empirical (alpha/2, 1-alpha/2) band of those statistics. Tail
/// percentiles of small samples have wide, asymmetric intervals — which is
/// the point: a p99 reported from 200 requests should not look as certain
/// as one from 20000 (Kalibera & Jones; paper slides 140–143). `resamples`
/// can be lowered from the default when n is large and the caller computes
/// many intervals per run. Requires >= 2 samples, no NaNs.
ConfidenceInterval BootstrapPercentileCI(const std::vector<double>& samples,
                                         double percentile, double confidence,
                                         uint64_t seed,
                                         int resamples = kBootstrapResamples);

/// Case-resampling bootstrap interval for the least-squares slope of y on
/// x: each resample draws n (x, y) pairs with replacement and refits the
/// slope (a resample whose x values are all equal has no slope and is
/// drawn again); the interval is the empirical (alpha/2, 1-alpha/2) band
/// of the refitted slopes. Unlike the Student-t slope interval it needs
/// no normal, equal-variance residuals, which timing samples rarely have.
/// `mean` is the full-sample slope. Requires >= 3 points and at least two
/// distinct x values.
ConfidenceInterval BootstrapSlopeCI(const std::vector<double>& x,
                                    const std::vector<double>& y,
                                    double confidence, uint64_t seed);

/// A least-squares slope with its bootstrap interval when the sample
/// reaches kMinBootstrapSamples points, and below that with only the
/// range of the slopes through every pair of points with distinct x.
struct SlopeEstimate {
  size_t n = 0;
  double slope = 0.0;
  double min = 0.0;
  double max = 0.0;
  bool has_ci = false;
  ConfidenceInterval ci;  ///< BootstrapSlopeCI; meaningful iff has_ci.

  /// Formatted like MeanEstimate::ToString.
  std::string ToString(int precision = 2) const;
};

/// The slope of y on x (>= 2 points, two distinct x values), estimated as
/// SlopeEstimate describes.
SlopeEstimate EstimateSlope(const std::vector<double>& x,
                            const std::vector<double>& y, double confidence,
                            uint64_t seed);

}  // namespace stats
}  // namespace perfeval

#endif  // PERFEVAL_STATS_BOOTSTRAP_H_
