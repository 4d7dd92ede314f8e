#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace perfeval {
namespace stats {

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double x : samples) {
    total += x;
  }
  return total;
}

double Mean(const std::vector<double>& samples) {
  PERFEVAL_CHECK(!samples.empty()) << "Mean of empty sample";
  return Sum(samples) / static_cast<double>(samples.size());
}

double Variance(const std::vector<double>& samples) {
  PERFEVAL_CHECK_GE(samples.size(), 2u) << "Variance needs >= 2 samples";
  double mean = Mean(samples);
  double accum = 0.0;
  for (double x : samples) {
    double d = x - mean;
    accum += d * d;
  }
  return accum / static_cast<double>(samples.size() - 1);
}

double StdDev(const std::vector<double>& samples) {
  return std::sqrt(Variance(samples));
}

double CoefficientOfVariation(const std::vector<double>& samples) {
  double mean = Mean(samples);
  PERFEVAL_CHECK(mean != 0.0) << "CoV undefined for zero mean";
  return StdDev(samples) / mean;
}

double Min(const std::vector<double>& samples) {
  PERFEVAL_CHECK(!samples.empty());
  return *std::min_element(samples.begin(), samples.end());
}

double Max(const std::vector<double>& samples) {
  PERFEVAL_CHECK(!samples.empty());
  return *std::max_element(samples.begin(), samples.end());
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

double Percentile(const std::vector<double>& samples, double p) {
  PERFEVAL_CHECK(!samples.empty());
  PERFEVAL_CHECK_GE(p, 0.0);
  PERFEVAL_CHECK_LE(p, 100.0);
  for (double x : samples) {
    PERFEVAL_CHECK(!std::isnan(x)) << "Percentile over NaN is undefined";
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) {
    return sorted[0];
  }
  double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

bool PercentileSupported(size_t n, double p) {
  PERFEVAL_CHECK_GE(p, 0.0);
  PERFEVAL_CHECK_LE(p, 100.0);
  // The tolerance absorbs rounding: 100 - 99.9 is a hair below 0.1, and
  // p99.9 at n = 10000 must count exactly 10 samples beyond it.
  double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
  return beyond + 1e-6 >= static_cast<double>(kMinTailSamples);
}

double GeometricMean(const std::vector<double>& samples) {
  PERFEVAL_CHECK(!samples.empty());
  double log_sum = 0.0;
  for (double x : samples) {
    PERFEVAL_CHECK_GT(x, 0.0) << "GeometricMean needs positive samples";
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double HarmonicMean(const std::vector<double>& samples) {
  PERFEVAL_CHECK(!samples.empty());
  double reciprocal_sum = 0.0;
  for (double x : samples) {
    PERFEVAL_CHECK_GT(x, 0.0) << "HarmonicMean needs positive samples";
    reciprocal_sum += 1.0 / x;
  }
  return static_cast<double>(samples.size()) / reciprocal_sum;
}

std::string Summary::ToString() const {
  return StrFormat("n=%zu mean=%.6g stddev=%.6g min=%.6g median=%.6g max=%.6g",
                   count, mean, stddev, min, median, max);
}

Summary Summarize(const std::vector<double>& samples) {
  PERFEVAL_CHECK(!samples.empty());
  Summary s;
  s.count = samples.size();
  s.mean = Mean(samples);
  s.stddev = samples.size() >= 2 ? StdDev(samples) : 0.0;
  s.min = Min(samples);
  s.max = Max(samples);
  s.median = Median(samples);
  return s;
}

}  // namespace stats
}  // namespace perfeval
