#include "stats/bootstrap.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/random.h"
#include "common/string_util.h"
#include "stats/descriptive.h"

namespace perfeval {
namespace stats {
namespace {

double MeanOf(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return sum / static_cast<double>(v.size());
}

double ResampledMean(const std::vector<double>& samples, Pcg32* rng) {
  double sum = 0.0;
  uint32_t n = static_cast<uint32_t>(samples.size());
  for (uint32_t i = 0; i < n; ++i) {
    sum += samples[rng->NextBounded(n)];
  }
  return sum / static_cast<double>(n);
}

/// Empirical quantile by linear interpolation over the sorted resample
/// statistics.
double Quantile(const std::vector<double>& sorted, double q) {
  double position = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(position));
  size_t hi = static_cast<size_t>(std::ceil(position));
  double frac = position - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Least-squares slope of y on x; NaN when every x is equal.
double OlsSlope(const std::vector<double>& x, const std::vector<double>& y) {
  double mean_x = MeanOf(x);
  double mean_y = MeanOf(y);
  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mean_x) * (x[i] - mean_x);
    sxy += (x[i] - mean_x) * (y[i] - mean_y);
  }
  return sxx > 0.0 ? sxy / sxx : std::nan("");
}

/// "12.3 [11.8,12.9] n=8" with an interval, "12.3 (range 11.8-12.9,
/// n=2)" without.
std::string FormatEstimate(double point, size_t n, bool has_ci,
                           const ConfidenceInterval& ci, double min,
                           double max, int precision) {
  if (has_ci) {
    return StrFormat("%.*f [%.*f,%.*f] n=%zu", precision, point, precision,
                     ci.lower, precision, ci.upper, n);
  }
  return StrFormat("%.*f (range %.*f-%.*f, n=%zu)", precision, point,
                   precision, min, precision, max, n);
}

ConfidenceInterval FromResamples(std::vector<double>* resamples, double mean,
                                 double confidence) {
  std::sort(resamples->begin(), resamples->end());
  double alpha = 1.0 - confidence;
  ConfidenceInterval ci;
  ci.mean = mean;
  ci.lower = Quantile(*resamples, alpha / 2.0);
  ci.upper = Quantile(*resamples, 1.0 - alpha / 2.0);
  ci.confidence = confidence;
  return ci;
}

}  // namespace

ConfidenceInterval BootstrapMeanCI(const std::vector<double>& samples,
                                   double confidence, uint64_t seed) {
  PERFEVAL_CHECK_GE(samples.size(), 2u);
  PERFEVAL_CHECK(confidence > 0.0 && confidence < 1.0);
  Pcg32 rng(SplitMix64(seed), SplitMix64(seed ^ 0x62e2ac0dULL));
  // A mean of values in [lo, hi] lies in [lo, hi], but summing n copies
  // of one value and dividing by n can overshoot it by an ulp; clamping
  // keeps the interval inside the sample's support.
  auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  std::vector<double> resamples(kBootstrapResamples);
  for (double& stat : resamples) {
    stat = std::clamp(ResampledMean(samples, &rng), *lo, *hi);
  }
  return FromResamples(&resamples, MeanOf(samples), confidence);
}

std::string MeanEstimate::ToString(int precision) const {
  return FormatEstimate(mean, n, has_ci, ci, min, max, precision);
}

MeanEstimate EstimateMean(const std::vector<double>& samples,
                          double confidence, uint64_t seed) {
  PERFEVAL_CHECK_GE(samples.size(), 1u);
  MeanEstimate estimate;
  estimate.n = samples.size();
  estimate.mean = MeanOf(samples);
  auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  estimate.min = *lo;
  estimate.max = *hi;
  estimate.has_ci = samples.size() >= kMinBootstrapSamples;
  if (estimate.has_ci) {
    estimate.ci = BootstrapMeanCI(samples, confidence, seed);
  }
  return estimate;
}

ConfidenceInterval BootstrapRatioCI(const std::vector<double>& numerator,
                                    const std::vector<double>& denominator,
                                    double confidence, uint64_t seed) {
  PERFEVAL_CHECK_GE(numerator.size(), 2u);
  PERFEVAL_CHECK_GE(denominator.size(), 2u);
  PERFEVAL_CHECK(confidence > 0.0 && confidence < 1.0);
  Pcg32 rng(SplitMix64(seed), SplitMix64(seed ^ 0x3c6ef372ULL));
  std::vector<double> resamples(kBootstrapResamples);
  for (double& stat : resamples) {
    double num = ResampledMean(numerator, &rng);
    double den = ResampledMean(denominator, &rng);
    PERFEVAL_CHECK_GT(den, 0.0) << "ratio bootstrap needs positive samples";
    stat = num / den;
  }
  double den_mean = MeanOf(denominator);
  PERFEVAL_CHECK_GT(den_mean, 0.0);
  return FromResamples(&resamples, MeanOf(numerator) / den_mean, confidence);
}

ConfidenceInterval BootstrapPercentileCI(const std::vector<double>& samples,
                                         double percentile, double confidence,
                                         uint64_t seed, int resamples) {
  PERFEVAL_CHECK_GE(samples.size(), 2u);
  PERFEVAL_CHECK(confidence > 0.0 && confidence < 1.0);
  PERFEVAL_CHECK_GE(percentile, 0.0);
  PERFEVAL_CHECK_LE(percentile, 100.0);
  PERFEVAL_CHECK_GE(resamples, 100);
  Pcg32 rng(SplitMix64(seed), SplitMix64(seed ^ 0x7f4a7c15ULL));
  uint32_t n = static_cast<uint32_t>(samples.size());
  std::vector<double> resample(samples.size());
  std::vector<double> statistics(resamples);
  for (double& stat : statistics) {
    for (double& value : resample) {
      value = samples[rng.NextBounded(n)];
    }
    stat = Percentile(resample, percentile);
  }
  return FromResamples(&statistics, Percentile(samples, percentile),
                       confidence);
}

ConfidenceInterval BootstrapSlopeCI(const std::vector<double>& x,
                                    const std::vector<double>& y,
                                    double confidence, uint64_t seed) {
  PERFEVAL_CHECK_EQ(x.size(), y.size());
  PERFEVAL_CHECK_GE(x.size(), 3u);
  PERFEVAL_CHECK(confidence > 0.0 && confidence < 1.0);
  double slope = OlsSlope(x, y);
  PERFEVAL_CHECK(!std::isnan(slope)) << "slope of a constant x";
  Pcg32 rng(SplitMix64(seed), SplitMix64(seed ^ 0x510e527fULL));
  uint32_t n = static_cast<uint32_t>(x.size());
  std::vector<double> rx(x.size());
  std::vector<double> ry(y.size());
  std::vector<double> resamples(kBootstrapResamples);
  for (double& stat : resamples) {
    do {
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t pick = rng.NextBounded(n);
        rx[i] = x[pick];
        ry[i] = y[pick];
      }
      stat = OlsSlope(rx, ry);
    } while (std::isnan(stat));
  }
  return FromResamples(&resamples, slope, confidence);
}

std::string SlopeEstimate::ToString(int precision) const {
  return FormatEstimate(slope, n, has_ci, ci, min, max, precision);
}

SlopeEstimate EstimateSlope(const std::vector<double>& x,
                            const std::vector<double>& y, double confidence,
                            uint64_t seed) {
  PERFEVAL_CHECK_EQ(x.size(), y.size());
  PERFEVAL_CHECK_GE(x.size(), 2u);
  SlopeEstimate estimate;
  estimate.n = x.size();
  estimate.slope = OlsSlope(x, y);
  PERFEVAL_CHECK(!std::isnan(estimate.slope)) << "slope of a constant x";
  bool first = true;
  for (size_t i = 0; i < x.size(); ++i) {
    for (size_t j = i + 1; j < x.size(); ++j) {
      if (x[i] == x[j]) {
        continue;
      }
      double pair = (y[j] - y[i]) / (x[j] - x[i]);
      estimate.min = first ? pair : std::min(estimate.min, pair);
      estimate.max = first ? pair : std::max(estimate.max, pair);
      first = false;
    }
  }
  estimate.has_ci = x.size() >= kMinBootstrapSamples;
  if (estimate.has_ci) {
    estimate.ci = BootstrapSlopeCI(x, y, confidence, seed);
  }
  return estimate;
}

}  // namespace stats
}  // namespace perfeval
