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
  if (has_ci) {
    return StrFormat("%.*f [%.*f,%.*f] n=%zu", precision, mean, precision,
                     ci.lower, precision, ci.upper, n);
  }
  return StrFormat("%.*f (range %.*f-%.*f, n=%zu)", precision, mean,
                   precision, min, precision, max, n);
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

}  // namespace stats
}  // namespace perfeval
