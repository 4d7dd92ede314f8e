#ifndef PERFEVAL_STATS_DESCRIPTIVE_H_
#define PERFEVAL_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfeval {
namespace stats {

/// Sum of all samples.
double Sum(const std::vector<double>& samples);

/// Arithmetic mean. Requires at least one sample.
double Mean(const std::vector<double>& samples);

/// Unbiased sample variance (divides by n-1). Requires >= 2 samples.
double Variance(const std::vector<double>& samples);

/// Square root of Variance().
double StdDev(const std::vector<double>& samples);

/// StdDev / Mean. Requires a non-zero mean.
double CoefficientOfVariation(const std::vector<double>& samples);

double Min(const std::vector<double>& samples);
double Max(const std::vector<double>& samples);

/// Median (average of the two middle values for even n).
double Median(const std::vector<double>& samples);

/// Linear-interpolation percentile (Hyndman–Fan R-7, the spreadsheet/NumPy
/// default), p in [0, 100]. p=50 matches Median(); n=1 returns the sample.
/// NaN samples are rejected — a NaN would silently poison std::sort's
/// ordering and make the reported quantile depend on input order.
double Percentile(const std::vector<double>& samples, double p);

/// Fewest samples that must lie beyond a percentile for a sample to
/// support it.
inline constexpr size_t kMinTailSamples = 10;

/// Whether n samples support reporting their p-th percentile (p in
/// [0, 100]): at least kMinTailSamples of them lie beyond it. Below that
/// the estimate rests on the few largest samples, and the upper end of
/// its bootstrap interval is the sample maximum. A p99 needs n >= 1000,
/// a p99.9 n >= 10000.
bool PercentileSupported(size_t n, double p);

/// Geometric mean; all samples must be positive. The correct mean for
/// normalized ratios such as the paper's DBG/OPT relative execution times.
double GeometricMean(const std::vector<double>& samples);

/// Harmonic mean; all samples must be positive. The correct mean for rates
/// (e.g. queries/second) over a fixed amount of work.
double HarmonicMean(const std::vector<double>& samples);

/// One-pass summary of a sample.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< 0 when count < 2.
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;

  std::string ToString() const;
};

/// Computes all Summary fields. Requires at least one sample.
Summary Summarize(const std::vector<double>& samples);

}  // namespace stats
}  // namespace perfeval

#endif  // PERFEVAL_STATS_DESCRIPTIVE_H_
