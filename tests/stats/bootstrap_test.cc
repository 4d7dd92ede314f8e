#include "stats/bootstrap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "stats/descriptive.h"

namespace perfeval {
namespace stats {
namespace {

TEST(BootstrapMeanCI, BracketsTheSampleMean) {
  std::vector<double> samples = {9.0, 10.0, 11.0, 10.5, 9.5, 10.2,
                                 9.8,  10.1, 9.9,  10.4};
  ConfidenceInterval ci = BootstrapMeanCI(samples, 0.95, 7);
  EXPECT_NEAR(ci.mean, 10.04, 1e-9);
  EXPECT_LT(ci.lower, ci.mean);
  EXPECT_GT(ci.upper, ci.mean);
  EXPECT_DOUBLE_EQ(ci.confidence, 0.95);
  // The data spans [9, 11]; resampled means cannot leave that range.
  EXPECT_GE(ci.lower, 9.0);
  EXPECT_LE(ci.upper, 11.0);
}

TEST(BootstrapMeanCI, IntervalStaysWithinSampleSupport) {
  // Property: every resampled mean lies in [min, max] of the sample, so
  // the interval does too — for any size, skew and seed. A Student-t
  // interval on three positive timings can reach below zero; this one
  // cannot.
  Pcg32 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 2 + rng.Next() % 12;
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i) {
      // Log-normal-ish positive values with occasional heavy outliers.
      double x = std::exp(rng.NextGaussian());
      samples.push_back(rng.Next() % 5 == 0 ? x * 40.0 : x);
    }
    ConfidenceInterval ci =
        BootstrapMeanCI(samples, 0.95, static_cast<uint64_t>(trial));
    double lo = *std::min_element(samples.begin(), samples.end());
    double hi = *std::max_element(samples.begin(), samples.end());
    EXPECT_GE(ci.lower, lo) << "trial " << trial << " n=" << n;
    EXPECT_LE(ci.upper, hi) << "trial " << trial << " n=" << n;
    EXPECT_LE(ci.lower, ci.upper);
  }
  // The shape that motivated the test: three positive recovery times.
  ConfidenceInterval three = BootstrapMeanCI({0.021, 0.034, 0.118}, 0.95, 1);
  EXPECT_GE(three.lower, 0.021);
  EXPECT_LE(three.upper, 0.118);
}

TEST(BootstrapMeanCI, DeterministicForFixedSeed) {
  // Continuous-valued samples so the resampled-mean distribution has no
  // mass points and distinct seeds land on distinct quantile estimates.
  Pcg32 gen(2024);
  std::vector<double> samples;
  for (int i = 0; i < 30; ++i) {
    samples.push_back(50.0 + gen.NextGaussian() * 10.0);
  }
  ConfidenceInterval a = BootstrapMeanCI(samples, 0.95, 123);
  ConfidenceInterval b = BootstrapMeanCI(samples, 0.95, 123);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
  ConfidenceInterval c = BootstrapMeanCI(samples, 0.95, 124);
  EXPECT_TRUE(c.lower != a.lower || c.upper != a.upper);
}

TEST(BootstrapMeanCI, NarrowsWithMoreData) {
  Pcg32 rng(99);
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 200; ++i) {
    double x = 100.0 + rng.NextGaussian() * 5.0;
    if (i < 10) {
      small.push_back(x);
    }
    large.push_back(x);
  }
  ConfidenceInterval narrow = BootstrapMeanCI(large, 0.95, 1);
  ConfidenceInterval wide = BootstrapMeanCI(small, 0.95, 1);
  EXPECT_LT(narrow.HalfWidth(), wide.HalfWidth());
}

TEST(BootstrapMeanCI, HigherConfidenceIsWider) {
  std::vector<double> samples = {3.0, 5.0, 4.0, 6.0, 2.0, 5.5, 3.5, 4.5};
  ConfidenceInterval c90 = BootstrapMeanCI(samples, 0.90, 5);
  ConfidenceInterval c99 = BootstrapMeanCI(samples, 0.99, 5);
  EXPECT_LE(c99.lower, c90.lower);
  EXPECT_GE(c99.upper, c90.upper);
}

TEST(BootstrapRatioCI, PlugInRatioAndCoverage) {
  // Numerator ~ 20, denominator ~ 10: the speedup is ~2x and the interval
  // should comfortably exclude 1 (a real effect, per Kalibera & Jones the
  // thing a reported speedup must demonstrate).
  std::vector<double> num = {19.0, 20.0, 21.0, 20.5, 19.5, 20.2};
  std::vector<double> den = {9.8, 10.1, 10.0, 9.9, 10.2, 10.0};
  ConfidenceInterval ci = BootstrapRatioCI(num, den, 0.95, 11);
  EXPECT_NEAR(ci.mean, 2.0, 0.05);
  EXPECT_GT(ci.lower, 1.0);
  EXPECT_LT(ci.lower, ci.upper);
  EXPECT_TRUE(ci.Contains(ci.mean));
}

TEST(BootstrapRatioCI, DeterministicForFixedSeed) {
  std::vector<double> num = {4.0, 5.0, 6.0};
  std::vector<double> den = {2.0, 2.5, 3.0};
  ConfidenceInterval a = BootstrapRatioCI(num, den, 0.95, 77);
  ConfidenceInterval b = BootstrapRatioCI(num, den, 0.95, 77);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(BootstrapRatioCI, NoEffectIntervalContainsOne) {
  std::vector<double> num = {10.0, 10.4, 9.6, 10.2, 9.8, 10.1, 9.9, 10.0};
  std::vector<double> den = {10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8, 10.0};
  ConfidenceInterval ci = BootstrapRatioCI(num, den, 0.95, 3);
  EXPECT_TRUE(ci.Contains(1.0));
}

TEST(BootstrapPercentileCI, BracketsTheTruePercentile) {
  // 1..1000: the true p90 is 900ish; the CI of a 1000-point sample should
  // be tight around it and must contain the sample percentile itself.
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) {
    xs.push_back(static_cast<double>(i));
  }
  ConfidenceInterval ci = BootstrapPercentileCI(xs, 90.0, 0.95, 5);
  EXPECT_NEAR(ci.mean, Percentile(xs, 90.0), 20.0);
  EXPECT_LE(ci.lower, Percentile(xs, 90.0));
  EXPECT_GE(ci.upper, Percentile(xs, 90.0) - 30.0);
  EXPECT_LT(ci.upper - ci.lower, 100.0);  // tight at n=1000.
  EXPECT_DOUBLE_EQ(ci.confidence, 0.95);
}

TEST(BootstrapPercentileCI, DeterministicForFixedSeed) {
  std::vector<double> xs = {3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.9};
  ConfidenceInterval a = BootstrapPercentileCI(xs, 50.0, 0.95, 21);
  ConfidenceInterval b = BootstrapPercentileCI(xs, 50.0, 0.95, 21);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

TEST(BootstrapPercentileCI, AllEqualSamplesCollapseToPoint) {
  std::vector<double> xs(32, 5.0);
  ConfidenceInterval ci = BootstrapPercentileCI(xs, 99.0, 0.95, 1);
  EXPECT_DOUBLE_EQ(ci.lower, 5.0);
  EXPECT_DOUBLE_EQ(ci.upper, 5.0);
}

TEST(BootstrapPercentileCIDeathTest, RejectsDegenerateInputs) {
  EXPECT_DEATH(BootstrapPercentileCI({1.0}, 50.0, 0.95, 1),
               "CHECK failed");
  EXPECT_DEATH(BootstrapPercentileCI({1.0, 2.0}, 101.0, 0.95, 1),
               "CHECK failed");
  EXPECT_DEATH(BootstrapPercentileCI({1.0, 2.0}, 50.0, 1.5, 1),
               "CHECK failed");
}

TEST(EstimateMean, BelowTheFloorReportsTheRangeNotAnInterval) {
  std::vector<double> two = {3.0, 5.0};
  MeanEstimate small = EstimateMean(two, 0.95, 1);
  EXPECT_FALSE(small.has_ci);
  EXPECT_EQ(small.n, 2u);
  EXPECT_DOUBLE_EQ(small.mean, 4.0);
  EXPECT_DOUBLE_EQ(small.min, 3.0);
  EXPECT_DOUBLE_EQ(small.max, 5.0);
  EXPECT_EQ(small.ToString(), "4.00 (range 3.00-5.00, n=2)");
  // One sample is a valid (if thin) report, not a crash.
  EXPECT_EQ(EstimateMean({7.0}, 0.95, 1).ToString(1),
            "7.0 (range 7.0-7.0, n=1)");
}

TEST(EstimateMean, AtTheFloorCarriesTheBootstrapInterval) {
  std::vector<double> samples(kMinBootstrapSamples);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = 10.0 + static_cast<double>(i);
  }
  MeanEstimate estimate = EstimateMean(samples, 0.95, 9);
  ASSERT_TRUE(estimate.has_ci);
  ConfidenceInterval expected = BootstrapMeanCI(samples, 0.95, 9);
  EXPECT_DOUBLE_EQ(estimate.ci.lower, expected.lower);
  EXPECT_DOUBLE_EQ(estimate.ci.upper, expected.upper);
  EXPECT_DOUBLE_EQ(estimate.mean, expected.mean);
  EXPECT_NE(estimate.ToString().find(" n=5"), std::string::npos);
  EXPECT_EQ(estimate.ToString().find("range"), std::string::npos);
  // One sample fewer falls below the floor.
  samples.pop_back();
  EXPECT_FALSE(EstimateMean(samples, 0.95, 9).has_ci);
}

/// y = 3 + 2x plus deterministic noise, `reps` samples at each x.
void NoisyLine(int reps, std::vector<double>* x, std::vector<double>* y) {
  Pcg32 rng(17);
  for (double xi : {10.0, 20.0, 40.0}) {
    for (int r = 0; r < reps; ++r) {
      x->push_back(xi);
      y->push_back(3.0 + 2.0 * xi + (rng.NextDouble() - 0.5) * 4.0);
    }
  }
}

TEST(BootstrapSlopeCI, BracketsTheTrueSlope) {
  std::vector<double> x;
  std::vector<double> y;
  NoisyLine(10, &x, &y);
  ConfidenceInterval ci = BootstrapSlopeCI(x, y, 0.95, 3);
  EXPECT_TRUE(ci.Contains(2.0));
  EXPECT_TRUE(ci.Contains(ci.mean));
  EXPECT_LT(ci.upper - ci.lower, 0.2);
  EXPECT_DOUBLE_EQ(ci.confidence, 0.95);
}

TEST(BootstrapSlopeCI, DeterministicForFixedSeed) {
  std::vector<double> x;
  std::vector<double> y;
  NoisyLine(3, &x, &y);
  ConfidenceInterval a = BootstrapSlopeCI(x, y, 0.95, 8);
  ConfidenceInterval b = BootstrapSlopeCI(x, y, 0.95, 8);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

TEST(BootstrapSlopeCI, ExactLineCollapsesToItsSlope) {
  // Three points, so many resamples repeat one x and must be redrawn.
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {5.0, 7.0, 9.0};
  ConfidenceInterval ci = BootstrapSlopeCI(x, y, 0.95, 1);
  EXPECT_NEAR(ci.lower, 2.0, 1e-9);
  EXPECT_NEAR(ci.upper, 2.0, 1e-9);
  EXPECT_NEAR(ci.mean, 2.0, 1e-9);
}

TEST(BootstrapSlopeCIDeathTest, RejectsConstantX) {
  EXPECT_DEATH(BootstrapSlopeCI({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}, 0.95, 1),
               "CHECK failed");
}

TEST(EstimateSlope, BelowTheFloorReportsThePairwiseRange) {
  // Pairwise slopes: (1,2)-(2,6) = 4, (1,2)-(3,4) = 1, (2,6)-(3,4) = -2.
  SlopeEstimate small = EstimateSlope({1.0, 2.0, 3.0}, {2.0, 6.0, 4.0},
                                      0.95, 1);
  EXPECT_FALSE(small.has_ci);
  EXPECT_EQ(small.n, 3u);
  EXPECT_DOUBLE_EQ(small.slope, 1.0);
  EXPECT_EQ(small.ToString(), "1.00 (range -2.00-4.00, n=3)");
}

TEST(EstimateSlope, AtTheFloorCarriesTheBootstrapInterval) {
  std::vector<double> x;
  std::vector<double> y;
  NoisyLine(3, &x, &y);
  SlopeEstimate estimate = EstimateSlope(x, y, 0.95, 4);
  ASSERT_TRUE(estimate.has_ci);
  ConfidenceInterval expected = BootstrapSlopeCI(x, y, 0.95, 4);
  EXPECT_DOUBLE_EQ(estimate.ci.lower, expected.lower);
  EXPECT_DOUBLE_EQ(estimate.ci.upper, expected.upper);
  EXPECT_NE(estimate.ToString().find(" n=9"), std::string::npos);
}

}  // namespace
}  // namespace stats
}  // namespace perfeval
