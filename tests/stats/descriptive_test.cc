#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"

namespace perfeval {
namespace stats {
namespace {

TEST(DescriptiveTest, MeanAndSum) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Sum(xs), 10.0);
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
}

TEST(DescriptiveTest, VarianceUsesBesselCorrection) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Population variance is 4; sample variance is 32/7.
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(DescriptiveTest, StdDevIsRootOfVariance) {
  std::vector<double> xs = {1.0, 3.0};
  EXPECT_NEAR(StdDev(xs), std::sqrt(2.0), 1e-12);
}

TEST(DescriptiveTest, ConstantSampleHasZeroVariance) {
  std::vector<double> xs = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(Variance(xs), 0.0);
}

TEST(DescriptiveTest, MinMaxMedian) {
  std::vector<double> xs = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(Min(xs), 1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 9.0);
  EXPECT_DOUBLE_EQ(Median(xs), 5.0);
}

TEST(DescriptiveTest, MedianOfEvenCountAverages) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 10.0};
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
}

TEST(DescriptiveTest, PercentileEndpoints) {
  std::vector<double> xs = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 20.0);
}

TEST(DescriptiveTest, PercentileInterpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 25.0), 2.5);
}

TEST(DescriptiveTest, PercentileSupportedNeedsTenSamplesBeyondIt) {
  EXPECT_TRUE(PercentileSupported(20, 50.0));
  EXPECT_FALSE(PercentileSupported(19, 50.0));
  EXPECT_TRUE(PercentileSupported(1000, 99.0));
  EXPECT_FALSE(PercentileSupported(999, 99.0));
  EXPECT_TRUE(PercentileSupported(10000, 99.9));
  EXPECT_FALSE(PercentileSupported(9999, 99.9));
  EXPECT_TRUE(PercentileSupported(10, 0.0));
  EXPECT_FALSE(PercentileSupported(9, 0.0));
  // Nothing lies beyond the maximum.
  EXPECT_FALSE(PercentileSupported(1000000, 100.0));
  EXPECT_FALSE(PercentileSupported(0, 50.0));
}

TEST(DescriptiveTest, GeometricMeanOfRatios) {
  // gm(2, 8) = 4; the right mean for normalized ratios.
  EXPECT_NEAR(GeometricMean({2.0, 8.0}), 4.0, 1e-12);
  // gm(x, 1/x) = 1: a speedup and its inverse cancel.
  EXPECT_NEAR(GeometricMean({3.0, 1.0 / 3.0}), 1.0, 1e-12);
}

TEST(DescriptiveTest, HarmonicMeanOfRates) {
  // Classic: half the work at 30, half at 60 -> harmonic mean 40.
  EXPECT_NEAR(HarmonicMean({30.0, 60.0}), 40.0, 1e-12);
}

TEST(DescriptiveTest, MeanInequalityChain) {
  // harmonic <= geometric <= arithmetic for positive samples.
  Pcg32 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs;
    for (int i = 0; i < 20; ++i) {
      xs.push_back(rng.NextDoubleInRange(0.1, 100.0));
    }
    double h = HarmonicMean(xs);
    double g = GeometricMean(xs);
    double a = Mean(xs);
    EXPECT_LE(h, g + 1e-9);
    EXPECT_LE(g, a + 1e-9);
  }
}

TEST(DescriptiveTest, SummaryAgreesWithPieces) {
  std::vector<double> xs = {4.0, 1.0, 7.0, 2.0};
  Summary s = Summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, Mean(xs));
  EXPECT_DOUBLE_EQ(s.stddev, StdDev(xs));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(DescriptiveTest, CoefficientOfVariation) {
  std::vector<double> xs = {90.0, 110.0};
  EXPECT_NEAR(CoefficientOfVariation(xs), StdDev(xs) / 100.0, 1e-12);
}

TEST(DescriptiveDeathTest, EmptySampleAborts) {
  EXPECT_DEATH(Mean({}), "CHECK failed");
  EXPECT_DEATH(Min({}), "CHECK failed");
}

TEST(DescriptiveDeathTest, VarianceNeedsTwo) {
  EXPECT_DEATH(Variance({1.0}), "CHECK failed");
}

TEST(DescriptiveDeathTest, GeometricMeanRejectsNonPositive) {
  EXPECT_DEATH(GeometricMean({1.0, 0.0}), "positive");
}

TEST(DescriptiveTest, PercentileSingleSampleIsThatSample) {
  for (double p : {0.0, 37.0, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(Percentile({42.0}, p), 42.0);
  }
}

TEST(DescriptiveTest, PercentileAllEqualSamples) {
  std::vector<double> xs(100, 7.5);
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(Percentile(xs, p), 7.5);
  }
}

TEST(DescriptiveDeathTest, PercentileRejectsNaN) {
  // A NaN sorts unpredictably, so a percentile over it is whatever the
  // sort happened to do — abort instead of returning garbage.
  double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(Percentile({1.0, nan, 3.0}, 50.0), "NaN");
}

TEST(DescriptiveDeathTest, PercentileRejectsOutOfRangeP) {
  EXPECT_DEATH(Percentile({1.0, 2.0}, -1.0), "CHECK failed");
  EXPECT_DEATH(Percentile({1.0, 2.0}, 101.0), "CHECK failed");
}

}  // namespace
}  // namespace stats
}  // namespace perfeval
