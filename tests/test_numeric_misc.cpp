#include <gtest/gtest.h>

#include <cmath>

#include "numeric/rng.h"
#include "numeric/stats.h"

namespace gnsslna::numeric {
namespace {

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, -1.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, -1.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(7);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[rng.uniform_index(7)];
  for (const int h : hits) EXPECT_GT(h, 700);  // each bin well populated
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(8);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(9);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// ---------------------------------------------------------------------------
// Stats

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, PercentileEndpointsAndMiddle) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
}

TEST(Stats, PercentileRejectsBadP) {
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, MadSigmaMatchesGaussianSigma) {
  Rng rng(10);
  std::vector<double> v(20000);
  for (auto& x : v) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(mad_sigma(v), 2.0, 0.1);
}

TEST(Stats, MadSigmaIgnoresOutliers) {
  Rng rng(11);
  std::vector<double> v(5000);
  for (auto& x : v) x = rng.normal(0.0, 1.0);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = 1000.0;
  EXPECT_NEAR(mad_sigma(v), 1.0, 0.1);  // stddev would be ~100x off
}

TEST(Stats, EmptyInputsThrow) {
  EXPECT_THROW(mean({}), std::invalid_argument);
  EXPECT_THROW(median({}), std::invalid_argument);
}

}  // namespace
}  // namespace gnsslna::numeric
