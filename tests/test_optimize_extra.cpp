#include <gtest/gtest.h>

#include <cmath>

#include "optimize/nsga2.h"
#include "optimize/test_problems.h"

namespace gnsslna::optimize {
namespace {

// ---------------------------------------------------------------------------
// NSGA-II

TEST(Nsga2, RankingIdentifiesFronts) {
  const std::vector<std::vector<double>> pts = {
      {1.0, 4.0}, {2.0, 2.0}, {4.0, 1.0},  // front 0
      {2.5, 3.0}, {4.0, 2.0},              // front 1
      {5.0, 5.0}};                         // front 2
  const std::vector<std::size_t> rank = non_dominated_rank(pts);
  EXPECT_EQ(rank[0], 0u);
  EXPECT_EQ(rank[1], 0u);
  EXPECT_EQ(rank[2], 0u);
  EXPECT_EQ(rank[3], 1u);
  EXPECT_EQ(rank[4], 1u);
  EXPECT_EQ(rank[5], 2u);
}

TEST(Nsga2, CrowdingBoundariesAreInfinite) {
  const std::vector<std::vector<double>> front = {
      {0.0, 3.0}, {1.0, 2.0}, {2.0, 1.0}, {3.0, 0.0}};
  const std::vector<double> d = crowding_distance(front);
  EXPECT_TRUE(std::isinf(d[0]));
  EXPECT_TRUE(std::isinf(d[3]));
  EXPECT_GT(d[1], 0.0);
  EXPECT_FALSE(std::isinf(d[1]));
}

TEST(Nsga2, RecoversZdt1Front) {
  numeric::Rng rng(91);
  Nsga2Options opt;
  opt.population = 60;
  opt.generations = 120;
  const Nsga2Result r = nsga2(
      [](const std::vector<double>& x) { return testing::zdt1(x); }, 2,
      testing::zdt_bounds(6), {}, rng, opt);
  ASSERT_GE(r.front.size(), 20u);
  int close = 0;
  for (const Nsga2Individual& ind : r.front) {
    if (std::abs(ind.f[1] - (1.0 - std::sqrt(ind.f[0]))) < 0.08) ++close;
  }
  // Most of the front sits on the analytic curve.
  EXPECT_GT(close, static_cast<int>(r.front.size() * 3) / 4);
}

TEST(Nsga2, FrontCoversTheObjectiveRange) {
  numeric::Rng rng(92);
  Nsga2Options opt;
  opt.population = 60;
  opt.generations = 120;
  const Nsga2Result r = nsga2(
      [](const std::vector<double>& x) { return testing::zdt1(x); }, 2,
      testing::zdt_bounds(6), {}, rng, opt);
  double f1_min = 1e9, f1_max = -1e9;
  for (const Nsga2Individual& ind : r.front) {
    f1_min = std::min(f1_min, ind.f[0]);
    f1_max = std::max(f1_max, ind.f[0]);
  }
  EXPECT_LT(f1_min, 0.1);
  EXPECT_GT(f1_max, 0.8);
}

TEST(Nsga2, ConstraintsAreRespected) {
  numeric::Rng rng(93);
  Nsga2Options opt;
  opt.population = 40;
  opt.generations = 60;
  // Constrain x0 >= 0.5 -> feasible front has f1 >= 0.5.
  const Nsga2Result r = nsga2(
      [](const std::vector<double>& x) { return testing::zdt1(x); }, 2,
      testing::zdt_bounds(4),
      {[](const std::vector<double>& x) { return 0.5 - x[0]; }}, rng, opt);
  for (const Nsga2Individual& ind : r.front) {
    EXPECT_GE(ind.x[0], 0.5 - 1e-9);
  }
}

TEST(Nsga2, ValidatesInput) {
  numeric::Rng rng(94);
  EXPECT_THROW(nsga2(nullptr, 2, testing::zdt_bounds(3), {}, rng),
               std::invalid_argument);
  EXPECT_THROW(
      nsga2([](const std::vector<double>& x) { return testing::zdt1(x); },
            0, testing::zdt_bounds(3), {}, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace gnsslna::optimize
