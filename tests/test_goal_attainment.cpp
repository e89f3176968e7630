#include <gtest/gtest.h>

#include "optimize/goal_attainment.h"
#include "optimize/multi_objective.h"
#include "optimize/test_problems.h"

namespace gnsslna::optimize {
namespace {

// ---------------------------------------------------------------------------
// Dominance / front utilities

TEST(Dominance, BasicRelations) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}));
  EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0}));  // trade-off
  EXPECT_FALSE(dominates({1.0, 1.0}, {1.0, 1.0}));  // equal: not strict
  EXPECT_THROW(dominates({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(ParetoFront, FiltersDominatedPoints) {
  const std::vector<std::vector<double>> pts = {
      {1.0, 5.0}, {2.0, 3.0}, {3.0, 3.5}, {4.0, 1.0}, {2.5, 2.9}};
  const auto front = pareto_front(pts);
  EXPECT_EQ(front.size(), 4u);  // {3.0, 3.5} is dominated by {2.5, 2.9}
  for (const auto& p : front) {
    EXPECT_NE(p, (std::vector<double>{3.0, 3.5}));
  }
}

TEST(Hypervolume, RectangleCases) {
  // Single point (1,1) with reference (2,2): area 1.
  EXPECT_DOUBLE_EQ(hypervolume_2d({{1.0, 1.0}}, {2.0, 2.0}), 1.0);
  // Two staircase points.
  EXPECT_DOUBLE_EQ(hypervolume_2d({{0.0, 1.0}, {1.0, 0.0}}, {2.0, 2.0}),
                   3.0);
}

TEST(Hypervolume, MorePointsNeverShrinkVolume) {
  const std::vector<double> ref{2.0, 2.0};
  const double v1 = hypervolume_2d({{0.5, 1.0}}, ref);
  const double v2 = hypervolume_2d({{0.5, 1.0}, {1.0, 0.3}}, ref);
  EXPECT_GE(v2, v1);
}

TEST(Hypervolume, RejectsBadReference) {
  EXPECT_THROW(hypervolume_2d({{3.0, 1.0}}, {2.0, 2.0}),
               std::invalid_argument);
}

TEST(Spacing, UniformFrontHasZeroSpacing) {
  EXPECT_NEAR(spacing({{0.0, 2.0}, {1.0, 1.0}, {2.0, 0.0}}), 0.0, 1e-12);
  EXPECT_GT(spacing({{0.0, 2.0}, {0.1, 1.9}, {2.0, 0.0}}), 0.1);
}

// ---------------------------------------------------------------------------
// Goal attainment on an analytic bi-objective problem.
//
// f1 = x^2, f2 = (x - 2)^2 on [-5, 5]: the Pareto set is x in [0, 2].

GoalProblem quadratic_tradeoff(double g1, double g2, double w1 = 1.0,
                               double w2 = 1.0) {
  GoalProblem p;
  p.objectives = [](const std::vector<double>& x) {
    return std::vector<double>{x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)};
  };
  p.goals = {g1, g2};
  p.weights = {w1, w2};
  p.bounds = Bounds({-5.0}, {5.0});
  return p;
}

TEST(GoalAttainment, ValidatesProblem) {
  GoalProblem p = quadratic_tradeoff(1.0, 1.0);
  p.weights = {1.0};  // size mismatch
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = quadratic_tradeoff(1.0, 1.0);
  p.weights = {1.0, -1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = quadratic_tradeoff(1.0, 1.0);
  p.objectives = nullptr;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(GoalAttainment, StandardFindsBalancedPoint) {
  // Equal goals and weights: the minimax point is x = 1 (f1 = f2 = 1).
  const GoalProblem p = quadratic_tradeoff(0.0, 0.0);
  const GoalResult r = standard_goal_attainment(p, {3.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.attainment, 1.0, 1e-3);
}

TEST(GoalAttainment, ImprovedFindsBalancedPoint) {
  const GoalProblem p = quadratic_tradeoff(0.0, 0.0);
  numeric::Rng rng(51);
  const GoalResult r = improved_goal_attainment(p, rng);
  EXPECT_NEAR(r.x[0], 1.0, 1e-2);
  EXPECT_NEAR(r.attainment, 1.0, 1e-2);
}

TEST(GoalAttainment, NegativeAttainmentWhenGoalsAreLoose) {
  // Goals far above the achievable: gamma < 0 (over-attained).
  const GoalProblem p = quadratic_tradeoff(4.0, 4.0);
  numeric::Rng rng(52);
  const GoalResult r = improved_goal_attainment(p, rng);
  EXPECT_LT(r.attainment, 0.0);
}

TEST(GoalAttainment, WeightsSkewTheCompromise) {
  // A large w2 tolerates f2 overshoot: solution slides toward f1's goal.
  numeric::Rng rng(53);
  const GoalResult tight_f1 =
      improved_goal_attainment(quadratic_tradeoff(0.0, 0.0, 1.0, 8.0), rng);
  numeric::Rng rng2(53);
  const GoalResult tight_f2 =
      improved_goal_attainment(quadratic_tradeoff(0.0, 0.0, 8.0, 1.0), rng2);
  EXPECT_LT(tight_f1.objective_values[0], tight_f2.objective_values[0]);
  EXPECT_GT(tight_f1.objective_values[1], tight_f2.objective_values[1]);
}

TEST(GoalAttainment, HardConstraintIsRespected) {
  GoalProblem p = quadratic_tradeoff(0.0, 0.0);
  // Constrain x >= 1.5.
  p.constraints.push_back(
      [](const std::vector<double>& x) { return 1.5 - x[0]; });
  numeric::Rng rng(54);
  const GoalResult r = improved_goal_attainment(p, rng);
  EXPECT_GE(r.x[0], 1.5 - 1e-6);
  EXPECT_LT(r.constraint_violation, 1e-6);
}

TEST(GoalAttainment, AttainmentOfMatchesDefinition) {
  const GoalProblem p = quadratic_tradeoff(0.5, 1.5, 2.0, 4.0);
  const std::vector<double> x{1.2};
  const double expect = std::max((1.44 - 0.5) / 2.0, (0.64 - 1.5) / 4.0);
  EXPECT_NEAR(attainment_of(p, x), expect, 1e-12);
}

// On a multimodal landscape the improved method (DE seeding) must beat the
// standard local method started from a bad corner — the Table III premise.
TEST(GoalAttainment, ImprovedBeatsStandardOnMultimodalProblem) {
  GoalProblem p;
  p.objectives = [](const std::vector<double>& x) {
    // Rastrigin-flavoured objectives with many local minima.
    const double f1 = testing::rastrigin({x[0]});
    const double f2 = testing::rastrigin({x[0] - 2.0});
    return std::vector<double>{f1, f2};
  };
  p.goals = {0.0, 0.0};
  p.weights = {1.0, 1.0};
  p.bounds = Bounds({-5.12}, {5.12});

  const GoalResult standard = standard_goal_attainment(p, {-4.5});
  numeric::Rng rng(55);
  const GoalResult improved = improved_goal_attainment(p, rng);
  EXPECT_LT(improved.attainment, standard.attainment);
}

// ---------------------------------------------------------------------------
// Pareto sweep on ZDT1 (known front: f2 = 1 - sqrt(f1))

TEST(ParetoSweep, Zdt1FrontShapeRecovered) {
  GoalProblem p;
  p.objectives = [](const std::vector<double>& x) {
    return testing::zdt1(x);
  };
  p.goals = {0.0, 0.0};
  p.weights = {1.0, 1.0};
  p.bounds = testing::zdt_bounds(5);

  numeric::Rng rng(61);
  ImprovedGoalOptions opt;
  opt.de_generations = 60;
  opt.polish_evaluations = 2000;
  const std::vector<ParetoPoint> front = pareto_sweep(p, rng, 9, opt);
  ASSERT_GE(front.size(), 5u);
  for (const ParetoPoint& pt : front) {
    // Every point near the analytic front f2 = 1 - sqrt(f1).
    EXPECT_NEAR(pt.f[1], 1.0 - std::sqrt(pt.f[0]), 0.05)
        << "f1=" << pt.f[0];
  }
  // Points are sorted by f1 and mutually non-dominated.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].f[0], front[i - 1].f[0] - 1e-12);
    EXPECT_LT(front[i].f[1], front[i - 1].f[1] + 1e-9);
  }
}

TEST(ParetoSweep, RejectsNonBiObjective) {
  GoalProblem p;
  p.objectives = [](const std::vector<double>& x) {
    return std::vector<double>{x[0], x[0], x[0]};
  };
  p.goals = {0.0, 0.0, 0.0};
  p.weights = {1.0, 1.0, 1.0};
  p.bounds = Bounds({0.0}, {1.0});
  numeric::Rng rng(62);
  EXPECT_THROW(pareto_sweep(p, rng, 5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Ablation sanity: each improvement ingredient can be switched off and the
// method still returns a feasible answer (quality comparisons live in the
// A2 bench).

class GoalAblation : public ::testing::TestWithParam<int> {};

TEST_P(GoalAblation, DegradedVariantsStillSolveEasyProblem) {
  ImprovedGoalOptions opt;
  switch (GetParam()) {
    case 0: opt.adaptive_weights = false; break;
    case 1: opt.smooth_aggregation = false; break;
    case 2: opt.global_seeding = false; break;
    case 3: opt.exact_penalty = false; break;
  }
  const GoalProblem p = quadratic_tradeoff(0.0, 0.0);
  numeric::Rng rng(70 + GetParam());
  const GoalResult r = improved_goal_attainment(p, rng, opt);
  EXPECT_NEAR(r.x[0], 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Switches, GoalAblation, ::testing::Range(0, 4));

}  // namespace
}  // namespace gnsslna::optimize
