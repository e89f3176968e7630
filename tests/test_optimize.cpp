#include <gtest/gtest.h>

#include "optimize/differential_evolution.h"
#include "optimize/levenberg_marquardt.h"
#include "optimize/nelder_mead.h"
#include "optimize/problem.h"
#include "optimize/simulated_annealing.h"
#include "optimize/test_problems.h"

namespace gnsslna::optimize {
namespace {

using testing::ackley;
using testing::box;
using testing::rastrigin;
using testing::rosenbrock;
using testing::sphere;

// ---------------------------------------------------------------------------
// Bounds

TEST(Bounds, ValidationCatchesBadBoxes) {
  EXPECT_THROW(Bounds({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Bounds({2.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Bounds({}, {}), std::invalid_argument);
  EXPECT_NO_THROW(Bounds({0.0, -1.0}, {1.0, 1.0}));
}

TEST(Bounds, ClampAndContains) {
  const Bounds b({0.0, 0.0}, {1.0, 2.0});
  EXPECT_EQ(b.clamp({-1.0, 3.0}), (std::vector<double>{0.0, 2.0}));
  EXPECT_TRUE(b.contains({0.5, 1.0}));
  EXPECT_FALSE(b.contains({1.5, 1.0}));
  EXPECT_THROW(b.clamp({1.0}), std::invalid_argument);
}

TEST(Bounds, SampleStaysInside) {
  const Bounds b({-3.0, 5.0}, {-1.0, 9.0});
  numeric::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(b.contains(b.sample(rng)));
  }
}

TEST(Bounds, CenterAndWidth) {
  const Bounds b({0.0, -2.0}, {4.0, 2.0});
  EXPECT_EQ(b.center(), (std::vector<double>{2.0, 0.0}));
  EXPECT_EQ(b.width(), (std::vector<double>{4.0, 4.0}));
}

TEST(CountedObjective, CountsCalls) {
  std::size_t count = 0;
  const CountedObjective f(sphere, count);
  f({1.0});
  f({2.0});
  EXPECT_EQ(count, 2u);
}

// ---------------------------------------------------------------------------
// Nelder-Mead

TEST(NelderMead, SolvesSphere) {
  const Result r = nelder_mead(sphere, box(3, 5.0), {3.0, -2.0, 1.0});
  EXPECT_LT(r.value, 1e-8);
  for (const double x : r.x) EXPECT_NEAR(x, 0.0, 1e-3);
}

TEST(NelderMead, SolvesRosenbrock2d) {
  NelderMeadOptions opt;
  opt.max_evaluations = 50000;
  opt.max_restarts = 3;
  const Result r = nelder_mead(rosenbrock, box(2, 5.0), {-1.2, 1.0}, opt);
  EXPECT_LT(r.value, 1e-6);
  EXPECT_NEAR(r.x[0], 1.0, 1e-2);
  EXPECT_NEAR(r.x[1], 1.0, 1e-2);
}

TEST(NelderMead, RespectsBounds) {
  // Minimum of (x+3)^2 with box [0, 5]: optimizer must stop at x = 0.
  const ObjectiveFn f = [](const std::vector<double>& x) {
    return (x[0] + 3.0) * (x[0] + 3.0);
  };
  const Result r = nelder_mead(f, Bounds({0.0}, {5.0}), {2.5});
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
}

TEST(NelderMead, HonoursEvaluationBudget) {
  NelderMeadOptions opt;
  opt.max_evaluations = 57;
  const Result r = nelder_mead(rosenbrock, box(4, 5.0),
                               {2.0, 2.0, 2.0, 2.0}, opt);
  EXPECT_LE(r.evaluations, 57u + 10u);  // small overshoot from the sweep
}

TEST(NelderMead, DimensionMismatchThrows) {
  EXPECT_THROW(nelder_mead(sphere, box(2, 1.0), {0.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Levenberg-Marquardt

TEST(LevenbergMarquardt, FitsExponentialDecay) {
  // Data from y = 3 exp(-0.7 t); recover (A, k) from 20 samples.
  std::vector<double> t, y;
  for (int i = 0; i < 20; ++i) {
    t.push_back(i * 0.25);
    y.push_back(3.0 * std::exp(-0.7 * t.back()));
  }
  const ResidualFn res = [&](const std::vector<double>& p) {
    std::vector<double> r(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      r[i] = p[0] * std::exp(-p[1] * t[i]) - y[i];
    }
    return r;
  };
  const LeastSquaresResult fit = levenberg_marquardt(
      res, Bounds({0.1, 0.01}, {10.0, 5.0}), {1.0, 1.0});
  EXPECT_NEAR(fit.x[0], 3.0, 1e-6);
  EXPECT_NEAR(fit.x[1], 0.7, 1e-6);
  EXPECT_LT(fit.sum_squares, 1e-12);
}

TEST(LevenbergMarquardt, SolvesLinearSystemInOneHop) {
  const ResidualFn res = [](const std::vector<double>& p) {
    return std::vector<double>{p[0] - 2.0, p[1] + 1.0, p[0] + p[1] - 1.0};
  };
  const LeastSquaresResult fit =
      levenberg_marquardt(res, box(2, 10.0), {0.0, 0.0});
  EXPECT_NEAR(fit.x[0], 2.0, 1e-8);
  EXPECT_NEAR(fit.x[1], -1.0, 1e-8);
}

TEST(LevenbergMarquardt, WeightsSteerTheSolution) {
  // Two incompatible targets for one parameter; the heavier one wins.
  const ResidualFn res = [](const std::vector<double>& p) {
    return std::vector<double>{p[0] - 0.0, p[0] - 10.0};
  };
  const LeastSquaresResult fit = levenberg_marquardt(
      res, box(1, 20.0), {5.0}, {3.0, 1.0});
  // Weighted LS: x = (w1^2*0 + w2^2*10)/(w1^2+w2^2) = 1.
  EXPECT_NEAR(fit.x[0], 1.0, 1e-8);
}

TEST(LevenbergMarquardt, StaysInsideBounds) {
  const ResidualFn res = [](const std::vector<double>& p) {
    return std::vector<double>{p[0] + 5.0, 0.1 * p[0]};
  };
  const LeastSquaresResult fit =
      levenberg_marquardt(res, Bounds({-1.0}, {1.0}), {0.0});
  EXPECT_GE(fit.x[0], -1.0);
}

TEST(LevenbergMarquardt, RejectsUnderdeterminedProblems) {
  const ResidualFn res = [](const std::vector<double>&) {
    return std::vector<double>{0.0};
  };
  EXPECT_THROW(levenberg_marquardt(res, box(2, 1.0), {0.0, 0.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Differential evolution

TEST(DifferentialEvolution, SolvesMultimodalRastrigin) {
  numeric::Rng rng(11);
  DifferentialEvolutionOptions opt;
  opt.max_generations = 400;
  const Result r = differential_evolution(rastrigin, box(4, 5.12), rng, opt);
  EXPECT_LT(r.value, 1e-4);
}

TEST(DifferentialEvolution, SolvesAckley) {
  numeric::Rng rng(12);
  const Result r = differential_evolution(ackley, box(3, 8.0), rng);
  EXPECT_LT(r.value, 1e-3);
}

TEST(DifferentialEvolution, DeterministicPerSeed) {
  numeric::Rng a(13), b(13), c(14);
  const Result ra = differential_evolution(rastrigin, box(2, 5.0), a);
  const Result rb = differential_evolution(rastrigin, box(2, 5.0), b);
  const Result rc = differential_evolution(rastrigin, box(2, 5.0), c);
  EXPECT_EQ(ra.x, rb.x);
  EXPECT_EQ(ra.value, rb.value);
  // A different seed explores differently (values may coincide at the
  // optimum, paths do not).
  EXPECT_NE(ra.evaluations == rc.evaluations && ra.x == rc.x, true);
}

TEST(DifferentialEvolution, EarlyStopOnTarget) {
  numeric::Rng rng(15);
  DifferentialEvolutionOptions opt;
  opt.value_target = 0.5;
  opt.max_generations = 10000;
  const Result r = differential_evolution(sphere, box(2, 5.0), rng, opt);
  EXPECT_LE(r.value, 0.5);
  EXPECT_LT(r.iterations, 10000u);
}

TEST(DifferentialEvolution, AllCandidatesRespectBounds) {
  numeric::Rng rng(16);
  const Bounds b({-1.0, 2.0}, {1.0, 3.0});
  const ObjectiveFn guard = [&](const std::vector<double>& x) {
    EXPECT_TRUE(b.contains(x));
    return sphere(x);
  };
  DifferentialEvolutionOptions opt;
  opt.max_generations = 30;
  differential_evolution(guard, b, rng, opt);
}

// ---------------------------------------------------------------------------
// Simulated annealing

TEST(SimulatedAnnealing, SolvesSphereApproximately) {
  numeric::Rng rng(31);
  const Result r = simulated_annealing(sphere, box(3, 5.0), rng);
  EXPECT_LT(r.value, 1e-2);
}

TEST(SimulatedAnnealing, EscapesLocalMinimaOfRastrigin1d) {
  numeric::Rng rng(32);
  SimulatedAnnealingOptions opt;
  opt.max_evaluations = 60000;
  const Result r = simulated_annealing(rastrigin, box(1, 5.12), rng, opt);
  EXPECT_LT(r.value, 0.5);  // global basin found (local minima are >= 1)
}

TEST(SimulatedAnnealing, DeterministicPerSeed) {
  numeric::Rng a(33), b(33);
  const Result ra = simulated_annealing(sphere, box(2, 2.0), a);
  const Result rb = simulated_annealing(sphere, box(2, 2.0), b);
  EXPECT_EQ(ra.x, rb.x);
}

// ---------------------------------------------------------------------------
// Cross-method comparison on a rough landscape (the Table II premise):
// meta-heuristics beat a single local start on Rastrigin.

TEST(MethodComparison, GlobalBeatsLocalOnMultimodal) {
  numeric::Rng rng(41);
  const Bounds b = box(3, 5.12);
  const Result de = differential_evolution(rastrigin, b, rng);
  const Result nm = nelder_mead(rastrigin, b, {4.5, -4.5, 4.5});
  EXPECT_LT(de.value, nm.value);
}

}  // namespace
}  // namespace gnsslna::optimize
