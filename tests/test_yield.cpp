// Yield engine: sampler correctness, engine-vs-oracle equivalence, and
// full-report bit-identity under every parallel decomposition.
//
// The determinism contract is the strongest one in the repo: run_yield's
// FULL YieldReport — counts, CI bounds, fixed-point means, histogram
// percentiles, exact extrema — must be bit-identical for any thread count
// and any shard size, with either sampler, because every trial draw is a
// pure function of (seed snapshot, trial index) and every reduction is
// order-independent integer arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "amplifier/yield.h"
#include "device/phemt.h"
#include "numeric/sobol.h"
#include "numeric/stats.h"
#include "reference_band.h"

namespace gnsslna::amplifier {
namespace {

const device::Phemt& ref() {
  static const device::Phemt dev = device::Phemt::reference_device();
  return dev;
}

AmplifierConfig resolved_config() {
  AmplifierConfig c;
  c.resolve();
  return c;
}

DesignGoals loose_goals() {
  DesignGoals g;
  g.nf_goal_db = 10.0;
  g.gain_goal_db = 0.0;
  g.s11_goal_db = 0.0;
  g.s22_goal_db = 0.0;
  g.mu_margin = 0.0;
  return g;
}

void expect_reports_identical(const YieldReport& a, const YieldReport& b,
                              const std::string& what) {
  EXPECT_EQ(a.samples, b.samples) << what;
  EXPECT_EQ(a.passes, b.passes) << what;
  EXPECT_EQ(a.failed_evals, b.failed_evals) << what;
  EXPECT_EQ(a.pass_rate, b.pass_rate) << what;
  EXPECT_EQ(a.pass_rate_ci95_lo, b.pass_rate_ci95_lo) << what;
  EXPECT_EQ(a.pass_rate_ci95_hi, b.pass_rate_ci95_hi) << what;
  EXPECT_EQ(a.nf_avg_p95_db, b.nf_avg_p95_db) << what;
  EXPECT_EQ(a.gt_min_p5_db, b.gt_min_p5_db) << what;
  EXPECT_EQ(a.nf_avg_mean_db, b.nf_avg_mean_db) << what;
  EXPECT_EQ(a.gt_min_mean_db, b.gt_min_mean_db) << what;
  EXPECT_EQ(a.nf_avg_min_db, b.nf_avg_min_db) << what;
  EXPECT_EQ(a.nf_avg_max_db, b.nf_avg_max_db) << what;
  EXPECT_EQ(a.gt_min_min_db, b.gt_min_min_db) << what;
  EXPECT_EQ(a.gt_min_max_db, b.gt_min_max_db) << what;
}

// ---------------------------------------------------------------------------
// Sobol sequence

TEST(Sobol, MatchesPublishedUnscrambledPoints) {
  // First 8 points of the 3-dimensional Joe-Kuo sequence (Gray-code
  // order), as produced by the standard new-joe-kuo-6 direction numbers.
  const numeric::ScrambledSobol seq(3);
  const double golden[8][3] = {
      {0.0, 0.0, 0.0},        {0.5, 0.5, 0.5},      {0.75, 0.25, 0.25},
      {0.25, 0.75, 0.75},     {0.375, 0.375, 0.625}, {0.875, 0.875, 0.125},
      {0.625, 0.125, 0.875},  {0.125, 0.625, 0.375}};
  for (std::uint64_t i = 0; i < 8; ++i) {
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_DOUBLE_EQ(seq.sample(i, d), golden[i][d])
          << "point " << i << " dim " << d;
    }
  }
}

TEST(Sobol, PointAgreesWithPerCoordinateSample) {
  const numeric::Rng root(123);
  const numeric::ScrambledSobol seq(kYieldTrialDimensions, root);
  double buf[kYieldTrialDimensions];
  for (const std::uint64_t i : {0ull, 1ull, 7ull, 255ull, 65536ull}) {
    seq.point(i, buf);
    for (std::size_t d = 0; d < kYieldTrialDimensions; ++d) {
      EXPECT_EQ(buf[d], seq.sample(i, d)) << i << "/" << d;
    }
  }
}

TEST(Sobol, ScrambledSequenceIsAPureFunctionOfTheSnapshot) {
  const numeric::Rng root(42);
  const numeric::ScrambledSobol a(5, root);
  const numeric::ScrambledSobol b(5, root);  // root not advanced by ctor
  for (std::uint64_t i = 0; i < 64; ++i) {
    for (std::size_t d = 0; d < 5; ++d) {
      EXPECT_EQ(a.sample(i, d), b.sample(i, d));
    }
  }
  // A different seed scrambles differently (astronomically unlikely to
  // collide on every coordinate).
  const numeric::ScrambledSobol c(5, numeric::Rng(43));
  bool any_differ = false;
  for (std::uint64_t i = 0; i < 16 && !any_differ; ++i) {
    for (std::size_t d = 0; d < 5; ++d) {
      any_differ = any_differ || c.sample(i, d) != a.sample(i, d);
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(Sobol, FirstFourteenDimensionsStayInUnitInterval) {
  const numeric::Rng root(7);
  const numeric::ScrambledSobol seq(kYieldTrialDimensions, root);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    for (std::size_t d = 0; d < kYieldTrialDimensions; ++d) {
      const double u = seq.sample(i, d);
      EXPECT_GE(u, 0.0);
      EXPECT_LT(u, 1.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Statistics helpers

TEST(Stats, NormalQuantileMatchesKnownValues) {
  EXPECT_NEAR(numeric::normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(numeric::normal_quantile(0.975), 1.959963984540054, 1e-6);
  EXPECT_NEAR(numeric::normal_quantile(0.025), -1.959963984540054, 1e-6);
  EXPECT_NEAR(numeric::normal_quantile(0.8413447460685429), 1.0, 1e-6);
  // Symmetry and monotonicity.
  for (const double p : {0.001, 0.1, 0.3, 0.49}) {
    EXPECT_NEAR(numeric::normal_quantile(p), -numeric::normal_quantile(1 - p),
                1e-9);
    EXPECT_LT(numeric::normal_quantile(p), numeric::normal_quantile(p + 1e-3));
  }
  EXPECT_TRUE(std::isinf(numeric::normal_quantile(0.0)));
  EXPECT_TRUE(std::isinf(numeric::normal_quantile(1.0)));
}

TEST(Stats, WilsonIntervalMatchesKnownValuesAndEdges) {
  // 8/10 at 95%: the textbook Wilson score interval.
  const numeric::WilsonInterval ci = numeric::wilson_interval(8, 10);
  EXPECT_NEAR(ci.lo, 0.4901625, 1e-4);
  EXPECT_NEAR(ci.hi, 0.9433178, 1e-4);
  // Edge behavior: never outside [0, 1], exact at the degenerate corners.
  const numeric::WilsonInterval none = numeric::wilson_interval(0, 20);
  EXPECT_EQ(none.lo, 0.0);
  EXPECT_GT(none.hi, 0.0);
  const numeric::WilsonInterval all = numeric::wilson_interval(20, 20);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_EQ(all.hi, 1.0);
  const numeric::WilsonInterval empty = numeric::wilson_interval(0, 0);
  EXPECT_EQ(empty.lo, 0.0);
  EXPECT_EQ(empty.hi, 1.0);
}

// ---------------------------------------------------------------------------
// Trial draws

TEST(YieldDraws, PseudoDrawIsAPureFunctionOfTheTrialIndex) {
  const numeric::Rng root(99);
  const AmplifierConfig cfg = resolved_config();
  const DesignVector nominal;
  const ToleranceModel tol;
  const TrialDraw a = pseudo_trial_draw(root, 17, nominal, cfg.substrate, tol);
  const TrialDraw b = pseudo_trial_draw(root, 17, nominal, cfg.substrate, tol);
  EXPECT_EQ(a.design.l_shunt_h, b.design.l_shunt_h);
  EXPECT_EQ(a.design.vgs, b.design.vgs);
  EXPECT_EQ(a.substrate.epsilon_r, b.substrate.epsilon_r);
  const TrialDraw c = pseudo_trial_draw(root, 18, nominal, cfg.substrate, tol);
  EXPECT_NE(a.design.l_shunt_h, c.design.l_shunt_h);
}

TEST(YieldDraws, SobolDrawPerturbsEveryToleratedParameter) {
  const numeric::Rng root(5);
  const numeric::ScrambledSobol seq(kYieldTrialDimensions, root);
  const AmplifierConfig cfg = resolved_config();
  const DesignVector nominal;
  const ToleranceModel tol;
  // Point 0 of an unshifted sequence would be the origin; the digital
  // shift moves it, so already trial 0 perturbs.  Check a later trial for
  // robustness.
  const TrialDraw d = sobol_trial_draw(seq, 3, nominal, cfg.substrate, tol);
  EXPECT_NE(d.design.l_shunt_h, nominal.l_shunt_h);
  EXPECT_NE(d.design.c_in_f, nominal.c_in_f);
  EXPECT_NE(d.design.r_fb_ohm, nominal.r_fb_ohm);
  EXPECT_NE(d.design.l_in_m, nominal.l_in_m);
  EXPECT_NE(d.design.vgs, nominal.vgs);
  EXPECT_NE(d.substrate.epsilon_r, cfg.substrate.epsilon_r);
  EXPECT_NE(d.substrate.height_m, cfg.substrate.height_m);
  // Perturbations are small: tolerance-scale, not garbage.
  EXPECT_NEAR(d.design.l_shunt_h, nominal.l_shunt_h,
              0.06 * nominal.l_shunt_h);
  EXPECT_NEAR(d.substrate.epsilon_r, cfg.substrate.epsilon_r,
              0.03 * cfg.substrate.epsilon_r);
}

// ---------------------------------------------------------------------------
// Engine equivalence and determinism

/// One trial with its netlist rebuilt from scratch (the trial's own
/// LnaDesign), reduced to a band report by `report`.
template <class Report>
TrialOutcome rebuilt_trial(const TrialDraw& draw, const DesignGoals& goals,
                           Report report) {
  AmplifierConfig cfg = resolved_config();
  cfg.substrate = draw.substrate;  // w50 stays at the nominal mask width
  TrialOutcome out;
  try {
    const BandReport r = report(LnaDesign(ref(), cfg, draw.design));
    out.nf_avg_db = r.nf_avg_db;
    out.gt_min_db = r.gt_min_db;
    out.pass = r.nf_avg_db <= goals.nf_goal_db &&
               r.gt_min_db >= goals.gain_goal_db &&
               r.s11_worst_db <= goals.s11_goal_db &&
               r.s22_worst_db <= goals.s22_goal_db &&
               r.mu_min >= goals.mu_margin;
  } catch (const std::exception&) {
    out = TrialOutcome{};
    out.failed = true;
  }
  return out;
}

/// One trial through production: the trial's own batched plan, as
/// run_yield evaluates a trial when no persistent evaluator exists.
TrialOutcome production_trial(const TrialDraw& draw, const DesignGoals& goals) {
  return rebuilt_trial(draw, goals, [](const LnaDesign& lna) {
    return lna.evaluate(LnaDesign::default_band());
  });
}

/// One trial through the per-call oracle, analysed frequency by frequency
/// (tests/reference_band.h).
TrialOutcome reference_trial(const TrialDraw& draw, const DesignGoals& goals) {
  return rebuilt_trial(draw, goals, [](const LnaDesign& lna) {
    return reference::reference_band_report(lna, LnaDesign::default_band());
  });
}

TEST(YieldEngine, PlanReuseMatchesPerTrialRebuildBitForBit) {
  // Goals a hair looser than the nominal design's figures, so tolerance
  // draws land on both sides of every goal and the pass flags carry
  // information.
  DesignGoals goals;
  goals.nf_goal_db = 0.72;
  goals.gain_goal_db = 11.9;
  goals.s11_goal_db = -2.0;
  goals.s22_goal_db = -1.5;
  goals.mu_margin = 1.0;
  const AmplifierConfig config = resolved_config();
  const DesignVector nominal;
  const numeric::Rng root(314);
  const numeric::ScrambledSobol sobol(kYieldTrialDimensions, root);
  for (const YieldSampler sampler :
       {YieldSampler::kPseudoRandom, YieldSampler::kSobol}) {
    // One persistent evaluator across all trials: each trial must match a
    // production rebuild for that trial alone bit for bit, no matter which
    // trials the plan saw before, and the per-call oracle within the
    // written tolerance.
    YieldTrialEvaluator engine(ref(), config, nominal);
    std::size_t passes = 0;
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE((sampler == YieldSampler::kSobol ? "sobol trial "
                                                    : "pseudo trial ") +
                   std::to_string(trial));
      const TrialDraw draw =
          sampler == YieldSampler::kSobol
              ? sobol_trial_draw(sobol, trial, nominal, config.substrate, {})
              : pseudo_trial_draw(root, trial, nominal, config.substrate, {});
      const TrialOutcome a = engine.evaluate(draw, goals);
      const TrialOutcome rebuilt = production_trial(draw, goals);
      EXPECT_EQ(a.failed, rebuilt.failed);
      EXPECT_EQ(a.pass, rebuilt.pass);
      EXPECT_EQ(a.nf_avg_db, rebuilt.nf_avg_db);
      EXPECT_EQ(a.gt_min_db, rebuilt.gt_min_db);
      const TrialOutcome b = reference_trial(draw, goals);
      EXPECT_EQ(a.failed, b.failed);
      EXPECT_EQ(a.pass, b.pass);
      EXPECT_NEAR(a.nf_avg_db, b.nf_avg_db, reference::kOracleTolerance);
      EXPECT_NEAR(a.gt_min_db, b.gt_min_db, reference::kOracleTolerance);
      passes += a.pass ? 1 : 0;
    }
    EXPECT_GT(passes, 0u);
    EXPECT_LT(passes, 12u);
  }
}

TEST(YieldEngine, FullReportIsBitIdenticalAcrossThreadsAndShards) {
  const DesignGoals goals = loose_goals();
  for (const YieldSampler sampler :
       {YieldSampler::kPseudoRandom, YieldSampler::kSobol}) {
    YieldOptions serial;
    serial.sampler = sampler;
    serial.threads = 1;
    serial.shard = 16;
    numeric::Rng rng0(2718);
    const YieldReport reference = run_yield(
        ref(), resolved_config(), DesignVector{}, goals, 16, rng0, serial);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      for (const std::size_t shard : {1u, 7u, 64u}) {
        YieldOptions opt = serial;
        opt.threads = threads;
        opt.shard = shard;
        numeric::Rng rng(2718);
        const YieldReport rep = run_yield(ref(), resolved_config(),
                                          DesignVector{}, goals, 16, rng, opt);
        expect_reports_identical(
            reference, rep,
            "threads=" + std::to_string(threads) +
                " shard=" + std::to_string(shard) +
                (sampler == YieldSampler::kSobol ? " sobol" : " pseudo"));
      }
    }
  }
}

TEST(YieldEngine, LegacyWrapperStillBitIdenticalAcrossThreadCounts) {
  // The PR-3 contract, preserved through the engine rewrite.
  const DesignGoals goals = loose_goals();
  numeric::Rng serial_rng(88);
  const YieldReport serial = monte_carlo_yield(
      ref(), resolved_config(), DesignVector{}, goals, 6, serial_rng, {}, 1);
  numeric::Rng rng(88);
  const YieldReport rep = monte_carlo_yield(ref(), resolved_config(),
                                            DesignVector{}, goals, 6, rng, {},
                                            4);
  expect_reports_identical(serial, rep, "legacy wrapper 4 threads");
}

TEST(YieldEngine, FailedEvaluationsAreCountedNotMixedIntoStatistics) {
  // Regression for the sentinel-pollution bug: an absurd substrate
  // thickness tolerance drives some boards to non-physical (negative)
  // height, which Substrate::validate rejects — the design vector is
  // clamped to its bounds, but the board is not.  Those trials must land
  // in failed_evals — and the NF/gain distribution statistics must NOT
  // contain the old 50 / -50 dB catch-all sentinels.
  DesignGoals goals = loose_goals();
  YieldOptions opt;
  opt.tolerances.height_relative = 2.0;  // height in [-h, 3h]: ~half fail
  numeric::Rng rng(17);
  const YieldReport rep = run_yield(ref(), resolved_config(), DesignVector{},
                                    goals, 24, rng, opt);
  EXPECT_GT(rep.failed_evals, 0u);
  EXPECT_EQ(rep.samples, 24u);
  if (rep.failed_evals < rep.samples) {
    // Survivors' statistics are physical, not sentinel-valued.
    EXPECT_LT(rep.nf_avg_max_db, 49.0);
    EXPECT_GT(rep.gt_min_min_db, -49.0);
    EXPECT_LE(rep.nf_avg_min_db, rep.nf_avg_max_db);
  } else {
    EXPECT_EQ(rep.nf_avg_mean_db, 0.0);
    EXPECT_EQ(rep.gt_min_mean_db, 0.0);
  }
  // Failed trials never pass.
  EXPECT_LE(rep.passes + rep.failed_evals, rep.samples);
}

TEST(YieldEngine, WilsonIntervalBracketsThePassRate) {
  const DesignGoals goals = loose_goals();
  numeric::Rng rng(4);
  const YieldReport rep = run_yield(ref(), resolved_config(), DesignVector{},
                                    goals, 12, rng, {});
  EXPECT_GE(rep.pass_rate, rep.pass_rate_ci95_lo);
  EXPECT_LE(rep.pass_rate, rep.pass_rate_ci95_hi);
  EXPECT_GE(rep.pass_rate_ci95_lo, 0.0);
  EXPECT_LE(rep.pass_rate_ci95_hi, 1.0);
}

TEST(YieldEngine, ConvergenceTraceFiresAtPowersOfTwoAndDoesNotPerturb) {
  const DesignGoals goals = loose_goals();
  std::vector<obs::TraceRecord> records;
  YieldOptions traced;
  traced.trace = [&](const obs::TraceRecord& r) { records.push_back(r); };
  numeric::Rng rng_a(55);
  const YieldReport a = run_yield(ref(), resolved_config(), DesignVector{},
                                  goals, 11, rng_a, traced);
  // Blocks end at 1, 2, 4, 8, then the remainder at 11.
  ASSERT_EQ(records.size(), 5u);
  const std::size_t expected_evals[] = {1, 2, 4, 8, 11};
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].evaluations, expected_evals[i]) << i;
    EXPECT_EQ(records[i].iteration, i);
    EXPECT_EQ(records[i].phase, "yield_mc");
    EXPECT_GE(records[i].attainment, 0.0);  // CI width
  }
  EXPECT_EQ(records.back().front_size, a.passes);
  // The block structure exists only for the trace: the report with
  // tracing on equals the untraced report bit for bit.
  numeric::Rng rng_b(55);
  const YieldReport b = run_yield(ref(), resolved_config(), DesignVector{},
                                  goals, 11, rng_b, {});
  expect_reports_identical(a, b, "traced vs untraced");
}

TEST(YieldEngine, McAndQmcAgreeOnThePassRateAtModestSampleCounts) {
  // Both samplers estimate the same integral; with loose goals and small
  // tolerances the pass probability is high and the two estimates must
  // land close even at small n.
  const DesignGoals goals = loose_goals();
  YieldOptions mc;
  YieldOptions qmc;
  qmc.sampler = YieldSampler::kSobol;
  numeric::Rng rng_a(21);
  numeric::Rng rng_b(21);
  const YieldReport a = run_yield(ref(), resolved_config(), DesignVector{},
                                  goals, 16, rng_a, mc);
  const YieldReport b = run_yield(ref(), resolved_config(), DesignVector{},
                                  goals, 16, rng_b, qmc);
  EXPECT_NEAR(a.pass_rate, b.pass_rate, 0.35);
  EXPECT_NEAR(a.nf_avg_mean_db, b.nf_avg_mean_db, 0.5);
}

TEST(YieldEngine, RejectsZeroSamples) {
  numeric::Rng rng(1);
  EXPECT_THROW(run_yield(ref(), resolved_config(), DesignVector{},
                         loose_goals(), 0, rng, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace gnsslna::amplifier
