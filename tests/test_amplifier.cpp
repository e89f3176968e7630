#include <gtest/gtest.h>

#include "amplifier/design_flow.h"
#include "amplifier/lna.h"
#include "amplifier/objectives.h"
#include "amplifier/yield.h"
#include "reference_dc.h"
#include "rf/metrics.h"

namespace gnsslna::amplifier {
namespace {

device::Phemt ref() { return device::Phemt::reference_device(); }

AmplifierConfig config() {
  AmplifierConfig c;
  c.resolve();
  return c;
}

TEST(DesignVector, VectorRoundTrip) {
  DesignVector d;
  d.vgs = -0.33;
  d.l_in_m = 7e-3;
  d.c_in_f = 18e-12;
  const DesignVector back = DesignVector::from_vector(d.to_vector());
  EXPECT_DOUBLE_EQ(back.vgs, d.vgs);
  EXPECT_DOUBLE_EQ(back.l_in_m, d.l_in_m);
  EXPECT_DOUBLE_EQ(back.c_in_f, d.c_in_f);
  EXPECT_THROW(DesignVector::from_vector({1.0, 2.0}), std::invalid_argument);
}

TEST(DesignVector, DefaultsInsideBounds) {
  EXPECT_TRUE(DesignVector::bounds().contains(DesignVector{}.to_vector()));
  EXPECT_EQ(DesignVector::names().size(), DesignVector::kDimension);
}

TEST(Bias, DrainResistorSizedByOhmsLaw) {
  DesignVector d;
  const BiasNetwork b = design_bias(ref(), d, config());
  EXPECT_GT(b.id_a, 1e-3);
  EXPECT_NEAR(b.r_drain * b.id_a, config().vdd - d.vds, 1e-9);
}

TEST(Bias, UnreachablePointsThrow) {
  DesignVector d;
  d.vds = 6.0;  // above the 5 V rail
  EXPECT_THROW(design_bias(ref(), d, config()), std::domain_error);
  d = DesignVector{};
  d.vgs = -0.59;  // essentially pinched off at the box edge
  d.vds = 2.0;
  // Near pinch-off the current may legitimately be tiny; accept either a
  // throw or a >= 0.1 mA result, but never silence a nonphysical one.
  try {
    const BiasNetwork b = design_bias(ref(), d, config());
    EXPECT_GE(b.id_a, 1e-4);
  } catch (const std::domain_error&) {
    SUCCEED();
  }
}

TEST(Lna, DefaultDesignIsAWorkingAmplifier) {
  const LnaDesign lna(ref(), config(), DesignVector{});
  const rf::SParams s = lna.s_params(rf::kGpsL1Hz);
  EXPECT_GT(rf::db20(s.s21), 5.0);    // it amplifies
  EXPECT_LT(rf::db20(s.s12), -20.0);  // reverse isolated
  const double nf = lna.noise_figure_db(rf::kGpsL1Hz);
  EXPECT_GT(nf, 0.2);
  EXPECT_LT(nf, 6.0);
}

TEST(Lna, BandReportConsistent) {
  const LnaDesign lna(ref(), config(), DesignVector{});
  const BandReport rep = lna.evaluate(LnaDesign::default_band());
  EXPECT_GE(rep.nf_max_db, rep.nf_avg_db);
  EXPECT_GE(rep.gt_avg_db, rep.gt_min_db);
  EXPECT_GT(rep.id_a, 0.0);
  EXPECT_GT(rep.mu_min, 0.0);
}

TEST(Lna, SweepMonotonicFrequencies) {
  const LnaDesign lna(ref(), config(), DesignVector{});
  const rf::SweepData sweep =
      lna.s_sweep(rf::linear_grid(1.0e9, 1.8e9, 5));
  ASSERT_EQ(sweep.size(), 5u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].frequency_hz, sweep[i - 1].frequency_hz);
  }
}

TEST(Lna, DispersiveAndIdealPassivesDiffer) {
  AmplifierConfig ideal = config();
  ideal.dispersive_passives = false;
  const LnaDesign real_lna(ref(), config(), DesignVector{});
  const LnaDesign ideal_lna(ref(), ideal, DesignVector{});
  // Dispersion and loss shift both the noise and the match measurably.
  // (The sign of the NF change depends on where the match lands — the
  // systematic penalty of ignoring dispersion is quantified by the A1
  // ablation bench, which re-evaluates an ideal-optimized design with the
  // dispersive models.)
  const double nf_real = real_lna.noise_figure_db(rf::kGpsL1Hz);
  const double nf_ideal = ideal_lna.noise_figure_db(rf::kGpsL1Hz);
  EXPECT_GT(std::abs(nf_real - nf_ideal), 1e-4);
  const double g_real = rf::db20(real_lna.s_params(rf::kGpsL1Hz).s21);
  const double g_ideal = rf::db20(ideal_lna.s_params(rf::kGpsL1Hz).s21);
  EXPECT_GT(std::abs(g_real - g_ideal), 1e-3);
}

TEST(Lna, TeeParasiticsShiftResponse) {
  AmplifierConfig no_tee = config();
  no_tee.model_tee = false;
  const LnaDesign with_tee(ref(), config(), DesignVector{});
  const LnaDesign without(ref(), no_tee, DesignVector{});
  const double g1 = rf::db20(with_tee.s_params(rf::kGpsL1Hz).s21);
  const double g2 = rf::db20(without.s_params(rf::kGpsL1Hz).s21);
  EXPECT_NE(g1, g2);
  EXPECT_NEAR(g1, g2, 3.0);  // parasitics perturb, not destroy
}

TEST(Lna, MoreDegenerationLowersGain) {
  DesignVector lo;
  lo.l_sdeg_h = 0.2e-9;
  DesignVector hi;
  hi.l_sdeg_h = 2.5e-9;
  const double g_lo =
      rf::db20(LnaDesign(ref(), config(), lo).s_params(rf::kGpsL1Hz).s21);
  const double g_hi =
      rf::db20(LnaDesign(ref(), config(), hi).s_params(rf::kGpsL1Hz).s21);
  EXPECT_GT(g_lo, g_hi);
}

TEST(Objectives, VectorShapeAndSentinels) {
  const optimize::VectorObjectiveFn objectives =
      make_goal_problem(ref(), config(), DesignGoals{}).objectives;
  const std::vector<double> f = objectives(DesignVector{}.to_vector());
  ASSERT_EQ(f.size(), 4u);
  // A pinched-off bias point still builds, and is noisier.
  DesignVector pinched;
  pinched.vds = 4.0;
  pinched.vgs = -0.6;
  EXPECT_GE(objectives(pinched.to_vector())[0], f[0]);
  // An unbuildable point (vds at the supply rail) produces exactly the
  // sentinel objectives.
  DesignVector bad;
  bad.vds = config().vdd;
  const BandReport s = infeasible_report();
  EXPECT_EQ(objectives(bad.to_vector()),
            (std::vector<double>{s.nf_avg_db, -s.gt_min_db, s.s11_worst_db,
                                 s.s22_worst_db}));
}

TEST(Objectives, GoalProblemEvaluates) {
  const optimize::GoalProblem p =
      make_goal_problem(ref(), config(), DesignGoals{});
  const std::vector<double> x = DesignVector{}.to_vector();
  const std::vector<double> f = p.objectives(x);
  EXPECT_EQ(f.size(), 4u);
  EXPECT_EQ(p.constraints.size(), 2u);
  // Constraints are finite.
  for (const auto& c : p.constraints) {
    EXPECT_TRUE(std::isfinite(c(x)));
  }
  EXPECT_NO_THROW(p.validate());
}

TEST(Objectives, NfGainProblemIsBiObjective) {
  const optimize::GoalProblem p =
      make_nf_gain_problem(ref(), config(), DesignGoals{});
  const std::vector<double> f =
      p.objectives(DesignVector{}.to_vector());
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(p.constraints.size(), 4u);
}

TEST(Snap, ProducesESeriesValues) {
  DesignVector d;
  d.l_shunt_h = 8.37e-9;
  d.c_in_f = 21.7e-12;
  d.l_in_m = 12.341e-3;
  d.vgs = -0.3137;
  const DesignVector s = snap_design(d);
  EXPECT_DOUBLE_EQ(s.l_shunt_h, 8.2e-9);
  EXPECT_DOUBLE_EQ(s.c_in_f, 22e-12);
  EXPECT_NEAR(s.l_in_m, 12.3e-3, 1e-9);
  EXPECT_NEAR(s.vgs, -0.31, 1e-12);
}

TEST(Snap, SnappedDesignStaysInBounds) {
  numeric::Rng rng(77);
  const optimize::Bounds b = DesignVector::bounds();
  for (int i = 0; i < 50; ++i) {
    const DesignVector d = DesignVector::from_vector(b.sample(rng));
    const DesignVector s = snap_design(d);
    EXPECT_TRUE(b.contains(s.to_vector()));
  }
}

TEST(Snap, IsIdempotent) {
  DesignVector d;
  d.l_shunt_h = 9.1e-9;
  const DesignVector once = snap_design(d);
  const DesignVector twice = snap_design(once);
  EXPECT_DOUBLE_EQ(once.l_shunt_h, twice.l_shunt_h);
  EXPECT_DOUBLE_EQ(once.c_in_f, twice.c_in_f);
}

TEST(Yield, ReportsSaneStatistics) {
  numeric::Rng rng(88);
  DesignGoals goals;
  goals.nf_goal_db = 10.0;  // loose goals so most samples pass
  goals.gain_goal_db = 0.0;
  goals.s11_goal_db = 0.0;
  goals.s22_goal_db = 0.0;
  goals.mu_margin = 0.0;
  const YieldReport rep = monte_carlo_yield(ref(), config(), DesignVector{},
                                            goals, 12, rng);
  EXPECT_EQ(rep.samples, 12u);
  EXPECT_GT(rep.pass_rate, 0.9);
  // The percentiles come from the engine's streaming fixed-grid
  // histograms, which interpolate inside a bin: p95 >= mean holds only up
  // to one bin width of the default windows (NF: 10 dB / 4096 bins,
  // GT: 100 dB / 4096 bins).
  EXPECT_GE(rep.nf_avg_p95_db, rep.nf_avg_mean_db - 10.0 / 4096.0);
  EXPECT_LE(rep.gt_min_p5_db, rep.gt_min_mean_db + 100.0 / 4096.0);
  // The Wilson interval brackets the point estimate.
  EXPECT_GE(rep.pass_rate, rep.pass_rate_ci95_lo);
  EXPECT_LE(rep.pass_rate, rep.pass_rate_ci95_hi);
}

TEST(Yield, ImpossibleGoalsFailEverything) {
  numeric::Rng rng(89);
  DesignGoals goals;
  goals.nf_goal_db = 0.01;
  const YieldReport rep = monte_carlo_yield(ref(), config(), DesignVector{},
                                            goals, 6, rng);
  EXPECT_EQ(rep.passes, 0u);
}

using reference::DcVerification;
using reference::verify_bias_dc;

TEST(Bias, DcSolverConfirmsTheDesignedOperatingPoint) {
  // The drain resistor is sized by Ohm's law at the target point; the
  // nonlinear DC solution of the actual network must land on it.
  DesignVector d;
  const DcVerification v = verify_bias_dc(ref(), d, config());
  EXPECT_NEAR(v.vgs, d.vgs, 1e-9);         // ideal gate source
  EXPECT_NEAR(v.vds, d.vds, 1e-6);         // Newton lands on the target
  EXPECT_NEAR(v.id_a, ref().drain_current({d.vgs, d.vds}), 1e-6);
  EXPECT_LT(std::abs(v.vds_error), 1e-6);
}

TEST(Bias, DcSolverTracksRailChanges) {
  DesignVector d;
  AmplifierConfig lo = config();
  lo.vdd = 4.0;
  // Resistor re-sized for the 4 V rail: still lands on target.
  const DcVerification v = verify_bias_dc(ref(), d, lo);
  EXPECT_NEAR(v.vds, d.vds, 1e-6);
}

TEST(Corners, AmbientTemperatureChangesNoise) {
  AmplifierConfig hot = config();
  hot.t_ambient_k = 358.0;
  AmplifierConfig cold = config();
  cold.t_ambient_k = 233.0;
  const double nf_hot =
      LnaDesign(ref(), hot, DesignVector{}).noise_figure_db(rf::kGpsL1Hz);
  const double nf_cold =
      LnaDesign(ref(), cold, DesignVector{}).noise_figure_db(rf::kGpsL1Hz);
  EXPECT_GT(nf_hot, nf_cold + 0.05);
  // Gain is essentially temperature-independent in this model.
  const double g_hot = rf::db20(
      LnaDesign(ref(), hot, DesignVector{}).s_params(rf::kGpsL1Hz).s21);
  const double g_cold = rf::db20(
      LnaDesign(ref(), cold, DesignVector{}).s_params(rf::kGpsL1Hz).s21);
  EXPECT_NEAR(g_hot, g_cold, 0.01);
}

TEST(Config, ResolvesFiftyOhmWidthOnce) {
  AmplifierConfig c;
  EXPECT_EQ(c.w50_m, 0.0);
  c.resolve();
  EXPECT_GT(c.w50_m, 1e-3);
  const double w = c.w50_m;
  c.resolve();
  EXPECT_EQ(c.w50_m, w);
}

}  // namespace
}  // namespace gnsslna::amplifier
