#include <gtest/gtest.h>

#include "rf/metrics.h"
#include "rf/noise.h"
#include "rf/sweep.h"
#include "rf/units.h"

namespace gnsslna::rf {
namespace {

constexpr double kF = 1.575e9;

/// Textbook amplifier-like two-port (Gonzalez-style numbers).
SParams example_fet() {
  SParams s;
  s.frequency_hz = kF;
  s.s11 = from_mag_deg(0.6, -160.0);
  s.s12 = from_mag_deg(0.045, 16.0);
  s.s21 = from_mag_deg(2.5, 30.0);
  s.s22 = from_mag_deg(0.5, -38.0);
  return s;
}

TEST(Stability, ExampleDeviceIsUnconditionallyStable) {
  const SParams s = example_fet();
  EXPECT_GT(mu_source(s), 1.0);
  EXPECT_GT(mu_load(s), 1.0);
}

TEST(Stability, HighFeedbackDeviceIsConditionallyStable) {
  SParams s = example_fet();
  s.s12 = from_mag_deg(0.4, 60.0);  // strong feedback
  EXPECT_LT(mu_source(s), 1.0);
}

TEST(Gains, AvailableGainAtMatchedSourceBoundsTransducer) {
  const SParams s = example_fet();
  const double ga = available_gain(s, {0.0, 0.0});
  const double gt = std::norm(s.s21);  // transducer gain, both ports in z0
  EXPECT_GE(ga, gt - 1e-12);  // GT <= GA always
}

// ---------------------------------------------------------------------------
// Noise

NoiseParams example_noise() {
  NoiseParams np;
  np.frequency_hz = kF;
  np.f_min = ratio_from_db(0.5);
  np.r_n = 8.0;
  np.gamma_opt = from_mag_deg(0.45, 60.0);
  return np;
}

TEST(Noise, FigureAtOptimumEqualsFmin) {
  const NoiseParams np = example_noise();
  EXPECT_NEAR(noise_factor(np, np.gamma_opt), np.f_min, 1e-12);
  EXPECT_NEAR(noise_figure_db(np, np.gamma_opt), np.nf_min_db(), 1e-12);
}

TEST(Noise, FigureRisesAwayFromOptimum) {
  const NoiseParams np = example_noise();
  const double f_opt = noise_factor(np, np.gamma_opt);
  for (const Complex d : {Complex{0.1, 0.0}, Complex{-0.1, 0.1},
                          Complex{0.0, -0.2}}) {
    EXPECT_GT(noise_factor(np, np.gamma_opt + d), f_opt);
  }
}

TEST(Noise, SourceOutsideUnitDiscThrows) {
  const NoiseParams np = example_noise();
  EXPECT_THROW(noise_factor(np, {1.0, 0.1}), std::domain_error);
}

TEST(Noise, PassiveAttenuatorNoiseFigureEqualsLoss) {
  // A matched attenuator at T0 has F = L.
  const double loss = ratio_from_db(3.0);
  EXPECT_NEAR(passive_noise_factor(loss), loss, 1e-12);
  // A cold attenuator adds less noise.
  EXPECT_LT(passive_noise_factor(loss, 77.0), loss);
}

TEST(Noise, NoiseTemperatureKnownPoints) {
  EXPECT_DOUBLE_EQ(noise_temperature(1.0), 0.0);
  EXPECT_NEAR(noise_temperature(2.0), 290.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Sweeps

TEST(Sweep, LinearGridEndpointsExact) {
  const std::vector<double> g = linear_grid(1.1e9, 1.7e9, 7);
  EXPECT_EQ(g.size(), 7u);
  EXPECT_DOUBLE_EQ(g.front(), 1.1e9);
  EXPECT_DOUBLE_EQ(g.back(), 1.7e9);
}

}  // namespace
}  // namespace gnsslna::rf
