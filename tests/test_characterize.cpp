// Source-pull noise-parameter extraction.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/analysis.h"
#include "circuit/noisy_twoport.h"
#include "device/phemt.h"
#include "numeric/rng.h"
#include "rf/units.h"

namespace gnsslna {
namespace {

// ---------------------------------------------------------------------------
// Lane fit on synthetic, exactly-known data.

rf::NoiseParams known_params() {
  rf::NoiseParams np;
  np.frequency_hz = 1.575e9;
  np.f_min = rf::ratio_from_db(0.6);
  np.r_n = 9.0;
  np.gamma_opt = rf::from_mag_deg(0.45, 70.0);
  return np;
}

TEST(LaneFit, RecoversExactParametersFromCleanData) {
  const rf::NoiseParams truth = known_params();
  std::vector<rf::SourcePullPoint> pts;
  pts.push_back({{0.0, 0.0}, rf::noise_factor(truth, {0.0, 0.0})});
  for (int k = 0; k < 8; ++k) {
    const double ang = 2.0 * 3.14159265358979 * k / 8.0;
    const rf::Complex g{0.4 * std::cos(ang), 0.4 * std::sin(ang)};
    pts.push_back({g, rf::noise_factor(truth, g)});
  }
  const rf::NoiseParams fit =
      rf::fit_noise_parameters(pts, truth.frequency_hz);
  EXPECT_NEAR(fit.f_min, truth.f_min, 1e-9);
  EXPECT_NEAR(fit.r_n, truth.r_n, 1e-6);
  EXPECT_NEAR(std::abs(fit.gamma_opt - truth.gamma_opt), 0.0, 1e-7);
}

TEST(LaneFit, ToleratesSmallMeasurementNoise) {
  const rf::NoiseParams truth = known_params();
  numeric::Rng rng(17);
  std::vector<rf::SourcePullPoint> pts;
  for (int k = 0; k < 16; ++k) {
    const double ang = 2.0 * 3.14159265358979 * k / 16.0;
    const double r = k % 2 == 0 ? 0.3 : 0.55;
    const rf::Complex g{r * std::cos(ang), r * std::sin(ang)};
    pts.push_back({g, rf::noise_factor(truth, g) * (1.0 + 0.002 * rng.normal())});
  }
  const rf::NoiseParams fit =
      rf::fit_noise_parameters(pts, truth.frequency_hz);
  EXPECT_NEAR(rf::noise_figure_db(fit.f_min), truth.nf_min_db(), 0.05);
  EXPECT_NEAR(std::abs(fit.gamma_opt), std::abs(truth.gamma_opt), 0.05);
}

TEST(LaneFit, RejectsDegenerateInputs) {
  std::vector<rf::SourcePullPoint> few = {
      {{0.0, 0.0}, 1.2}, {{0.1, 0.0}, 1.3}, {{0.0, 0.1}, 1.3}};
  EXPECT_THROW(rf::fit_noise_parameters(few, 1e9), std::invalid_argument);

  // All states identical: singular system.
  std::vector<rf::SourcePullPoint> same(6, {{0.2, 0.1}, 1.4});
  EXPECT_THROW(rf::fit_noise_parameters(same, 1e9), std::invalid_argument);

  std::vector<rf::SourcePullPoint> bad = {
      {{0.0, 0.0}, 1.2}, {{1.2, 0.0}, 1.3}, {{0.0, 0.1}, 1.3},
      {{0.1, 0.1}, 1.35}};
  EXPECT_THROW(rf::fit_noise_parameters(bad, 1e9), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Source-pull analysis on a stamped device: end-to-end round trip.

TEST(SourcePull, MatchedStateEqualsPlainNoiseAnalysis) {
  const device::Phemt dev = device::Phemt::reference_device();
  const device::Bias bias{-0.3, 2.0};
  circuit::Netlist nl;
  const circuit::NodeId g = nl.add_node();
  const circuit::NodeId d = nl.add_node();
  circuit::add_noisy_three_terminal(
      nl, g, d, circuit::kGround,
      [&](double f) { return rf::y_from_s(dev.s_params(bias, f)); },
      [&](double f) { return dev.noise(bias, f); });
  nl.add_port(g);
  nl.add_port(d);
  const double f0 = 1.575e9;
  const double nf_plain =
      circuit::noise_analysis(nl, 0, 1, f0).noise_figure_db;
  const double nf_pull = circuit::noise_analysis_source_pull(
                             nl, 0, 1, {rf::kZ0, 0.0}, f0)
                             .noise_figure_db;
  EXPECT_NEAR(nf_plain, nf_pull, 1e-9);
}

TEST(SourcePull, DeviceSourcePullMatchesFourParameterFormula) {
  // The MNA source-pull NF at an arbitrary source must equal the analytic
  // source-pull formula of the device's own noise parameters.
  const device::Phemt dev = device::Phemt::reference_device();
  const device::Bias bias{-0.3, 2.0};
  circuit::Netlist nl;
  const circuit::NodeId g = nl.add_node();
  const circuit::NodeId d = nl.add_node();
  circuit::add_noisy_three_terminal(
      nl, g, d, circuit::kGround,
      [&](double f) { return rf::y_from_s(dev.s_params(bias, f)); },
      [&](double f) { return dev.noise(bias, f); });
  nl.add_port(g);
  nl.add_port(d);
  const double f0 = 1.575e9;
  const rf::NoiseParams np = dev.noise(bias, f0);
  for (const rf::Complex gamma :
       {rf::Complex{0.3, 0.2}, rf::Complex{-0.25, 0.4},
        rf::Complex{0.5, -0.1}}) {
    const rf::Complex zs = rf::z_from_gamma(gamma, rf::kZ0);
    const double nf_mna =
        circuit::noise_analysis_source_pull(nl, 0, 1, zs, f0)
            .noise_figure_db;
    EXPECT_NEAR(nf_mna, rf::noise_figure_db(np, gamma), 0.01)
        << "gamma " << gamma;
  }
}

TEST(SourcePull, RejectsLosslessSource) {
  circuit::Netlist nl;
  const circuit::NodeId a = nl.add_node();
  const circuit::NodeId b = nl.add_node();
  nl.add_resistor(a, b, 50.0);
  nl.add_port(a);
  nl.add_port(b);
  EXPECT_THROW(circuit::noise_analysis_source_pull(nl, 0, 1, {0.0, 40.0},
                                                   1e9),
               std::invalid_argument);
}

}  // namespace
}  // namespace gnsslna
