// Reference band evaluation and the written tolerance of the production
// band pass.
//
// The per-call oracle the production path (circuit::BatchedPlan through
// amplifier::band_report) is pinned against: every frequency assembles and
// factors the netlist from scratch through circuit::s_params and
// circuit::noise_analysis, with partial pivoting, and the figures are
// reduced in grid order with the same operations as band_report.  The
// production pass eliminates in a static diagonal order instead, so the
// two agree within kOracleTolerance (below), except on a lane the
// production pass re-solves on its dense path, which equals the oracle
// bit for bit.  Oracle-vs-oracle and production-vs-production comparisons
// stay exact (==).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "amplifier/lna.h"
#include "circuit/analysis.h"
#include "circuit/netlist.h"
#include "rf/metrics.h"
#include "rf/units.h"

namespace gnsslna::reference {

/// The written tolerance of the production band pass against the oracle
/// (DESIGN.md, "Batched evaluation core"), applied as:
///   * S-parameters: |S_ij - S_ij(oracle)| <= tol * max_kl |S_kl(oracle)|;
///   * noise PSDs and noise factor: relative, |x - x(oracle)| <= tol * |x(oracle)|;
///   * every dB figure (NF, GT, S11/S22 in dB) and mu: absolute, <= tol.
/// The largest deviations measured on the corpus (DE-step and uniform-box
/// fig. 3 designs on FR-4 and RO4350B, random ladders) are 1.1e-12 for S,
/// 1.7e-12 for the PSDs, 6.2e-12 dB and 2.3e-12 for mu: the bound keeps a
/// margin of at least 16x.
inline constexpr double kOracleTolerance = 1e-10;

inline void expect_near_oracle(const rf::SParams& a, const rf::SParams& oracle) {
  const double scale =
      std::max({std::abs(oracle.s11), std::abs(oracle.s12),
                std::abs(oracle.s21), std::abs(oracle.s22)});
  const double bound = kOracleTolerance * scale;
  EXPECT_LE(std::abs(a.s11 - oracle.s11), bound);
  EXPECT_LE(std::abs(a.s12 - oracle.s12), bound);
  EXPECT_LE(std::abs(a.s21 - oracle.s21), bound);
  EXPECT_LE(std::abs(a.s22 - oracle.s22), bound);
}

inline void expect_near_oracle(const circuit::NoiseResult& a,
                               const circuit::NoiseResult& oracle) {
  EXPECT_LE(std::abs(a.source_noise_psd - oracle.source_noise_psd),
            kOracleTolerance * std::abs(oracle.source_noise_psd))
      << "source PSD " << a.source_noise_psd << " vs oracle "
      << oracle.source_noise_psd;
  EXPECT_LE(std::abs(a.output_noise_psd - oracle.output_noise_psd),
            kOracleTolerance * std::abs(oracle.output_noise_psd))
      << "output PSD " << a.output_noise_psd << " vs oracle "
      << oracle.output_noise_psd;
  EXPECT_LE(std::abs(a.noise_factor - oracle.noise_factor),
            kOracleTolerance * std::abs(oracle.noise_factor))
      << "noise factor " << a.noise_factor << " vs oracle "
      << oracle.noise_factor;
  EXPECT_NEAR(a.noise_figure_db, oracle.noise_figure_db, kOracleTolerance);
}

inline void expect_near_oracle(const amplifier::BandReport& a,
                               const amplifier::BandReport& oracle) {
  EXPECT_NEAR(a.nf_avg_db, oracle.nf_avg_db, kOracleTolerance);
  EXPECT_NEAR(a.nf_max_db, oracle.nf_max_db, kOracleTolerance);
  EXPECT_NEAR(a.gt_min_db, oracle.gt_min_db, kOracleTolerance);
  EXPECT_NEAR(a.gt_avg_db, oracle.gt_avg_db, kOracleTolerance);
  EXPECT_NEAR(a.s11_worst_db, oracle.s11_worst_db, kOracleTolerance);
  EXPECT_NEAR(a.s22_worst_db, oracle.s22_worst_db, kOracleTolerance);
  EXPECT_NEAR(a.mu_min, oracle.mu_min, kOracleTolerance);
  EXPECT_EQ(a.id_a, oracle.id_a);
}

/// Two-port whose first unknown's self-admittance crosses zero at
/// `resonance_hz`: node a (unknown 0) joins the input port node b through
/// C and the output port node c through L, a series-resonant branch with
/// j w C + 1 / (j w L) = 0 at resonance (b also has 200 ohm to ground).
/// There the diagonal-order pivot (a, a) vanishes while the matrix stays
/// regular and the branch shorts b to c (the oracle pivots on row b).
inline circuit::Netlist collapsing_pivot_netlist(double resonance_hz) {
  const double l_h = 10e-9;
  const double w0 = 2.0 * std::numbers::pi * resonance_hz;
  const double c_f = 1.0 / (w0 * w0 * l_h);
  circuit::Netlist nl;
  const circuit::NodeId a = nl.add_node();
  const circuit::NodeId b = nl.add_node();
  const circuit::NodeId c = nl.add_node();
  nl.add_capacitor(a, b, c_f);
  nl.add_inductor(a, c, l_h);
  nl.add_resistor(b, circuit::kGround, 200.0);
  nl.add_port(b);
  nl.add_port(c);
  return nl;
}

inline amplifier::BandReport reference_band_report(
    const amplifier::LnaDesign& lna, const std::vector<double>& band_hz) {
  const circuit::Netlist nl = lna.build_netlist();
  amplifier::BandReport rep;
  rep.id_a = lna.bias().id_a;
  double nf_sum = 0.0, gt_sum = 0.0;
  rep.nf_max_db = -1e9;
  rep.gt_min_db = 1e9;
  rep.s11_worst_db = -1e9;
  rep.s22_worst_db = -1e9;
  for (const double f : band_hz) {
    const rf::SParams s = circuit::s_params(nl, f);
    const double nf = circuit::noise_analysis(nl, 0, 1, f).noise_figure_db;
    const double gt = rf::db20(s.s21);
    nf_sum += nf;
    gt_sum += gt;
    rep.nf_max_db = std::max(rep.nf_max_db, nf);
    rep.gt_min_db = std::min(rep.gt_min_db, gt);
    rep.s11_worst_db = std::max(rep.s11_worst_db, rf::db20(s.s11));
    rep.s22_worst_db = std::max(rep.s22_worst_db, rf::db20(s.s22));
  }
  rep.nf_avg_db = nf_sum / static_cast<double>(band_hz.size());
  rep.gt_avg_db = gt_sum / static_cast<double>(band_hz.size());
  rep.mu_min = 1e9;
  for (const double f : amplifier::LnaDesign::stability_grid()) {
    const rf::SParams s = circuit::s_params(nl, f);
    rep.mu_min =
        std::min(rep.mu_min, std::min(rf::mu_source(s), rf::mu_load(s)));
  }
  return rep;
}

}  // namespace gnsslna::reference
