// Reference band evaluation for the equivalence tests.
//
// The per-call oracle the production path (circuit::BatchedPlan through
// amplifier::band_report) is pinned against: every frequency assembles and
// factors the netlist from scratch through circuit::s_params and
// circuit::noise_analysis, and the figures are reduced in grid order with
// the same operations as band_report.  Equality is exact (==), never a
// tolerance.
#pragma once

#include <algorithm>
#include <vector>

#include "amplifier/lna.h"
#include "circuit/analysis.h"
#include "rf/metrics.h"
#include "rf/units.h"

namespace gnsslna::reference {

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
