// Direct-retabulation writers for frequency-batched plans.
//
// The batched steady state bypasses the Netlist closures: each writer
// fills a plan value table with exactly what the corresponding closure
// builder in netlist.cpp (or noisy_twoport.cpp / the FET closures in
// lna.cpp) would have returned at every grid frequency, so a plan written
// in place stays bit-identical to one compiled fresh from the rebuilt
// netlist (pinned by tests/test_batched.cpp).  Each writer is a pure
// function of its parameters, and returns the number of value tables it
// rewrote (stamp or two-port Y-block, plus the noise CSD when the element
// is noisy).
//
// Used by BandEvaluator (amplifier/lna.cpp), which serves both optimizer
// loops and tolerance trials.  Every table is (re, im) lane rows (the
// plan's views); `noise_lanes` bounds how many leading grid lanes get
// their noise CSD rows rewritten: noise data are only ever read for the
// report lanes (the noise program stops before the stability lanes), so a
// caller that knows its report lanes can skip the stability lanes' CSDs
// without changing any produced figure.  The default rewrites every lane.
//
// Internal amplifier header, not part of the public API surface.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "circuit/batched.h"
#include "circuit/noisy_twoport.h"
#include "device/small_signal.h"
#include "microstrip/line.h"
#include "numeric/lanes.h"
#include "rf/twoport.h"
#include "rf/units.h"

namespace gnsslna::amplifier::planw {

inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

inline constexpr std::size_t kAllLanes =
    std::numeric_limits<std::size_t>::max();

/// Dispersive one-port (z_of(part) through add_lossy_impedance): the
/// part's impedance lane kernel, then circuit::lossy_admittance_lanes for
/// the stamp row and (for the first noise_lanes lanes) the thermal-noise
/// CSD row — the kernels whose one-lane calls the two closures make.
template <typename Part>
std::size_t write_lossy(circuit::BatchedPlan& plan,
                        const circuit::ElementRef& ref, const Part& part,
                        double temperature_k,
                        std::size_t noise_lanes = kAllLanes) {
  const std::vector<double>& grid = plan.grid();
  const circuit::BatchedPlan::StampView sv = plan.stamp_view(ref.element.index);
  const bool noisy = ref.noise_group != circuit::kNoNoiseGroup;
  const circuit::CsdRows csd =
      noisy ? plan.noise_view(ref.noise_group).csd : circuit::CsdRows{};
  const std::size_t nn = noisy ? std::min(noise_lanes, sv.count) : 0;
  using numeric::kLaneBlock;
  double z_re[kLaneBlock], z_im[kLaneBlock];
  for (std::size_t b = 0; b < sv.count; b += kLaneBlock) {
    const std::size_t nb = std::min(kLaneBlock, sv.count - b);
    part.impedance({grid.data() + b, nb}, z_re, z_im);
    circuit::lossy_admittance_lanes({z_re, nb}, z_im, sv.re + b, sv.im + b,
                                    temperature_k, csd.from(b),
                                    nn > b ? std::min(nn - b, nb) : 0);
  }
  return noisy ? 2 : 1;
}

inline std::size_t write_capacitor(circuit::BatchedPlan& plan,
                                   const circuit::ElementId& id,
                                   double farads) {
  if (farads <= 0.0) {
    throw std::invalid_argument("set_capacitor: capacitance must be positive");
  }
  const std::vector<double>& grid = plan.grid();
  const circuit::BatchedPlan::StampView sv = plan.stamp_view(id.index);
  for (std::size_t fi = 0; fi < sv.count; ++fi) {
    sv.re[fi] = 0.0;
    sv.im[fi] = kTwoPi * grid[fi] * farads;
  }
  return 1;
}

inline std::size_t write_inductor(circuit::BatchedPlan& plan,
                                  const circuit::ElementId& id,
                                  double henries) {
  if (henries <= 0.0) {
    throw std::invalid_argument("set_inductor: inductance must be positive");
  }
  const std::vector<double>& grid = plan.grid();
  const circuit::BatchedPlan::StampView sv = plan.stamp_view(id.index);
  for (std::size_t fi = 0; fi < sv.count; ++fi) {
    sv.re[fi] = 0.0;
    sv.im[fi] = -1.0 / (kTwoPi * grid[fi] * henries);
  }
  return 1;
}

inline std::size_t write_resistor(circuit::BatchedPlan& plan,
                                  const circuit::ElementRef& ref, double ohms,
                                  double temperature_k,
                                  std::size_t noise_lanes = kAllLanes) {
  if (ohms <= 0.0) {
    throw std::invalid_argument("set_resistor: resistance must be positive");
  }
  const double g = 1.0 / ohms;
  const circuit::BatchedPlan::StampView sv = plan.stamp_view(ref.element.index);
  for (std::size_t fi = 0; fi < sv.count; ++fi) {  // every lane holds g
    sv.re[fi] = g;
    sv.im[fi] = 0.0;
  }
  if (ref.noise_group == circuit::kNoNoiseGroup) return 1;
  const double psd = 4.0 * rf::kBoltzmann * temperature_k * g;
  const circuit::BatchedPlan::NoiseView nv = plan.noise_view(ref.noise_group);
  const std::size_t nn = std::min(noise_lanes, nv.count);
  for (std::size_t fi = 0; fi < nn; ++fi) nv.csd.store(0, fi, psd, 0.0);
  return 2;
}

inline std::size_t write_line(
    circuit::BatchedPlan& plan, const circuit::ElementRef& ref,
    double length_m, const microstrip::Line::PropagationRows& prop,
    double temperature_k, std::size_t noise_lanes = kAllLanes) {
  // `prop` caches the length-independent dispersion curve of this line's
  // (substrate, width) over the plan grid — the caller built it from a
  // Line of that substrate and width, which validated both — and the
  // closure path computes Line::y_from(propagation(f), length()), the
  // one-lane call of the same lane kernel, so the written tables match it
  // exactly while skipping the dispersion-model re-evaluation and the
  // per-length Line construction.  The length check is the one the Line
  // constructor applies.
  if (length_m <= 0.0) {
    throw std::invalid_argument("Line: width and length must be positive");
  }
  const circuit::BatchedPlan::TwoPortView tv =
      plan.twoport_view(ref.element.index);
  microstrip::Line::y_lanes(prop.alpha_np_m, prop.beta_rad_m, prop.z0_ohm,
                            length_m, tv.terms);
  if (ref.noise_group == circuit::kNoNoiseGroup) return 1;
  const circuit::BatchedPlan::NoiseView nv = plan.noise_view(ref.noise_group);
  circuit::passive_twoport_csd_lanes(tv.terms, std::min(noise_lanes, nv.count),
                                     temperature_k, nv.csd);
  return 2;
}

inline std::size_t write_fet(circuit::BatchedPlan& plan,
                             const circuit::ElementRef& ref,
                             const device::IntrinsicParams& ip,
                             const device::ExtrinsicParams& ex,
                             const device::NoiseTemperatures& nt,
                             std::size_t noise_lanes = kAllLanes) {
  // The closures' lane kernels over the grid: the Y-block, then for the
  // first noise_lanes lanes the Pospieszalski parameters and the noise
  // correlation matrix they give with that Y-block.
  const std::vector<double>& grid = plan.grid();
  const circuit::BatchedPlan::TwoPortView tv =
      plan.twoport_view(ref.element.index);
  const circuit::BatchedPlan::NoiseView nv = plan.noise_view(ref.noise_group);
  const std::size_t nn = std::min(noise_lanes, nv.count);
  device::fet_y(ip, ex, grid, tv.terms);
  using numeric::kLaneBlock;
  double f_min[kLaneBlock], r_n[kLaneBlock], gamma_re[kLaneBlock],
      gamma_im[kLaneBlock];
  const rf::NoiseRows np{f_min, r_n, gamma_re, gamma_im, rf::kZ0};
  for (std::size_t b = 0; b < nn; b += kLaneBlock) {
    const std::size_t nb = std::min(kLaneBlock, nn - b);
    device::pospieszalski_noise(ip, ex, nt, {grid.data() + b, nb}, np);
    circuit::noise_correlation_y_lanes(tv.terms.from(b), np, nb,
                                       nv.csd.from(b));
  }
  return 2;
}

}  // namespace gnsslna::amplifier::planw
