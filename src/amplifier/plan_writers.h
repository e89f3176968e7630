// Direct-retabulation writers for frequency-batched plans, and the band
// pass that reads a written plan back as a BandReport.
//
// The batched steady state bypasses the Netlist closures: each writer
// fills a plan value table with exactly what the corresponding closure
// builder in netlist.cpp (or noisy_twoport.cpp / the FET closures in
// lna.cpp) would have returned at every grid frequency, so a plan written
// in place stays bit-identical to one compiled fresh from the rebuilt
// netlist (pinned by tests/test_batched.cpp).
// Each writer returns the number of value tables it rewrote (stamp or
// two-port Y-block, plus the noise CSD when the element is noisy).
//
// Shared by BandEvaluator (optimizer loops) and the yield engine's
// YieldTrialEvaluator (tolerance trials).  `noise_lanes` bounds how many
// leading grid lanes get their noise CSDs rewritten: noise data are only
// ever read for the in-band lanes (noise_sweep / noise_at stop at the
// band), so a caller that knows its band size can skip the stability
// lanes' CSDs without changing any produced figure.  The default rewrites
// every lane.
//
// Internal amplifier header, not part of the public API surface.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "amplifier/lna.h"
#include "circuit/batched.h"
#include "circuit/noisy_twoport.h"
#include "device/small_signal.h"
#include "microstrip/line.h"
#include "rf/twoport.h"
#include "rf/units.h"

namespace gnsslna::amplifier {

/// The band pass every evaluation path shares (LnaDesign::evaluate,
/// BandEvaluator, YieldTrialEvaluator): factors all lanes of `plan` in
/// `ws`, solves the ports and (over the first `band_points` lanes) the
/// output transfer, and reduces the report in grid order.  The plan grid
/// must be `band_points` >= 1 in-band frequencies followed by
/// LnaDesign::stability_grid(); `id_a` is the design's drain current and
/// `noise` reusable per-lane scratch (resized to band_points).  Agrees
/// with the per-call analyses (circuit::s_params / noise_analysis) reduced
/// in the same order within the written tolerance of the batched core
/// (tests/reference_band.h).
BandReport band_report(const circuit::BatchedPlan& plan,
                       circuit::EvalWorkspace& ws, std::size_t band_points,
                       double id_a, std::vector<circuit::NoiseResult>& noise);

}  // namespace gnsslna::amplifier

namespace gnsslna::amplifier::planw {

inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

inline constexpr std::size_t kAllLanes =
    std::numeric_limits<std::size_t>::max();

/// Dispersive one-port (z_of(part) through add_lossy_impedance).  The
/// impedance model is evaluated once per lane and feeds both the stamp
/// and (for the first noise_lanes lanes) the thermal-noise CSD — the same
/// values the two closure tabulations would compute independently.
template <typename Part>
std::size_t write_lossy(circuit::BatchedPlan& plan,
                        const circuit::ElementRef& ref, const Part& part,
                        double temperature_k,
                        std::size_t noise_lanes = kAllLanes) {
  const std::vector<double>& grid = plan.grid();
  const circuit::BatchedPlan::StampView sv = plan.stamp_view(ref.element.index);
  const bool noisy = ref.noise_group != circuit::kNoNoiseGroup;
  const circuit::BatchedPlan::NoiseView nv =
      noisy ? plan.noise_view(ref.noise_group)
            : circuit::BatchedPlan::NoiseView{};
  for (std::size_t fi = 0; fi < sv.count; ++fi) {
    const circuit::Complex z = part.impedance(grid[fi]);
    if (rf::magnitude_below(z, 1e-12)) {
      throw std::domain_error("add_lossy_impedance: near-short element");
    }
    const circuit::Complex y = 1.0 / z;
    sv.values[fi] = y;
    if (noisy && fi < noise_lanes) {
      nv.csd[fi] = circuit::Complex{
          4.0 * rf::kBoltzmann * temperature_k * std::max(0.0, y.real()), 0.0};
    }
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
    sv.values[fi] = circuit::Complex{0.0, kTwoPi * grid[fi] * farads};
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
    sv.values[fi] = circuit::Complex{0.0, -1.0 / (kTwoPi * grid[fi] * henries)};
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
  for (std::size_t fi = 0; fi < sv.count; ++fi) {  // 1: freq-independent
    sv.values[fi] = circuit::Complex{g, 0.0};
  }
  if (ref.noise_group == circuit::kNoNoiseGroup) return 1;
  const double psd = 4.0 * rf::kBoltzmann * temperature_k * g;
  const circuit::BatchedPlan::NoiseView nv = plan.noise_view(ref.noise_group);
  const std::size_t nn = std::min(noise_lanes, nv.count);
  for (std::size_t fi = 0; fi < nn; ++fi) {
    nv.csd[fi] = circuit::Complex{psd, 0.0};
  }
  return 2;
}

inline std::size_t write_line(
    circuit::BatchedPlan& plan, const circuit::ElementRef& ref,
    double length_m, const std::vector<microstrip::Line::Propagation>& prop,
    double temperature_k, std::size_t noise_lanes = kAllLanes) {
  // `prop` caches the length-independent dispersion curve of this line's
  // (substrate, width) over the plan grid — the caller built it from a
  // Line of that substrate and width, which validated both — and
  // abcd_from(propagation(f), length) is bit-identical to abcd(f) of a
  // Line of that length, so the written tables match the closure path's
  // exactly while skipping the dispersion-model re-evaluation and the
  // per-length Line construction.  The length check is the one the Line
  // constructor applies.
  if (length_m <= 0.0) {
    throw std::invalid_argument("Line: width and length must be positive");
  }
  const circuit::BatchedPlan::TwoPortView tv =
      plan.twoport_view(ref.element.index);
  for (std::size_t fi = 0; fi < tv.count; ++fi) {
    tv.set(fi,
           rf::y_from_abcd(microstrip::Line::abcd_from(prop[fi], length_m)));
  }
  if (ref.noise_group == circuit::kNoNoiseGroup) return 1;
  const circuit::BatchedPlan::NoiseView nv = plan.noise_view(ref.noise_group);
  const std::size_t nn = std::min(noise_lanes, nv.count);
  for (std::size_t fi = 0; fi < nn; ++fi) {
    circuit::passive_twoport_csd_into(tv.values[fi], temperature_k,
                                      nv.csd + fi * 4);
  }
  return 2;
}

inline std::size_t write_fet(circuit::BatchedPlan& plan,
                             const circuit::ElementRef& ref,
                             const device::IntrinsicParams& ip,
                             const device::ExtrinsicParams& ex,
                             const device::NoiseTemperatures& nt,
                             std::size_t noise_lanes = kAllLanes) {
  const std::vector<double>& grid = plan.grid();
  const circuit::BatchedPlan::TwoPortView tv =
      plan.twoport_view(ref.element.index);
  const circuit::BatchedPlan::NoiseView nv = plan.noise_view(ref.noise_group);
  const std::size_t nn = std::min(noise_lanes, nv.count);
  for (std::size_t fi = 0; fi < tv.count; ++fi) {
    const rf::YParams yp = rf::y_from_s(device::fet_s_params(ip, ex, grid[fi]));
    tv.set(fi, yp);
    if (fi < nn) {
      const rf::NoiseParams np =
          device::pospieszalski_noise(ip, ex, nt, grid[fi]);
      circuit::noise_correlation_y_into(yp, np, nv.csd + fi * 4);
    }
  }
  return 2;
}

}  // namespace gnsslna::amplifier::planw
