// Virtual Y-factor noise-figure meter.
//
// The classic two-temperature measurement a noise-figure analyzer runs:
//   1. CALIBRATE — the ENR-calibrated noise source drives the receiver
//      directly; the hot/cold power ratio gives the receiver's own noise
//      temperature T_rx (the "second stage" of the Friis cascade).
//   2. MEASURE — the DUT is inserted; the hot/cold ratio now gives the
//      system temperature T_sys = T_dut + T_rx / G_dut, and the hot-cold
//      power DIFFERENCE ratio measures the DUT gain G_dut.
//   3. CORRECT — Friis second-stage correction T_dut = T_sys - T_rx/G_dut,
//      F = 1 + T_dut / T0 (rf/noise.h owns the general Friis arithmetic;
//      the meter applies its two-stage specialization).
//
// Error sources modelled: ENR table error (the source's true ENR differs
// from its printed calibration), cold-load switching jitter (the source's
// physical temperature wanders between switch states), and detector
// reading jitter on every power measurement.  The meter's math only ever
// sees the BELIEVED values (printed ENR, nominal T_cold) — exactly the
// systematic-error structure of the real instrument.
//
// measure_noise_parameters() extends the meter with a source-pull tuner:
// Y-factor NF at a ring of source impedances, Lane-fitted to the four IEEE
// noise parameters (rf::fit_noise_parameters) — the data behind the
// Touchstone noise block lab::measure_design() emits.
#pragma once

#include <cstdint>
#include <vector>

#include "lab/instrument.h"
#include "rf/sweep.h"

namespace gnsslna::lab {

struct NoiseMeterSettings {
  EnrTable enr = EnrTable::standard_15db();  ///< printed calibration table
  double enr_error_sigma_db = 0.03;  ///< true-vs-printed ENR (per frequency)
  double detector_sigma_db = 0.01;   ///< power-reading jitter (per reading)
  double t_cold_k = 296.0;           ///< nominal cold (ambient) temperature
  double t_cold_jitter_k = 0.3;      ///< switching jitter of the cold state
  double receiver_nf_db = 7.0;       ///< receiver (second-stage) noise figure
  std::uint64_t seed = 0x4E0159;

  /// Worst-case NF error bound [dB] implied by the configured
  /// uncertainties at DUT gain >= gain_db — the tolerance the acceptance
  /// tests check against (root-sum-square of ENR error, detector jitter on
  /// the four readings, and the cold-jitter contribution).
  double nf_uncertainty_db(double gain_db = 10.0) const;
};

struct NoiseFigurePoint {
  double frequency_hz = 0.0;
  double nf_db = 0.0;          ///< corrected DUT noise figure
  double gain_db = 0.0;        ///< measured DUT gain (hot-cold difference)
  double y_factor_db = 0.0;    ///< raw DUT-path Y factor
  double t_receiver_k = 0.0;   ///< receiver temperature from the cal step
};

class NoiseFigureMeter {
 public:
  NoiseFigureMeter(NoiseMeterSettings settings, std::vector<double> grid_hz);

  /// Full calibrate + measure + correct run over the grid.  Per-frequency
  /// points fan out across `threads`; bit-identical for any count.
  std::vector<NoiseFigurePoint> measure_nf(const TwoPortDut& dut,
                                           std::size_t threads = 1);

  /// Source-pull noise-parameter measurement: Y-factor NF at `n_states`
  /// source states (matched + a |gamma| = ring_radius ring), Lane fit per
  /// frequency.  Requires dut.noise_pull.
  rf::NoiseSweep measure_noise_parameters(const TwoPortDut& dut,
                                          std::size_t n_states = 9,
                                          double ring_radius = 0.4,
                                          std::size_t threads = 1);

  const std::vector<double>& grid() const { return grid_; }

 private:
  /// One Y-factor DUT measurement (cal + meas) at grid point i; psd(f, T)
  /// must return the DUT output noise PSD [V^2/Hz] with the source at T.
  NoiseFigurePoint y_factor_point(
      std::size_t point, std::uint64_t sweep,
      const std::function<circuit::NoiseResult(double, double)>& psd) const;

  NoiseMeterSettings settings_;
  std::vector<double> grid_;
  numeric::Rng root_;
  std::uint64_t sweep_counter_ = 0;
};

}  // namespace gnsslna::lab
