#include "lab/noise_meter.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "numeric/parallel.h"
#include "obs/obs.h"
#include "rf/noise.h"
#include "rf/units.h"

namespace gnsslna::lab {

namespace {

constexpr std::uint64_t kEnrSalt = 0x9D53F1C27A88B061ULL;

/// Equivalent voltage PSD [V^2/Hz] of temperature T at the reference
/// impedance: a matched z0 source at T puts k T z0 across the load.
double psd_of_temperature(double t_k) {
  return rf::kBoltzmann * t_k * rf::kZ0;
}

}  // namespace

double NoiseMeterSettings::nf_uncertainty_db(double gain_db) const {
  // First-order error budget, root-sum-squared and returned as a ~3-sigma
  // bound.  ENR error maps ~1:1 into NF for a hot-dominated Y factor; each
  // of the four detector readings contributes ~Y/(Y-1) ~ 1.8x its jitter;
  // the cold-switch jitter enters relative to T0.  The receiver's residual
  // second-stage term scales down with DUT gain.
  const double enr = enr_error_sigma_db;
  const double det = 2.5 * detector_sigma_db;
  const double cold = 10.0 * std::log10(1.0 + t_cold_jitter_k / rf::kT0);
  const double rss = std::sqrt(enr * enr + det * det + cold * cold);
  const double t_rx = rf::kT0 * (rf::ratio_from_db(receiver_nf_db) - 1.0);
  const double second_stage =
      1.0 + t_rx / (rf::ratio_from_db(gain_db) * rf::kT0);
  return 3.0 * rss * second_stage;
}

NoiseFigureMeter::NoiseFigureMeter(NoiseMeterSettings settings,
                                   std::vector<double> grid_hz)
    : settings_(std::move(settings)),
      grid_(std::move(grid_hz)),
      root_(settings_.seed) {
  if (grid_.empty()) {
    throw std::invalid_argument("NoiseFigureMeter: empty frequency grid");
  }
}

NoiseFigurePoint NoiseFigureMeter::y_factor_point(
    std::size_t point, std::uint64_t sweep,
    const std::function<circuit::NoiseResult(double, double)>& psd) const {
  const double f = grid_[point];
  numeric::Rng rng = root_.split(sweep).split(point);

  // The source's TRUE excess noise differs from the printed table by a
  // per-frequency systematic error (a property of the diode, stable
  // across sweeps — hence its own salted stream, not the sweep stream).
  const double enr_true_db =
      settings_.enr.enr_db(f) +
      settings_.enr_error_sigma_db *
          numeric::Rng(settings_.seed ^ kEnrSalt).split(point).normal();

  const double t_rx_true =
      rf::kT0 * (rf::ratio_from_db(settings_.receiver_nf_db) - 1.0);
  const auto t_cold_switch = [&] {
    return settings_.t_cold_k + settings_.t_cold_jitter_k * rng.normal();
  };
  const auto detector = [&](double power) {
    return power * rf::ratio_from_db(settings_.detector_sigma_db *
                                     rng.normal());
  };
  const auto t_hot_of = [&](double t_cold_actual) {
    return rf::kT0 * rf::ratio_from_db(enr_true_db) + t_cold_actual;
  };

  // CALIBRATE: source straight into the receiver (draw order fixed:
  // cold switch, hot switch, then the two detector readings).
  const double tc_cal_cold = t_cold_switch();
  const double tc_cal_hot = t_cold_switch();
  const double p_cal_cold =
      detector(psd_of_temperature(tc_cal_cold) + psd_of_temperature(t_rx_true));
  const double p_cal_hot = detector(psd_of_temperature(t_hot_of(tc_cal_hot)) +
                                    psd_of_temperature(t_rx_true));

  // MEASURE: DUT inserted between source and receiver.
  const double tc_m_cold = t_cold_switch();
  const double tc_m_hot = t_cold_switch();
  const double p_m_cold = detector(psd(f, tc_m_cold).output_noise_psd +
                                   psd_of_temperature(t_rx_true));
  const double p_m_hot = detector(psd(f, t_hot_of(tc_m_hot)).output_noise_psd +
                                  psd_of_temperature(t_rx_true));

  // CORRECT — using only the BELIEVED quantities (printed ENR, nominal
  // cold temperature), the way the instrument's firmware must.
  const double t_hot_b =
      rf::kT0 * rf::ratio_from_db(settings_.enr.enr_db(f)) + settings_.t_cold_k;
  const double t_cold_b = settings_.t_cold_k;

  const double y_cal = p_cal_hot / p_cal_cold;
  const double t_rx_est = (t_hot_b - y_cal * t_cold_b) / (y_cal - 1.0);

  const double y_m = p_m_hot / p_m_cold;
  const double t_sys = (t_hot_b - y_m * t_cold_b) / (y_m - 1.0);
  const double gain = (p_m_hot - p_m_cold) / (p_cal_hot - p_cal_cold);

  const double t_dut = t_sys - t_rx_est / gain;

  NoiseFigurePoint out;
  out.frequency_hz = f;
  out.nf_db = rf::noise_figure_db(1.0 + std::max(t_dut, 0.0) / rf::kT0);
  out.gain_db = rf::db_from_ratio(gain);
  out.y_factor_db = rf::db_from_ratio(y_m);
  out.t_receiver_k = t_rx_est;
  return out;
}

std::vector<NoiseFigurePoint> NoiseFigureMeter::measure_nf(
    const TwoPortDut& dut, std::size_t threads) {
  if (!dut.noise) {
    throw std::invalid_argument("measure_nf: DUT has no noise closure");
  }
  const std::uint64_t sweep = sweep_counter_++;
  GNSSLNA_OBS_COUNT("lab.noise_meter.sweeps");
  return numeric::parallel_map(threads, grid_.size(), [&](std::size_t i) {
    return y_factor_point(i, sweep, dut.noise);
  });
}

rf::NoiseSweep NoiseFigureMeter::measure_noise_parameters(
    const TwoPortDut& dut, std::size_t n_states, double ring_radius,
    std::size_t threads) {
  if (!dut.noise_pull) {
    throw std::invalid_argument(
        "measure_noise_parameters: DUT cannot be source-pulled");
  }
  if (n_states < 5) {
    throw std::invalid_argument(
        "measure_noise_parameters: need >= 5 source states");
  }
  if (ring_radius <= 0.0 || ring_radius >= 1.0) {
    throw std::invalid_argument(
        "measure_noise_parameters: ring_radius must be in (0, 1)");
  }

  // Source states: the matched point plus a ring — the standard
  // noise-parameter tuner pattern.
  std::vector<Complex> gammas;
  gammas.reserve(n_states);
  gammas.push_back({0.0, 0.0});
  for (std::size_t k = 0; k + 1 < n_states; ++k) {
    const double ang = 2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(n_states - 1);
    gammas.push_back(ring_radius * Complex{std::cos(ang), std::sin(ang)});
  }

  // Each tuner position is its own measurement sweep (its own reading
  // noise); frequencies fan out inside each position.
  std::vector<std::vector<NoiseFigurePoint>> by_state;
  by_state.reserve(gammas.size());
  for (const Complex gamma : gammas) {
    const std::uint64_t sweep = sweep_counter_++;
    GNSSLNA_OBS_COUNT("lab.noise_meter.sweeps");
    const Complex zs = rf::z_from_gamma(gamma, rf::kZ0);
    const auto psd = [&dut, zs](double f, double t_source) {
      return dut.noise_pull(f, zs, t_source);
    };
    by_state.push_back(
        numeric::parallel_map(threads, grid_.size(), [&](std::size_t i) {
          return y_factor_point(i, sweep, psd);
        }));
  }

  rf::NoiseSweep out;
  out.reserve(grid_.size());
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    std::vector<rf::SourcePullPoint> pts;
    pts.reserve(gammas.size());
    for (std::size_t k = 0; k < gammas.size(); ++k) {
      pts.push_back(
          {gammas[k], rf::noise_factor_from_db(by_state[k][i].nf_db)});
    }
    out.push_back(rf::fit_noise_parameters(pts, grid_[i]));
  }
  return out;
}

}  // namespace gnsslna::lab
