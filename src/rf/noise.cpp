#include "rf/noise.h"

#include <cmath>
#include <stdexcept>

#include "numeric/least_squares.h"

namespace gnsslna::rf {

double NoiseParams::nf_min_db() const { return db_from_ratio(f_min); }

double noise_factor(const NoiseParams& np, Complex gamma_s) {
  const double gs2 = std::norm(gamma_s);
  if (gs2 >= 1.0) {
    throw std::domain_error("noise_factor: |gamma_s| must be < 1");
  }
  const double num = std::norm(gamma_s - np.gamma_opt);
  const double den = (1.0 - gs2) * std::norm(1.0 + np.gamma_opt);
  return np.f_min + 4.0 * (np.r_n / np.z0) * num / den;
}

double noise_figure_db(const NoiseParams& np, Complex gamma_s) {
  return db_from_ratio(noise_factor(np, gamma_s));
}

double noise_temperature(double noise_factor, double t0) {
  if (noise_factor < 1.0) {
    throw std::invalid_argument("noise_temperature: noise factor < 1");
  }
  return (noise_factor - 1.0) * t0;
}

double passive_noise_factor(double loss_linear, double t_phys) {
  if (loss_linear < 1.0) {
    throw std::invalid_argument("passive_noise_factor: loss must be >= 1");
  }
  return 1.0 + (loss_linear - 1.0) * t_phys / kT0;
}

NoiseParams fit_noise_parameters(const std::vector<SourcePullPoint>& points,
                                 double frequency_hz, double z0) {
  if (points.size() < 4) {
    throw std::invalid_argument(
        "fit_noise_parameters: need at least 4 source states");
  }
  // Lane: F Gs = A Gs + B + C Bs + D (Gs^2 + Bs^2), linear in (A,B,C,D),
  // with A = Fmin - 2 Rn Gopt, B = Rn |Yopt|^2, C = -2 Rn Bopt, D = Rn.
  numeric::RealMatrix m(points.size(), 4);
  std::vector<double> rhs(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (std::abs(points[i].gamma_s) >= 1.0) {
      throw std::invalid_argument(
          "fit_noise_parameters: |gamma_s| must be < 1");
    }
    const Complex ys = 1.0 / z_from_gamma(points[i].gamma_s, z0);
    const double gs = ys.real();
    const double bs = ys.imag();
    if (gs <= 0.0) {
      throw std::invalid_argument(
          "fit_noise_parameters: non-physical source admittance");
    }
    m(i, 0) = gs;
    m(i, 1) = 1.0;
    m(i, 2) = bs;
    m(i, 3) = gs * gs + bs * bs;
    rhs[i] = points[i].noise_factor * gs;
  }
  std::vector<double> abcd;
  try {
    abcd = numeric::solve_least_squares(m, rhs);
  } catch (const std::domain_error&) {
    throw std::invalid_argument(
        "fit_noise_parameters: degenerate source-state set (spread the "
        "gamma_s points)");
  }

  const double rn = abcd[3];
  if (rn <= 0.0) {
    throw std::domain_error("fit_noise_parameters: fitted Rn <= 0");
  }
  const double bopt = -abcd[2] / (2.0 * rn);
  const double gopt2 = abcd[1] / rn - bopt * bopt;
  if (gopt2 <= 0.0) {
    throw std::domain_error(
        "fit_noise_parameters: fitted |Yopt| is non-physical");
  }
  const double gopt = std::sqrt(gopt2);
  const double f_min = abcd[0] + 2.0 * rn * gopt;
  if (f_min < 1.0 - 1e-9) {
    throw std::domain_error("fit_noise_parameters: fitted Fmin < 1");
  }

  NoiseParams np;
  np.frequency_hz = frequency_hz;
  np.z0 = z0;
  np.f_min = std::max(f_min, 1.0);
  np.r_n = rn;
  np.gamma_opt = gamma_from_z(1.0 / Complex{gopt, bopt}, z0);
  return np;
}

}  // namespace gnsslna::rf
