#include "circuit/noisy_twoport.h"

#include <stdexcept>

#include "rf/units.h"

namespace gnsslna::circuit {

numeric::ComplexMatrix noise_correlation_y(const rf::YParams& y,
                                           const rf::NoiseParams& np) {
  if (np.f_min < 1.0 || np.r_n <= 0.0) {
    throw std::invalid_argument("noise_correlation_y: invalid noise params");
  }
  const Complex y_opt =
      1.0 / rf::z_from_gamma(np.gamma_opt, np.z0);
  const double scale = 4.0 * rf::kBoltzmann * rf::kT0;
  const double rn = np.r_n;
  const Complex off{(np.f_min - 1.0) / 2.0, 0.0};

  numeric::ComplexMatrix ca(2, 2);
  ca(0, 0) = scale * rn;
  ca(0, 1) = scale * (off - rn * std::conj(y_opt));
  ca(1, 0) = scale * (off - rn * y_opt);
  ca(1, 1) = scale * rn * std::norm(y_opt);

  // CY = T CA T^H with T = [[-y11, 1], [-y21, 0]].
  numeric::ComplexMatrix t(2, 2);
  t(0, 0) = -y.y11;
  t(0, 1) = Complex{1.0, 0.0};
  t(1, 0) = -y.y21;
  t(1, 1) = Complex{0.0, 0.0};
  return t * ca * t.adjoint();
}

void noise_correlation_y_into(const rf::YParams& y, const rf::NoiseParams& np,
                              Complex out[4]) {
  if (np.f_min < 1.0 || np.r_n <= 0.0) {
    throw std::invalid_argument("noise_correlation_y: invalid noise params");
  }
  const Complex y_opt = 1.0 / rf::z_from_gamma(np.gamma_opt, np.z0);
  const double scale = 4.0 * rf::kBoltzmann * rf::kT0;
  const double rn = np.r_n;
  const Complex off{(np.f_min - 1.0) / 2.0, 0.0};

  Complex ca[2][2];
  ca[0][0] = scale * rn;
  ca[0][1] = scale * (off - rn * std::conj(y_opt));
  ca[1][0] = scale * (off - rn * y_opt);
  ca[1][1] = scale * rn * std::norm(y_opt);

  const Complex t[2][2] = {{-y.y11, Complex{1.0, 0.0}},
                           {-y.y21, Complex{0.0, 0.0}}};

  // p = t * ca, then out = p * t^H, replaying Matrix::operator* exactly:
  // zero-initialized accumulators, k-outer term order, and the skip of
  // exactly-zero left factors.
  Complex p[2][2] = {};
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      const Complex aik = t[i][k];
      if (aik == Complex{}) continue;
      for (std::size_t j = 0; j < 2; ++j) p[i][j] += aik * ca[k][j];
    }
  }
  Complex r[2][2] = {};
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      const Complex aik = p[i][k];
      if (aik == Complex{}) continue;
      for (std::size_t j = 0; j < 2; ++j) {
        r[i][j] += aik * std::conj(t[j][k]);
      }
    }
  }
  out[0] = r[0][0];
  out[1] = r[0][1];
  out[2] = r[1][0];
  out[3] = r[1][1];
}

void passive_twoport_csd_into(const rf::YParams& yp, double temperature_k,
                              Complex out[4]) {
  const Complex m[2][2] = {{yp.y11, yp.y12}, {yp.y21, yp.y22}};
  Complex cy[2][2];
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      cy[i][j] = m[i][j] + std::conj(m[j][i]);
    }
  }
  const Complex s{2.0 * rf::kBoltzmann * temperature_k, 0.0};
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) cy[i][j] *= s;
  }
  for (std::size_t i = 0; i < 2; ++i) {
    if (cy[i][i].real() < 0.0) cy[i][i] = Complex{0.0, cy[i][i].imag()};
  }
  out[0] = cy[0][0];
  out[1] = cy[0][1];
  out[2] = cy[1][0];
  out[3] = cy[1][1];
}

ElementRef add_noisy_three_terminal(Netlist& netlist, NodeId t1, NodeId t2,
                                    NodeId common, YBlockFn y, NoiseParamsFn np,
                                    std::string label) {
  if (!y || !np) {
    throw std::invalid_argument(
        "add_noisy_three_terminal: null parameter function");
  }
  ElementRef ref;
  ref.element = netlist.add_three_terminal(t1, t2, common, y, label);

  NoiseGroup ng;
  ng.injections = {{t1, common}, {t2, common}};
  ng.csd = [y, np](double f) { return noise_correlation_y(y(f), np(f)); };
  ng.label = label.empty() ? "device-noise" : label + "-noise";
  ref.noise_group = netlist.add_noise_group(std::move(ng));
  return ref;
}

std::function<numeric::ComplexMatrix(double)> passive_twoport_csd(
    YBlockFn y, double temperature_k) {
  return [y = std::move(y), temperature_k](double f) {
    const rf::YParams yp = y(f);
    numeric::ComplexMatrix m(2, 2);
    m(0, 0) = yp.y11;
    m(0, 1) = yp.y12;
    m(1, 0) = yp.y21;
    m(1, 1) = yp.y22;
    // Twiss: CY = 2kT (Y + Y^H); clamp tiny negative diagonal round-off.
    numeric::ComplexMatrix cy = m + m.adjoint();
    cy *= Complex{2.0 * rf::kBoltzmann * temperature_k, 0.0};
    for (std::size_t i = 0; i < 2; ++i) {
      if (cy(i, i).real() < 0.0) cy(i, i) = Complex{0.0, cy(i, i).imag()};
    }
    return cy;
  };
}

ElementRef add_passive_twoport(Netlist& netlist, NodeId t1, NodeId t2,
                               NodeId common, YBlockFn y, double temperature_k,
                               std::string label) {
  if (!y) {
    throw std::invalid_argument("add_passive_twoport: null Y function");
  }
  ElementRef ref;
  ref.element = netlist.add_three_terminal(t1, t2, common, y, label);
  if (temperature_k <= 0.0) return ref;

  NoiseGroup ng;
  ng.injections = {{t1, common}, {t2, common}};
  ng.csd = passive_twoport_csd(y, temperature_k);
  ng.label = label.empty() ? "passive-noise" : label + "-noise";
  ref.noise_group = netlist.add_noise_group(std::move(ng));
  return ref;
}

}  // namespace gnsslna::circuit
