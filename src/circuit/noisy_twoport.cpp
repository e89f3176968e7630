#include "circuit/noisy_twoport.h"

#include <stdexcept>

#include "numeric/lanes.h"
#include "rf/units.h"

namespace gnsslna::circuit {

namespace {

GNSSLNA_LANE_CLONES
void noise_correlation_lanes(const rf::YTermRows y, const rf::NoiseRows np,
                             std::size_t lanes, const CsdRows csd) {
  const double scale = 4.0 * rf::kBoltzmann * rf::kT0;
  const std::size_t g = y.stride;
  // The CSD rows never overlap the input rows (every caller's tables are
  // distinct), which the vectorizer cannot prove for eight output rows.
#pragma GCC ivdep
  for (std::size_t k = 0; k < lanes; ++k) {
    // Y_opt = 1 / z_from_gamma(gamma_opt, z0), with z_from_gamma's
    // z0 (1 + gamma) / (1 - gamma).
    const double gr = np.gamma_re[k], gi = np.gamma_im[k];
    double zr, zi, yr, yi;
    numeric::smith_div(np.z0 * (1.0 + gr), np.z0 * gi, 1.0 - gr, -gi, zr, zi);
    numeric::smith_div(1.0, 0.0, zr, zi, yr, yi);
    const double rn = np.r_n[k];
    const double off = (np.f_min[k] - 1.0) / 2.0;

    // CA (chain representation); ca00 and ca11 are real.
    const double ca00 = scale * rn;
    // ca01 = scale (off - rn conj(y_opt)), ca10 = scale (off - rn y_opt).
    const double ca01r = scale * (off - rn * yr), ca01i = scale * -(rn * -yi);
    const double ca10r = ca01r, ca10i = scale * -(rn * yi);
    const double ca11 = scale * rn * (yr * yr + yi * yi);

    // CY = T CA T^H with T = [[-y11, 1], [-y21, 0]]: p = T CA, then
    // p T^H, each as Matrix::operator* forms it (a left factor that is
    // exactly zero adds nothing; T's zero entry never does).
    const double t00r = -y.re[0 * g + k], t00i = -y.im[0 * g + k];
    const double t10r = -y.re[3 * g + k], t10i = -y.im[3 * g + k];
    const bool t00 = (t00r != 0.0) | (t00i != 0.0);
    const bool t10 = (t10r != 0.0) | (t10i != 0.0);
    double p00r, p00i, p01r, p01i, p10r, p10i, p11r, p11i;
    numeric::complex_mul(t00r, t00i, ca00, 0.0, p00r, p00i);
    numeric::complex_mul(t00r, t00i, ca01r, ca01i, p01r, p01i);
    numeric::complex_mul(t10r, t10i, ca00, 0.0, p10r, p10i);
    numeric::complex_mul(t10r, t10i, ca01r, ca01i, p11r, p11i);
    p00r = numeric::lane_select(t00, p00r, 0.0) + ca10r;
    p00i = numeric::lane_select(t00, p00i, 0.0) + ca10i;
    p01r = numeric::lane_select(t00, p01r, 0.0) + ca11;
    p01i = numeric::lane_select(t00, p01i, 0.0) + 0.0;
    p10r = numeric::lane_select(t10, p10r, 0.0);
    p10i = numeric::lane_select(t10, p10i, 0.0);
    p11r = numeric::lane_select(t10, p11r, 0.0);
    p11i = numeric::lane_select(t10, p11i, 0.0);

    // r_ij = p_i0 conj(t_j0) + p_i1 conj(t_j1); conj(t01) = 1,
    // conj(t11) = 0, so only p_i0 meets a varying factor.
    const double c00r = t00r, c00i = -t00i;  // conj(t00)
    const double c10r = t10r, c10i = -t10i;  // conj(t10)
    double r[8];
    for (int i = 0; i < 2; ++i) {
      const double pr = i == 0 ? p00r : p10r, pi = i == 0 ? p00i : p10i;
      const double qr = i == 0 ? p01r : p11r, qi = i == 0 ? p01i : p11i;
      const bool use_p = (pr != 0.0) | (pi != 0.0);
      double ar, ai, br, bi;
      numeric::complex_mul(pr, pi, c00r, c00i, ar, ai);
      numeric::complex_mul(pr, pi, c10r, c10i, br, bi);
      r[4 * i + 0] = numeric::lane_select(use_p, ar, 0.0) + qr;
      r[4 * i + 1] = numeric::lane_select(use_p, ai, 0.0) + qi;
      r[4 * i + 2] = numeric::lane_select(use_p, br, 0.0);
      r[4 * i + 3] = numeric::lane_select(use_p, bi, 0.0);
    }
    for (std::size_t e = 0; e < 4; ++e) {
      csd.store(e, k, r[2 * e], r[2 * e + 1]);
    }
  }
}

}  // namespace

void noise_correlation_y_lanes(const rf::YTermRows& y, const rf::NoiseRows& np,
                               std::size_t lanes, const CsdRows& csd) {
  for (std::size_t k = 0; k < lanes; ++k) {
    if (np.f_min[k] < 1.0 || np.r_n[k] <= 0.0) {
      throw std::invalid_argument("noise_correlation_y: invalid noise params");
    }
    // rf::z_from_gamma's guard on 1 - gamma.
    if (rf::magnitude_below({1.0 - np.gamma_re[k], -np.gamma_im[k]}, 1e-15)) {
      throw std::domain_error(
          "z_from_gamma: |gamma| = 1 has no finite impedance");
    }
  }
  noise_correlation_lanes(y, np, lanes, csd);
}

numeric::ComplexMatrix noise_correlation_y(const rf::YParams& y,
                                           const rf::NoiseParams& np) {
  rf::YTermLane lane;
  lane.rows().store(0, y);
  double f_min = np.f_min, r_n = np.r_n;
  double gamma_re = np.gamma_opt.real(), gamma_im = np.gamma_opt.imag();
  CsdLane cy;
  noise_correlation_y_lanes(lane.rows(),
                            {&f_min, &r_n, &gamma_re, &gamma_im, np.z0}, 1,
                            cy.rows(2));
  return cy.matrix(2);
}

GNSSLNA_LANE_CLONES
void passive_twoport_csd_lanes(const rf::YTermRows& y, std::size_t lanes,
                               double temperature_k, const CsdRows& csd) {
  const double s = 2.0 * rf::kBoltzmann * temperature_k;
  const std::size_t g = y.stride;
  // As in noise_correlation_lanes: the CSD rows never overlap the Y rows.
#pragma GCC ivdep
  for (std::size_t k = 0; k < lanes; ++k) {
    const double r11 = y.re[0 * g + k], i11 = y.im[0 * g + k];
    const double r12 = y.re[1 * g + k], i12 = y.im[1 * g + k];
    const double r21 = y.re[3 * g + k], i21 = y.im[3 * g + k];
    const double r22 = y.re[4 * g + k], i22 = y.im[4 * g + k];
    // CY = (Y + Y^H) s, entry (i, j) = y_ij + conj(y_ji), scaled by the
    // real s; then the diagonal's negative real round-off is clamped.
    const double d00 = (r11 + r11) * s;
    const double d11 = (r22 + r22) * s;
    csd.store(0, k, d00 < 0.0 ? 0.0 : d00, (i11 - i11) * s);
    csd.store(1, k, (r12 + r21) * s, (i12 - i21) * s);
    csd.store(2, k, (r21 + r12) * s, (i21 - i12) * s);
    csd.store(3, k, d11 < 0.0 ? 0.0 : d11, (i22 - i22) * s);
  }
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
    return twiss_csd(y(f), temperature_k);
  };
}

numeric::ComplexMatrix twiss_csd(const rf::YParams& y, double temperature_k) {
  rf::YTermLane lane;
  lane.rows().store(0, y);
  CsdLane cy;
  passive_twoport_csd_lanes(lane.rows(), 1, temperature_k, cy.rows(2));
  return cy.matrix(2);
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
  ng.passive_twoport = ref.element.index;
  ng.temperature_k = temperature_k;
  ref.noise_group = netlist.add_noise_group(std::move(ng));
  return ref;
}

}  // namespace gnsslna::circuit
