#include "device/small_signal.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "numeric/lanes.h"
#include "rf/units.h"

namespace gnsslna::device {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

void require_positive_frequency(double frequency_hz, const char* what) {
  if (frequency_hz <= 0.0) throw std::invalid_argument(what);
}

/// e^{-j w tau} at angular frequency w: glibc's sin and cos of -w tau,
/// the pair cexp forms for a zero real part.
void delay_phasor(double w, double tau_s, double& c, double& s) {
  const double arg = -w * tau_s;
  c = std::cos(arg);
  s = std::sin(arg);
}

/// One lane of the intrinsic core at angular frequency w, given
/// e^{-j w tau} = (c, s): Y as {r11, i11, r12, i12, r21, i21, r22, i22}.
/// The gate-source branch is Cgs in series with the channel resistance
/// Ri; gm is delayed by tau.  The real parts of j w C terms are zero, so
/// y12 = -j w Cgd has real part -0.
inline void intrinsic_lane(const IntrinsicParams& in, double w, double c,
                           double s, double* y) {
  const double jw_cgs = w * in.cgs;
  const double branch_im = jw_cgs * in.ri;  // 1 + j w Cgs Ri
  double gs_re, gs_im, ge_re, ge_im;
  numeric::smith_div(0.0, jw_cgs, 1.0, branch_im, gs_re, gs_im);
  numeric::smith_div(in.gm * c, in.gm * s, 1.0, branch_im, ge_re, ge_im);
  const double gd_im = w * in.cgd;
  y[0] = gs_re;
  y[1] = gs_im + gd_im;
  y[2] = -0.0;
  y[3] = -gd_im;
  y[4] = ge_re;
  y[5] = ge_im - gd_im;
  y[6] = in.gds;
  y[7] = w * in.cds + gd_im;
}

/// The fet_y lane kernel without its checks: term rows of every lane, and
/// each lane's intrinsic and embedded determinants for the checks.
GNSSLNA_LANE_CLONES
void fet_y_lanes(const IntrinsicParams& in, const ExtrinsicParams& ex,
                 const double* frequency_hz, const double* cos_wt,
                 const double* sin_wt, std::size_t lanes, rf::YTermRows out,
                 double* det_re, double* det_im, double* zdet_re,
                 double* zdet_im) {
#pragma GCC ivdep
  for (std::size_t k = 0; k < lanes; ++k) {
    const double w = kTwoPi * frequency_hz[k];
    double y[8];
    intrinsic_lane(in, w, cos_wt[k], sin_wt[k], y);
    // 1. Intrinsic Y -> Z.
    double a_re, a_im, b_re, b_im;
    numeric::complex_mul(y[0], y[1], y[6], y[7], a_re, a_im);
    numeric::complex_mul(y[2], y[3], y[4], y[5], b_re, b_im);
    const double d_re = a_re - b_re, d_im = a_im - b_im;
    det_re[k] = d_re;
    det_im[k] = d_im;
    double z11r, z11i, z12r, z12i, z21r, z21i, z22r, z22i;
    numeric::smith_div(y[6], y[7], d_re, d_im, z11r, z11i);
    numeric::smith_div(-y[2], -y[3], d_re, d_im, z12r, z12i);
    numeric::smith_div(-y[4], -y[5], d_re, d_im, z21r, z21i);
    numeric::smith_div(y[0], y[1], d_re, d_im, z22r, z22i);
    // 2. Add series gate/drain arms and the common source arm.
    const double zs_re = ex.rs, zs_im = w * ex.ls;
    z11r += ex.rg + zs_re;
    z11i += w * ex.lg + zs_im;
    z12r += zs_re;
    z12i += zs_im;
    z21r += zs_re;
    z21i += zs_im;
    z22r += ex.rd + zs_re;
    z22i += w * ex.ld + zs_im;
    // 3. Z -> Y, add pad capacitances.
    numeric::complex_mul(z11r, z11i, z22r, z22i, a_re, a_im);
    numeric::complex_mul(z12r, z12i, z21r, z21i, b_re, b_im);
    const double e_re = a_re - b_re, e_im = a_im - b_im;
    zdet_re[k] = e_re;
    zdet_im[k] = e_im;
    double r11, i11, r12, i12, r21, i21, r22, i22;
    numeric::smith_div(z22r, z22i, e_re, e_im, r11, i11);
    numeric::smith_div(-z12r, -z12i, e_re, e_im, r12, i12);
    numeric::smith_div(-z21r, -z21i, e_re, e_im, r21, i21);
    numeric::smith_div(z11r, z11i, e_re, e_im, r22, i22);
    out.store(k, r11, i11 + w * ex.cpg, r12, i12, r21, i21, r22,
              i22 + w * ex.cpd);
  }
}

GNSSLNA_LANE_CLONES
void pospieszalski_lanes(const IntrinsicParams& in_ref,
                         const ExtrinsicParams& ex_ref,
                         const NoiseTemperatures& t_ref,
                         const double* frequency_hz, std::size_t lanes,
                         rf::NoiseRows out) {
  // Local copies: the row stores cannot then alias the parameters.
  const IntrinsicParams in = in_ref;
  const ExtrinsicParams ex = ex_ref;
  const NoiseTemperatures t = t_ref;
  const double ft = in.gm / (kTwoPi * in.cgs);  // intrinsic fT (Cgs only)
  const double z0 = out.z0;
  for (std::size_t k = 0; k < lanes; ++k) {
    const double w = kTwoPi * frequency_hz[k];
    const double fr = frequency_hz[k] / ft;  // f / fT

    // Pospieszalski closed forms (intrinsic chip).
    const double rgs = in.ri;
    const double gds = in.gds;
    const double tg = t.tg_k;
    const double td = t.td_k;

    const double tmin =
        2.0 * fr * std::sqrt(gds * td * rgs * tg + fr * fr * gds * gds * td *
                                                       td * rgs * rgs) +
        2.0 * fr * fr * gds * td * rgs;
    const double f_min_intrinsic = 1.0 + tmin / rf::kT0;

    const double ropt =
        std::sqrt((rgs * tg) / (gds * td) / (fr * fr) + rgs * rgs);
    const double xopt = 1.0 / (w * in.cgs);

    // std::max(ropt, 1e-6) and, below, std::max(1.0, f_min) as selects.
    const double ropt_floor = numeric::lane_select(ropt < 1e-6, 1e-6, ropt);
    double rn = tg / rf::kT0 * rgs +
                td / rf::kT0 * gds / (in.gm * in.gm) *
                    (1.0 + w * w * in.cgs * in.cgs * rgs * rgs);

    // Extrinsic resistive losses (gate metal + source access) raise both
    // the minimum noise and the noise resistance; first-order
    // series-resistor correction at ambient temperature.
    const double r_series = ex.rg + ex.rs;
    const double f_min = f_min_intrinsic +
                         4.0 * (r_series / z0) * fr * fr * gds * td / rf::kT0 *
                             rgs / ropt_floor +
                         r_series * (in.gm * fr) * (tg / rf::kT0) * 1e-3;
    rn += r_series * tg / rf::kT0;

    out.f_min[k] = numeric::lane_select(1.0 < f_min, f_min, 1.0);
    out.r_n[k] = rn;
    // rf::gamma_from_z(zopt, z0) = (zopt - z0) / (zopt + z0).
    const double zr = ropt + r_series;
    const double zi = xopt - w * (ex.lg + ex.ls);
    numeric::smith_div(zr - z0, zi, zr + z0, zi, out.gamma_re[k],
                       out.gamma_im[k]);
  }
}

}  // namespace

double IntrinsicParams::ft() const {
  return gm / (kTwoPi * (cgs + cgd));
}

rf::YParams intrinsic_y(const IntrinsicParams& in, double frequency_hz) {
  require_positive_frequency(frequency_hz,
                             "intrinsic_y: frequency must be > 0");
  const double w = kTwoPi * frequency_hz;
  double c, s, y[8];
  delay_phasor(w, in.tau_s, c, s);
  intrinsic_lane(in, w, c, s, y);
  return {frequency_hz, {y[0], y[1]}, {y[2], y[3]}, {y[4], y[5]}, {y[6], y[7]}};
}

void fet_y(const IntrinsicParams& in, const ExtrinsicParams& ex,
           std::span<const double> frequency_hz, const rf::YTermRows& out) {
  using numeric::kLaneBlock;
  double cos_wt[kLaneBlock], sin_wt[kLaneBlock];
  double det_re[kLaneBlock], det_im[kLaneBlock], zdet_re[kLaneBlock],
      zdet_im[kLaneBlock];
  for (std::size_t b = 0; b < frequency_hz.size(); b += kLaneBlock) {
    const std::size_t nb = std::min(kLaneBlock, frequency_hz.size() - b);
    const double* f = frequency_hz.data() + b;
    for (std::size_t k = 0; k < nb; ++k) {
      require_positive_frequency(f[k], "intrinsic_y: frequency must be > 0");
      delay_phasor(kTwoPi * f[k], in.tau_s, cos_wt[k], sin_wt[k]);
    }
    fet_y_lanes(in, ex, f, cos_wt, sin_wt, nb, out.from(b), det_re, det_im,
                zdet_re, zdet_im);
    for (std::size_t k = 0; k < nb; ++k) {
      if (rf::magnitude_below({det_re[k], det_im[k]}, 1e-300)) {
        throw std::domain_error("fet_y: singular intrinsic core");
      }
      if (rf::magnitude_below({zdet_re[k], zdet_im[k]}, 1e-300)) {
        throw std::domain_error("fet_y: singular embedded network");
      }
    }
  }
}

rf::YParams fet_y(const IntrinsicParams& in, const ExtrinsicParams& ex,
                  double frequency_hz) {
  rf::YTermLane lane;
  fet_y(in, ex, {&frequency_hz, 1}, lane.rows());
  return lane.rows().y(0, frequency_hz);
}

rf::SParams fet_s_params(const IntrinsicParams& in, const ExtrinsicParams& ex,
                         double frequency_hz, double z0) {
  return rf::s_from_y(fet_y(in, ex, frequency_hz), z0);
}

void pospieszalski_noise(const IntrinsicParams& in, const ExtrinsicParams& ex,
                         const NoiseTemperatures& t,
                         std::span<const double> frequency_hz,
                         const rf::NoiseRows& out) {
  for (const double f : frequency_hz) {
    require_positive_frequency(f, "pospieszalski_noise: frequency must be > 0");
  }
  if (in.gm <= 0.0 || in.gds <= 0.0 || in.ri <= 0.0) {
    throw std::invalid_argument(
        "pospieszalski_noise: gm, gds, ri must be positive");
  }
  pospieszalski_lanes(in, ex, t, frequency_hz.data(), frequency_hz.size(),
                      out);
}

rf::NoiseParams pospieszalski_noise(const IntrinsicParams& in,
                                    const ExtrinsicParams& ex,
                                    const NoiseTemperatures& t,
                                    double frequency_hz, double z0) {
  rf::NoiseParams np;
  np.frequency_hz = frequency_hz;
  np.z0 = z0;
  double gamma_re, gamma_im;
  pospieszalski_noise(in, ex, t, {&frequency_hz, 1},
                      {&np.f_min, &np.r_n, &gamma_re, &gamma_im, z0});
  np.gamma_opt = {gamma_re, gamma_im};
  return np;
}

double fukui_fmin(const IntrinsicParams& in, const ExtrinsicParams& ex,
                  double frequency_hz, double kf) {
  if (frequency_hz <= 0.0) {
    throw std::invalid_argument("fukui_fmin: frequency must be > 0");
  }
  const double ft = in.ft();
  return 1.0 + kf * (frequency_hz / ft) *
                   std::sqrt(in.gm * (ex.rg + ex.rs + in.ri));
}

}  // namespace gnsslna::device
