#include "device/small_signal.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "rf/units.h"

namespace gnsslna::device {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
using rf::Complex;
}  // namespace

double IntrinsicParams::ft() const {
  return gm / (kTwoPi * (cgs + cgd));
}

rf::YParams intrinsic_y(const IntrinsicParams& in, double frequency_hz) {
  if (frequency_hz <= 0.0) {
    throw std::invalid_argument("intrinsic_y: frequency must be > 0");
  }
  const double w = kTwoPi * frequency_hz;
  const Complex jw{0.0, w};
  // Gate-source branch: Cgs in series with the channel resistance Ri.
  const Complex y_gs = jw * in.cgs / (1.0 + jw * in.cgs * in.ri);
  const Complex y_gd = jw * in.cgd;
  // Delayed transconductance.
  const Complex gm_eff =
      in.gm * std::exp(Complex{0.0, -w * in.tau_s}) /
      (1.0 + jw * in.cgs * in.ri);

  rf::YParams y;
  y.frequency_hz = frequency_hz;
  y.y11 = y_gs + y_gd;
  y.y12 = -y_gd;
  y.y21 = gm_eff - y_gd;
  y.y22 = in.gds + jw * in.cds + y_gd;
  return y;
}

rf::YParams fet_y(const IntrinsicParams& in, const ExtrinsicParams& ex,
                  double frequency_hz) {
  const double w = kTwoPi * frequency_hz;
  const Complex jw{0.0, w};

  // 1. Intrinsic Y -> Z.
  const rf::YParams yi = intrinsic_y(in, frequency_hz);
  const Complex det = yi.y11 * yi.y22 - yi.y12 * yi.y21;
  if (rf::magnitude_below(det, 1e-300)) {
    throw std::domain_error("fet_y: singular intrinsic core");
  }
  rf::ZParams z;
  z.frequency_hz = frequency_hz;
  z.z11 = yi.y22 / det;
  z.z12 = -yi.y12 / det;
  z.z21 = -yi.y21 / det;
  z.z22 = yi.y11 / det;

  // 2. Add series gate/drain arms and the common source arm.
  const Complex z_g = Complex{ex.rg, 0.0} + jw * ex.lg;
  const Complex z_d = Complex{ex.rd, 0.0} + jw * ex.ld;
  const Complex z_s = Complex{ex.rs, 0.0} + jw * ex.ls;
  z.z11 += z_g + z_s;
  z.z12 += z_s;
  z.z21 += z_s;
  z.z22 += z_d + z_s;

  // 3. Z -> Y, add pad capacitances.
  const Complex zdet = z.z11 * z.z22 - z.z12 * z.z21;
  if (rf::magnitude_below(zdet, 1e-300)) {
    throw std::domain_error("fet_y: singular embedded network");
  }
  rf::YParams y;
  y.frequency_hz = frequency_hz;
  y.y11 = z.z22 / zdet + jw * ex.cpg;
  y.y12 = -z.z12 / zdet;
  y.y21 = -z.z21 / zdet;
  y.y22 = z.z11 / zdet + jw * ex.cpd;
  return y;
}

rf::SParams fet_s_params(const IntrinsicParams& in, const ExtrinsicParams& ex,
                         double frequency_hz, double z0) {
  return rf::s_from_y(fet_y(in, ex, frequency_hz), z0);
}

rf::NoiseParams pospieszalski_noise(const IntrinsicParams& in,
                                    const ExtrinsicParams& ex,
                                    const NoiseTemperatures& t,
                                    double frequency_hz, double z0) {
  if (frequency_hz <= 0.0) {
    throw std::invalid_argument("pospieszalski_noise: frequency must be > 0");
  }
  if (in.gm <= 0.0 || in.gds <= 0.0 || in.ri <= 0.0) {
    throw std::invalid_argument(
        "pospieszalski_noise: gm, gds, ri must be positive");
  }
  const double w = kTwoPi * frequency_hz;
  const double ft = in.gm / (kTwoPi * in.cgs);  // intrinsic fT (Cgs only)
  const double fr = frequency_hz / ft;          // f / fT

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

  double rn = tg / rf::kT0 * rgs +
              td / rf::kT0 * gds / (in.gm * in.gm) *
                  (1.0 + w * w * in.cgs * in.cgs * rgs * rgs);

  // Extrinsic resistive losses (gate metal + source access) raise both the
  // minimum noise and the noise resistance; first-order series-resistor
  // correction at ambient temperature.
  const double r_series = ex.rg + ex.rs;
  const double f_min = f_min_intrinsic +
                       4.0 * (r_series / z0) * fr * fr * gds * td / rf::kT0 *
                           rgs / std::max(ropt, 1e-6) +
                       r_series * (in.gm * fr) * (tg / rf::kT0) * 1e-3;
  rn += r_series * tg / rf::kT0;

  rf::NoiseParams np;
  np.frequency_hz = frequency_hz;
  np.z0 = z0;
  np.f_min = std::max(1.0, f_min);
  np.r_n = rn;
  np.gamma_opt = rf::gamma_from_z({ropt + r_series, xopt - w * (ex.lg + ex.ls)},
                                  z0);
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
