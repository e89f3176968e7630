#include "microstrip/line.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "rf/units.h"

namespace gnsslna::microstrip {

namespace {
constexpr double kPi = std::numbers::pi;
constexpr double kEta0 = 376.730313668;  // free-space impedance [ohm]
constexpr double kMu0 = 4e-7 * kPi;

/// Hammerstad-Jensen Z0 of a microstrip in a homogeneous (eps_r = 1) medium.
double z01_homogeneous(double u) {
  const double f = 6.0 + (2.0 * kPi - 6.0) *
                             std::exp(-std::pow(30.666 / u, 0.7528));
  return kEta0 / (2.0 * kPi) *
         std::log(f / u + std::sqrt(1.0 + (2.0 / u) * (2.0 / u)));
}

/// Hammerstad-Jensen static effective permittivity.
double eeff_static(double u, double er) {
  const double a =
      1.0 +
      std::log((std::pow(u, 4) + std::pow(u / 52.0, 2)) /
               (std::pow(u, 4) + 0.432)) /
          49.0 +
      std::log(1.0 + std::pow(u / 18.1, 3)) / 18.7;
  const double b = 0.564 * std::pow((er - 0.9) / (er + 3.0), 0.053);
  return (er + 1.0) / 2.0 +
         (er - 1.0) / 2.0 * std::pow(1.0 + 10.0 / u, -a * b);
}

/// Hammerstad conductor-thickness width correction: effective u.
double thickness_corrected_u(double u, double t_over_h, double er) {
  if (t_over_h <= 0.0) return u;
  // Correction in the homogeneous medium, then weighted for the dielectric
  // (Hammerstad-Jensen's recommended treatment).
  const double coth = 1.0 / std::tanh(std::sqrt(6.517 * u));
  const double du1 =
      t_over_h / kPi *
      std::log(1.0 + 4.0 * std::exp(1.0) / (t_over_h * coth * coth));
  const double dur = 0.5 * du1 * (1.0 + 1.0 / std::cosh(std::sqrt(er - 1.0)));
  return u + dur;
}
}  // namespace

Line::Line(const Substrate& substrate, double width_m, double length_m)
    : substrate_(substrate), width_m_(width_m), length_m_(length_m) {
  substrate_.validate();
  if (width_m_ <= 0.0 || length_m_ <= 0.0) {
    throw std::invalid_argument("Line: width and length must be positive");
  }
  const double u = width_m_ / substrate_.height_m;
  const double t_over_h = substrate_.copper_thickness_m / substrate_.height_m;
  u_eff_ = thickness_corrected_u(u, t_over_h, substrate_.epsilon_r);
  eeff0_ = eeff_static(u_eff_, substrate_.epsilon_r);
  z0_static_ = z01_homogeneous(u_eff_) / std::sqrt(eeff0_);
  const double er = substrate_.epsilon_r;
  kj_p1_exp_ = 0.065683 * std::exp(-8.7513 * u_eff_);
  kj_p2_ = 0.33622 * (1.0 - std::exp(-0.03442 * er));
  kj_p3_exp_ = 0.0363 * std::exp(-4.6 * u_eff_);
  kj_p4_ = 1.0 + 2.751 * (1.0 - std::exp(-std::pow(er / 15.916, 8)));
}

double Line::epsilon_eff(double frequency_hz) const {
  if (frequency_hz <= 0.0) {
    throw std::invalid_argument("Line::epsilon_eff: frequency must be > 0");
  }
  // Kirschning-Jansen dispersion model.  fn is the normalized frequency
  // f * h in GHz * cm.  The frequency-independent factors come from the
  // constructor; the association order is unchanged, so every value is
  // bit-identical to evaluating the whole model here.
  const double er = substrate_.epsilon_r;
  const double u = u_eff_;
  const double fn = frequency_hz / 1e9 * substrate_.height_m * 100.0;

  const double p1 =
      0.27488 + (0.6315 + 0.525 / std::pow(1.0 + 0.157 * fn, 20)) * u -
      kj_p1_exp_;
  const double p3 =
      kj_p3_exp_ * (1.0 - std::exp(-std::pow(fn / 3.87, 4.97)));
  const double p = p1 * kj_p2_ * std::pow((0.1844 + p3 * kj_p4_) * fn, 1.5763);

  return er - (er - eeff0_) / (1.0 + p);
}

double Line::z0_from_eeff(double ef) const {
  // Edwards/Owens dispersion relation: ties Z0(f) to eps_eff(f); accurate
  // to ~1% below ~10 GHz on thin substrates, ample at L-band.
  return z0_static_ * (ef - 1.0) / (eeff0_ - 1.0) * std::sqrt(eeff0_ / ef);
}

double Line::z0(double frequency_hz) const {
  return z0_from_eeff(epsilon_eff(frequency_hz));
}

double Line::alpha_conductor_from(double frequency_hz, double z0_f) const {
  if (frequency_hz <= 0.0) {
    throw std::invalid_argument("Line::alpha_conductor: frequency must be > 0");
  }
  // Surface resistance of the conductor.
  const double rs =
      std::sqrt(kPi * frequency_hz * kMu0 * substrate_.resistivity_ohm_m);
  // Hammerstad roughness correction.
  const double skin_depth =
      std::sqrt(substrate_.resistivity_ohm_m / (kPi * frequency_hz * kMu0));
  const double rough = 1.0 + 2.0 / kPi *
                                 std::atan(1.4 * std::pow(substrate_.roughness_rms_m /
                                                              skin_depth,
                                                          2));
  // Simple wide-strip attenuation Rs / (Z0 w); adequate for w/h ~ 2 lines.
  return rs * rough / (z0_f * width_m_);
}

double Line::alpha_conductor(double frequency_hz) const {
  return alpha_conductor_from(frequency_hz, z0(frequency_hz));
}

double Line::alpha_dielectric_from(double frequency_hz, double ef) const {
  const double er = substrate_.epsilon_r;
  const double lambda0 = rf::kC0 / frequency_hz;
  // Standard mixed-media dielectric loss, in dB/m, converted to Np/m.
  const double alpha_db_per_m = 27.3 * (er / (er - 1.0)) *
                                ((ef - 1.0) / std::sqrt(ef)) *
                                substrate_.tan_delta / lambda0;
  return alpha_db_per_m / 8.685889638;
}

double Line::alpha_dielectric(double frequency_hz) const {
  return alpha_dielectric_from(frequency_hz, epsilon_eff(frequency_hz));
}

double Line::alpha(double frequency_hz) const {
  return alpha_conductor(frequency_hz) + alpha_dielectric(frequency_hz);
}

double Line::beta(double frequency_hz) const {
  return 2.0 * kPi * frequency_hz * std::sqrt(epsilon_eff(frequency_hz)) /
         rf::kC0;
}

double Line::guided_wavelength(double frequency_hz) const {
  return 2.0 * kPi / beta(frequency_hz);
}

double Line::electrical_length(double frequency_hz) const {
  return beta(frequency_hz) * length_m_;
}

Line::Propagation Line::propagation(double frequency_hz) const {
  // Evaluate the Kirschning-Jansen curve once and derive everything from
  // it; each expression below is the body of the matching public accessor,
  // so the values are bit-identical to calling them individually.
  const double ef = epsilon_eff(frequency_hz);
  Propagation p;
  p.frequency_hz = frequency_hz;
  p.z0_ohm = z0_from_eeff(ef);
  p.alpha_np_m = alpha_conductor_from(frequency_hz, p.z0_ohm) +
                 alpha_dielectric_from(frequency_hz, ef);
  p.beta_rad_m = 2.0 * kPi * frequency_hz * std::sqrt(ef) / rf::kC0;
  return p;
}

rf::AbcdParams Line::abcd(double frequency_hz) const {
  return abcd_from(propagation(frequency_hz), length_m_);
}

rf::AbcdParams Line::abcd_from(const Propagation& p, double length_m) {
  const std::complex<double> gamma{p.alpha_np_m, p.beta_rad_m};
  const std::complex<double> gl = gamma * length_m;
  const std::complex<double> zc{p.z0_ohm, 0.0};
  const double al = gl.real();
  const double bl = gl.imag();
  std::complex<double> ch, sh;
  if (al >= 0.0 && al < 709.0 &&
      std::abs(bl) > std::numeric_limits<double>::min()) {
    // cosh(al + j bl) = cosh(al) cos(bl) + j sinh(al) sin(bl) and
    // sinh(al + j bl) = sinh(al) cos(bl) + j cosh(al) sin(bl): exactly the
    // component formulas glibc's ccosh/csinh evaluate on this range, but
    // sharing one sincos (GCC merges the sin/cos pair), one cosh and one
    // sinh between the pair.  Outside it (and for NaN) the library calls
    // keep their own overflow and tiny-argument handling.
    const double sin_bl = std::sin(bl);
    const double cos_bl = std::cos(bl);
    const double cosh_al = std::cosh(al);
    const double sinh_al = std::sinh(al);
    ch = {cosh_al * cos_bl, sinh_al * sin_bl};
    sh = {sinh_al * cos_bl, cosh_al * sin_bl};
  } else {
    ch = std::cosh(gl);
    sh = std::sinh(gl);
  }
  return {p.frequency_hz, ch, zc * sh, sh / zc, ch};
}

rf::SParams Line::s_params(double frequency_hz, double z0_ref) const {
  return rf::s_from_abcd(abcd(frequency_hz), z0_ref);
}

double synthesize_width(const Substrate& substrate, double z0_target,
                        double frequency_hz) {
  if (z0_target <= 0.0) {
    throw std::invalid_argument("synthesize_width: z0 must be positive");
  }
  // Z0 decreases monotonically with width: bisection over a generous range.
  double lo = substrate.height_m * 0.02;   // very narrow -> high Z0
  double hi = substrate.height_m * 40.0;   // very wide  -> low Z0
  const auto z_at = [&](double w) {
    return Line(substrate, w, 1e-3).z0(frequency_hz);
  };
  if (z0_target > z_at(lo) || z0_target < z_at(hi)) {
    throw std::domain_error(
        "synthesize_width: target impedance not realizable on substrate");
  }
  // Up to 100 halvings (geometric).  The step is a pure function of
  // (lo, hi), so once a step leaves both unchanged every later step would
  // too: stopping there returns exactly the 100-step result.
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = std::sqrt(lo * hi);
    const double lo_was = lo, hi_was = hi;
    if (z_at(mid) > z0_target) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (lo == lo_was && hi == hi_was) break;
  }
  return std::sqrt(lo * hi);
}

double length_for_electrical(const Substrate& substrate, double width_m,
                             double theta_rad, double frequency_hz) {
  if (theta_rad <= 0.0) {
    throw std::invalid_argument("length_for_electrical: theta must be > 0");
  }
  const Line probe(substrate, width_m, 1e-3);
  return theta_rad / probe.beta(frequency_hz);
}

}  // namespace gnsslna::microstrip
