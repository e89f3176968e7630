#include "microstrip/line.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "numeric/lanes.h"
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

double Line::beta(double frequency_hz) const {
  return 2.0 * kPi * frequency_hz * std::sqrt(epsilon_eff(frequency_hz)) /
         rf::kC0;
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

void Line::tabulate(std::span<const double> grid_hz,
                    PropagationRows& rows) const {
  rows.alpha_np_m.resize(grid_hz.size());
  rows.beta_rad_m.resize(grid_hz.size());
  rows.z0_ohm.resize(grid_hz.size());
  for (std::size_t k = 0; k < grid_hz.size(); ++k) {
    const Propagation p = propagation(grid_hz[k]);
    rows.alpha_np_m[k] = p.alpha_np_m;
    rows.beta_rad_m[k] = p.beta_rad_m;
    rows.z0_ohm[k] = p.z0_ohm;
  }
}

namespace {

/// The glibc route of the Y-block, for a lane outside the lane kernel's
/// range: Y11 and Y12 of a line with gamma l = al + j bl and impedance z0.
void y_glibc(double al, double bl, double z0, rf::Complex& y11,
             rf::Complex& y12) {
  rf::Complex ch, sh;
  if (al >= 0.0 && al < 709.0 &&
      std::abs(bl) > std::numeric_limits<double>::min()) {
    // cosh(al + j bl) = cosh(al) cos(bl) + j sinh(al) sin(bl) and
    // sinh(al + j bl) = sinh(al) cos(bl) + j cosh(al) sin(bl), from one
    // sincos (GCC merges the sin/cos pair) and one expm1: with
    // m = expm1(al) and e = m + 1, cosh(al) = (e + 1/e)/2 and
    // sinh(al) = (m + m/e)/2, which neither overflow below al = 709 nor
    // cancel for small al.  Outside this range (and for NaN) the complex
    // library functions keep their own overflow and tiny-argument handling.
    const double m = std::expm1(al);
    const double e = m + 1.0;
    const double cosh_al = 0.5 * (e + 1.0 / e);
    const double sinh_al = 0.5 * (m + m / e);
    const double sin_bl = std::sin(bl);
    const double cos_bl = std::cos(bl);
    ch = {cosh_al * cos_bl, sinh_al * sin_bl};
    sh = {sinh_al * cos_bl, cosh_al * sin_bl};
  } else {
    ch = std::cosh(rf::Complex{al, bl});
    sh = std::sinh(rf::Complex{al, bl});
  }
  // B = Z0 sinh(gl) is the chain parameter whose zero has no Y-block.
  if (rf::magnitude_below(z0 * sh, 1e-300)) {
    throw std::domain_error("Line::y_from: B = 0 has no Y representation");
  }
  // One complex reciprocal, of sinh(gl) rather than of B: near al = 709
  // Z0 sinh(gl) can leave the double range, and coth(gl) must be formed
  // before the 1/Z0 scaling, which could take csch(gl) subnormal there.
  const rf::Complex csch = 1.0 / sh;
  const double y0 = 1.0 / z0;
  y11 = (ch * csch) * y0;
  y12 = -csch * y0;
}

/// The in-range lanes of y_lanes: from m = expm1(al), sin(bl) and cos(bl),
/// the same cosh/sinh components as y_glibc, then csch(gl) as
/// conj(sinh) / |sinh|^2 (one division instead of Smith's three).  Every
/// lane is computed; fallback[k] is nonzero where lane k is outside the range
/// (or B = Z0 sinh(gl) might be zero), and y_lanes recomputes those lanes.
GNSSLNA_LANE_CLONES
void y_range_lanes(const double* al, const double* bl, const double* m,
                   const double* sn, const double* cs, const double* z0,
                   std::size_t n, rf::YTermRows out, double* fallback) {
  // The term rows are disjoint (stride >= n) and no output aliases an
  // input, which GCC cannot prove for 18 row pointers.
#pragma GCC ivdep
  for (std::size_t k = 0; k < n; ++k) {
    const double e = m[k] + 1.0;
    const double cosh_al = 0.5 * (e + 1.0 / e);
    const double sinh_al = 0.5 * (m[k] + m[k] / e);
    const double ch_re = cosh_al * cs[k];
    const double ch_im = sinh_al * sn[k];
    const double sh_re = sinh_al * cs[k];
    const double sh_im = cosh_al * sn[k];
    const double sh_norm = sh_re * sh_re + sh_im * sh_im;
    const double inv_norm = 1.0 / sh_norm;
    const double csch_re = sh_re * inv_norm;
    const double csch_im = -sh_im * inv_norm;
    const double y0 = 1.0 / z0[k];
    const double coth_re = ch_re * csch_re - ch_im * csch_im;
    const double coth_im = ch_re * csch_im + ch_im * csch_re;
    const double r11 = coth_re * y0, i11 = coth_im * y0;
    const double r12 = -csch_re * y0, i12 = -csch_im * y0;
    out.store(k, r11, i11, r12, i12, r12, i12, r11, i11);
    // Non-short-circuit & keeps the loop free of control flow.
    const bool in_range =
        (al[k] >= 0.0) & (al[k] < numeric::kExpm1Limit) &
        (std::abs(bl[k]) < numeric::kSinCosLimit) & (sh_norm > 1e-200) &
        (std::abs(z0[k]) <= std::numeric_limits<double>::max()) &
        ((std::abs(z0[k] * sh_re) >= 1e-300) |
         (std::abs(z0[k] * sh_im) >= 1e-300));
    fallback[k] = in_range ? 0.0 : 1.0;
  }
}

}  // namespace

void Line::y_lanes(std::span<const double> alpha_np_m,
                   std::span<const double> beta_rad_m,
                   std::span<const double> z0_ohm, double length_m,
                   const rf::YTermRows& out) {
  using numeric::kLaneBlock;
  double al[kLaneBlock], bl[kLaneBlock], m[kLaneBlock], sn[kLaneBlock],
      cs[kLaneBlock];
  double fallback[kLaneBlock];  // per lane: nonzero = glibc route
  const std::size_t n = alpha_np_m.size();
  for (std::size_t b = 0; b < n; b += kLaneBlock) {
    const std::size_t nb = std::min(kLaneBlock, n - b);
    for (std::size_t k = 0; k < nb; ++k) {
      al[k] = alpha_np_m[b + k] * length_m;
      bl[k] = beta_rad_m[b + k] * length_m;
    }
    numeric::expm1({al, nb}, m);
    numeric::sincos({bl, nb}, sn, cs);
    const rf::YTermRows rows = out.from(b);
    y_range_lanes(al, bl, m, sn, cs, z0_ohm.data() + b, nb, rows, fallback);
    for (std::size_t k = 0; k < nb; ++k) {
      if (fallback[k] == 0.0) continue;
      rf::Complex y11, y12;
      y_glibc(al[k], bl[k], z0_ohm[b + k], y11, y12);
      rows.store(k, y11.real(), y11.imag(), y12.real(), y12.imag(), y12.real(),
                 y12.imag(), y11.real(), y11.imag());
    }
  }
}

rf::YParams Line::y_from(const Propagation& p, double length_m) {
  rf::YTermLane lane;
  y_lanes({&p.alpha_np_m, 1}, {&p.beta_rad_m, 1}, {&p.z0_ohm, 1}, length_m,
          lane.rows());
  return lane.rows().y(0, p.frequency_hz);
}

rf::SParams Line::s_params(double frequency_hz, double z0_ref) const {
  return rf::s_from_y(y_from(propagation(frequency_hz), length_m_), z0_ref);
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
