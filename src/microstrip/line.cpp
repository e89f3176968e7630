#include "microstrip/line.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

/// Hammerstad-Jensen static effective permittivity; `b` is
/// BoardConstants::eeff_b.
double eeff_static(double u, double er, double b) {
  const double a =
      1.0 +
      std::log((std::pow(u, 4) + std::pow(u / 52.0, 2)) /
               (std::pow(u, 4) + 0.432)) /
          49.0 +
      std::log(1.0 + std::pow(u / 18.1, 3)) / 18.7;
  return (er + 1.0) / 2.0 +
         (er - 1.0) / 2.0 * std::pow(1.0 + 10.0 / u, -a * b);
}

/// Hammerstad conductor-thickness width correction: effective u;
/// `weight` is BoardConstants::dur_weight.
double thickness_corrected_u(double u, double t_over_h, double weight) {
  if (t_over_h <= 0.0) return u;
  // Correction in the homogeneous medium, then weighted for the dielectric
  // (Hammerstad-Jensen's recommended treatment).
  const double coth = 1.0 / std::tanh(std::sqrt(6.517 * u));
  const double du1 =
      t_over_h / kPi *
      std::log(1.0 + 4.0 * std::exp(1.0) / (t_over_h * coth * coth));
  const double dur = 0.5 * du1 * weight;
  return u + dur;
}
}  // namespace

/// The factors of a line's constants that depend on eps_r alone, each
/// exactly the subexpression the width constants would otherwise
/// re-derive, so lines of several widths on one board share their bits.
struct Line::BoardConstants {
  double eeff_b;      // 0.564 ((er - 0.9) / (er + 3))^0.053
  double dur_weight;  // 1 + 1 / cosh(sqrt(er - 1))
  double kj_p2;       // Kirschning-Jansen P2
  double kj_p4;       // Kirschning-Jansen P4
};

Line::BoardConstants Line::board_constants(const Substrate& substrate) {
  substrate.validate();
  const double er = substrate.epsilon_r;
  return {0.564 * std::pow((er - 0.9) / (er + 3.0), 0.053),
          1.0 + 1.0 / std::cosh(std::sqrt(er - 1.0)),
          0.33622 * (1.0 - std::exp(-0.03442 * er)),
          1.0 + 2.751 * (1.0 - std::exp(-std::pow(er / 15.916, 8)))};
}

Line::Line(const Substrate& substrate, double width_m, double length_m)
    : Line(substrate, width_m, length_m, board_constants(substrate)) {}

Line::Line(const Substrate& substrate, double width_m, double length_m,
           const BoardConstants& board)
    : substrate_(substrate), width_m_(width_m), length_m_(length_m) {
  if (width_m_ <= 0.0 || length_m_ <= 0.0) {
    throw std::invalid_argument("Line: width and length must be positive");
  }
  const double u = width_m_ / substrate_.height_m;
  const double t_over_h = substrate_.copper_thickness_m / substrate_.height_m;
  u_eff_ = thickness_corrected_u(u, t_over_h, board.dur_weight);
  eeff0_ = eeff_static(u_eff_, substrate_.epsilon_r, board.eeff_b);
  z0_static_ = z01_homogeneous(u_eff_) / std::sqrt(eeff0_);
  kj_p1_exp_ = 0.065683 * std::exp(-8.7513 * u_eff_);
  kj_p2_ = board.kj_p2;
  kj_p3_exp_ = 0.0363 * std::exp(-4.6 * u_eff_);
  kj_p4_ = board.kj_p4;
}

// The Kirschning-Jansen lane kernel (DESIGN.md "Tabulation arithmetic").
// Its expressions are the model's scalar formulas in their association
// order (tests/reference_line.h keeps them with glibc's pow), split by
// what they depend on: the board part reads (substrate, f), the width
// part a line's constants and the board part.  Each power x^y is
// exp(y log x) on the lane log / exp, which is what moves a row from the
// glibc formulas by a few ulps.

struct Line::BoardLanes {
  double fn[numeric::kLaneBlock];        // f h [GHz cm]
  double p1_f[numeric::kLaneBlock];      // 0.6315 + 0.525 / (1 + 0.157 fn)^20
  double p3_f[numeric::kLaneBlock];      // 1 - exp(-(fn / 3.87)^4.97)
  double rs_rough[numeric::kLaneBlock];  // Rs * roughness factor
  double lambda0[numeric::kLaneBlock];   // free-space wavelength
  double w2pf[numeric::kLaneBlock];      // 2 pi f
};

struct Line::WidthLanes {
  double eps_eff[numeric::kLaneBlock];
  double z0[numeric::kLaneBlock];
  double alpha_c[numeric::kLaneBlock];
  double alpha_d[numeric::kLaneBlock];
  double alpha[numeric::kLaneBlock];  // alpha_c + alpha_d
  double beta[numeric::kLaneBlock];
};

namespace {

using numeric::kLaneBlock;

void check_frequencies(std::span<const double> grid_hz) {
  for (const double f : grid_hz) {
    if (f <= 0.0) {
      throw std::invalid_argument("Line: frequency must be > 0");
    }
  }
}

/// log / exp for the vectorized pass: the polynomials, noting in
/// `outside` whether any argument of the lane left their range.
struct PolyMath {
  std::uint64_t outside = 0;
  double log(double x) {
    outside |= !numeric::in_log_range(x);
    return numeric::log_poly(x);
  }
  double exp(double x) {
    outside |= !numeric::in_exp_range(x);
    return numeric::exp_poly(x);
  }
};

/// log / exp for a lane the vectorized pass flagged: the polynomial in
/// range, glibc outside, per call (numeric::log_lane / exp_lane).
struct LaneMath {
  static double log(double x) { return numeric::log_lane(x); }
  static double exp(double x) { return numeric::exp_lane(x); }
};

/// The substrate's scalars the board part reads.
struct BoardScalars {
  double height_m, resistivity, roughness;
};

/// Lane k of the board part: fn, the two f h factors of eps_eff(f), the
/// surface resistance Rs and the argument of the roughness atan, lambda0
/// and 2 pi f.
template <typename Math>
[[gnu::always_inline]] inline void board_lane(Math& math, const double* f, std::size_t k,
                const BoardScalars& s, double* fn, double* p1_f,
                double* p3_f, double* rs, double* atan_x, double* lambda0,
                double* w2pf) {
  // Kirschning-Jansen: fn is the normalized frequency f * h in GHz * cm.
  const double fnk = f[k] / 1e9 * s.height_m * 100.0;
  fn[k] = fnk;
  p1_f[k] = 0.6315 + 0.525 / math.exp(20.0 * math.log(1.0 + 0.157 * fnk));
  p3_f[k] = 1.0 - math.exp(-math.exp(4.97 * math.log(fnk / 3.87)));
  // Surface resistance with the Hammerstad roughness correction
  // 1 + 2/pi atan(1.4 (Delta / delta)^2); the atan is applied per lane
  // afterwards (glibc).
  rs[k] = std::sqrt(kPi * f[k] * kMu0 * s.resistivity);
  const double skin_depth = std::sqrt(s.resistivity / (kPi * f[k] * kMu0));
  const double ratio = s.roughness / skin_depth;
  atan_x[k] = 1.4 * (ratio * ratio);
  lambda0[k] = rf::kC0 / f[k];
  w2pf[k] = 2.0 * kPi * f[k];
}

/// A line's constants the width part reads.
struct WidthScalars {
  double u, p1_exp, p2, p3_exp, p4, er, eeff0, z0_static, width_m, diel,
      tan_delta;
};

/// Lane k of the width part: p = p1 P2 ((0.1844 + p3 P4) fn)^1.5763,
/// eps_eff, Z0 (Edwards/Owens), the conductor and dielectric losses and
/// beta.
template <typename Math>
[[gnu::always_inline]] inline void width_lane(Math& math, const WidthScalars& c, const double* fn,
                const double* p1_f, const double* p3_f, const double* rs_rough,
                const double* lambda0, const double* w2pf, std::size_t k,
                double* eps_eff, double* z0, double* alpha_c, double* alpha_d,
                double* alpha, double* beta) {
  const double p1 = 0.27488 + p1_f[k] * c.u - c.p1_exp;
  const double p3 = c.p3_exp * p3_f[k];
  const double p =
      p1 * c.p2 * math.exp(1.5763 * math.log((0.1844 + p3 * c.p4) * fn[k]));
  const double ef = c.er - (c.er - c.eeff0) / (1.0 + p);
  const double z = c.z0_static * (ef - 1.0) / (c.eeff0 - 1.0) *
                   std::sqrt(c.eeff0 / ef);
  const double ac = rs_rough[k] / (z * c.width_m);
  // Standard mixed-media dielectric loss, in dB/m, converted to Np/m.
  const double ad = c.diel * ((ef - 1.0) / std::sqrt(ef)) * c.tan_delta /
                    lambda0[k] / 8.685889638;
  eps_eff[k] = ef;
  z0[k] = z;
  alpha_c[k] = ac;
  alpha_d[k] = ad;
  alpha[k] = ac + ad;
  beta[k] = w2pf[k] * std::sqrt(ef) / rf::kC0;
}

/// The board part over lanes [0, n) with the polynomials; flag[k] is
/// nonzero where lane k must be recomputed with LaneMath, and the return
/// value whether any lane must.
GNSSLNA_LANE_CLONES
std::uint64_t board_pass(const double* f, std::size_t n, BoardScalars s,
                         double* fn, double* p1_f, double* p3_f, double* rs,
                         double* atan_x, double* lambda0, double* w2pf,
                         std::uint64_t* flag) {
  std::uint64_t any = 0;
  // The rows are disjoint and no output aliases f, which GCC cannot
  // prove for eight row pointers.
#pragma GCC ivdep
  for (std::size_t k = 0; k < n; ++k) {
    PolyMath math;
    board_lane(math, f, k, s, fn, p1_f, p3_f, rs, atan_x, lambda0, w2pf);
    flag[k] = math.outside;
    any |= math.outside;
  }
  return any;
}

/// The width part over lanes [0, n), as board_pass.
GNSSLNA_LANE_CLONES
std::uint64_t width_pass(WidthScalars c, const double* fn, const double* p1_f,
                         const double* p3_f, const double* rs_rough,
                         const double* lambda0, const double* w2pf,
                         std::size_t n, double* eps_eff, double* z0,
                         double* alpha_c, double* alpha_d, double* alpha,
                         double* beta, std::uint64_t* flag) {
  std::uint64_t any = 0;
#pragma GCC ivdep
  for (std::size_t k = 0; k < n; ++k) {
    PolyMath math;
    width_lane(math, c, fn, p1_f, p3_f, rs_rough, lambda0, w2pf, k, eps_eff,
               z0, alpha_c, alpha_d, alpha, beta);
    flag[k] = math.outside;
    any |= math.outside;
  }
  return any;
}

}  // namespace

void Line::board_lanes(const Substrate& substrate, const double* f,
                       std::size_t n, BoardLanes& board) {
  const BoardScalars s{substrate.height_m, substrate.resistivity_ohm_m,
                       substrate.roughness_rms_m};
  double rs[kLaneBlock], atan_x[kLaneBlock];
  std::uint64_t flag[kLaneBlock];
  if (board_pass(f, n, s, board.fn, board.p1_f, board.p3_f, rs, atan_x,
                 board.lambda0, board.w2pf, flag) != 0) {
    for (std::size_t k = 0; k < n; ++k) {
      if (flag[k] == 0) continue;
      LaneMath math;
      board_lane(math, f, k, s, board.fn, board.p1_f, board.p3_f, rs, atan_x,
                 board.lambda0, board.w2pf);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    board.rs_rough[k] = rs[k] * (1.0 + 2.0 / kPi * std::atan(atan_x[k]));
  }
}

void Line::width_lanes(const BoardLanes& board, std::size_t n,
                       WidthLanes& out) const {
  const double er = substrate_.epsilon_r;
  const WidthScalars c{u_eff_,     kj_p1_exp_, kj_p2_,
                       kj_p3_exp_, kj_p4_,     er,
                       eeff0_,     z0_static_, width_m_,
                       27.3 * (er / (er - 1.0)), substrate_.tan_delta};
  std::uint64_t flag[kLaneBlock];
  if (width_pass(c, board.fn, board.p1_f, board.p3_f, board.rs_rough,
                 board.lambda0, board.w2pf, n, out.eps_eff, out.z0,
                 out.alpha_c, out.alpha_d, out.alpha, out.beta, flag) != 0) {
    for (std::size_t k = 0; k < n; ++k) {
      if (flag[k] == 0) continue;
      LaneMath math;
      width_lane(math, c, board.fn, board.p1_f, board.p3_f, board.rs_rough,
                 board.lambda0, board.w2pf, k, out.eps_eff, out.z0,
                 out.alpha_c, out.alpha_d, out.alpha, out.beta);
    }
  }
}

void Line::one_lane(double frequency_hz, WidthLanes& out) const {
  check_frequencies({&frequency_hz, 1});
  BoardLanes board;
  board_lanes(substrate_, &frequency_hz, 1, board);
  width_lanes(board, 1, out);
}

double Line::epsilon_eff(double frequency_hz) const {
  WidthLanes out;
  one_lane(frequency_hz, out);
  return out.eps_eff[0];
}

double Line::z0(double frequency_hz) const {
  WidthLanes out;
  one_lane(frequency_hz, out);
  return out.z0[0];
}

double Line::alpha_conductor(double frequency_hz) const {
  WidthLanes out;
  one_lane(frequency_hz, out);
  return out.alpha_c[0];
}

double Line::alpha_dielectric(double frequency_hz) const {
  WidthLanes out;
  one_lane(frequency_hz, out);
  return out.alpha_d[0];
}

Line::Propagation Line::propagation(double frequency_hz) const {
  WidthLanes out;
  one_lane(frequency_hz, out);
  Propagation p;
  p.frequency_hz = frequency_hz;
  p.alpha_np_m = out.alpha[0];
  p.beta_rad_m = out.beta[0];
  p.z0_ohm = out.z0[0];
  return p;
}

void Line::tabulate(std::span<const double> grid_hz,
                    PropagationRows& rows) const {
  tabulate(substrate_, {&width_m_, 1}, grid_hz, {&rows, 1});
}

void Line::tabulate(const Substrate& board,
                    std::span<const double> widths_m,
                    std::span<const double> grid_hz,
                    std::span<PropagationRows> rows) {
  if (rows.size() != widths_m.size()) {
    throw std::invalid_argument("Line::tabulate: one row set per width");
  }
  const BoardConstants constants = board_constants(board);
  for (const double w : widths_m) {
    if (w <= 0.0) {
      throw std::invalid_argument("Line: width and length must be positive");
    }
  }
  check_frequencies(grid_hz);
  const std::size_t n = grid_hz.size();
  for (PropagationRows& r : rows) {
    r.alpha_np_m.resize(n);
    r.beta_rad_m.resize(n);
    r.z0_ohm.resize(n);
  }
  BoardLanes lanes;
  WidthLanes out;
  for (std::size_t b = 0; b < n; b += kLaneBlock) {
    const std::size_t nb = std::min(kLaneBlock, n - b);
    board_lanes(board, grid_hz.data() + b, nb, lanes);
    // The width constants are rebuilt per block (one block for a grid of
    // up to kLaneBlock frequencies).
    for (std::size_t i = 0; i < widths_m.size(); ++i) {
      Line(board, widths_m[i], 1.0, constants).width_lanes(lanes, nb, out);
      std::copy_n(out.alpha, nb, rows[i].alpha_np_m.data() + b);
      std::copy_n(out.beta, nb, rows[i].beta_rad_m.data() + b);
      std::copy_n(out.z0, nb, rows[i].z0_ohm.data() + b);
    }
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
  // Every step is Line(substrate, w, l).z0(f): the board's constants and
  // its lane at f are computed once, and each width runs the width part.
  const Line::BoardConstants constants = Line::board_constants(substrate);
  check_frequencies({&frequency_hz, 1});
  Line::BoardLanes board;
  Line::board_lanes(substrate, &frequency_hz, 1, board);
  const auto z_at = [&](double w) {
    Line::WidthLanes out;
    Line(substrate, w, 1e-3, constants).width_lanes(board, 1, out);
    return out.z0[0];
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
  return theta_rad /
         Line(substrate, width_m, 1e-3).propagation(frequency_hz).beta_rad_m;
}

}  // namespace gnsslna::microstrip
