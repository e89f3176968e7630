#include "rf/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/lanes.h"

namespace gnsslna::rf {

namespace {
double mag2(Complex z) { return std::norm(z); }
}  // namespace

double mu_source(const SParams& s) {
  const Complex delta = s.determinant();
  const double denom =
      magnitude(s.s22 - std::conj(s.s11) * delta) + magnitude(s.s12 * s.s21);
  if (denom == 0.0) return 1e12;
  return (1.0 - mag2(s.s11)) / denom;
}

double mu_load(const SParams& s) {
  const Complex delta = s.determinant();
  const double denom =
      magnitude(s.s11 - std::conj(s.s22) * delta) + magnitude(s.s12 * s.s21);
  if (denom == 0.0) return 1e12;
  return (1.0 - mag2(s.s22)) / denom;
}

namespace {

// mu_source and mu_load of each lane, the scalar functions' operations
// written on re/im parts: delta = s11 s22 - s12 s21, the conjugate
// products with the negated imaginary part as an operand, magnitude() as
// sqrt(|z|^2), and the denom == 0 guard as a select.  scalar[k] is set
// where one of the three |z|^2 leaves norm_is_accurate (magnitude() then
// takes std::abs); returns whether any lane did.
GNSSLNA_LANE_CLONES
bool mu_kernel(const SRows s, std::size_t lanes, double* mu_src,
               double* mu_ld, bool* scalar) {
  bool any = false;
  const std::size_t g = s.stride;
  for (std::size_t k = 0; k < lanes; ++k) {
    const double r11 = s.re[SRows::kS11 * g + k], i11 = s.im[SRows::kS11 * g + k];
    const double r12 = s.re[SRows::kS12 * g + k], i12 = s.im[SRows::kS12 * g + k];
    const double r21 = s.re[SRows::kS21 * g + k], i21 = s.im[SRows::kS21 * g + k];
    const double r22 = s.re[SRows::kS22 * g + k], i22 = s.im[SRows::kS22 * g + k];
    double ar, ai, br, bi;
    numeric::complex_mul(r11, i11, r22, i22, ar, ai);  // s11 s22
    numeric::complex_mul(r12, i12, r21, i21, br, bi);  // s12 s21
    const double dr = ar - br, di = ai - bi;            // delta
    double cr, ci, er, ei;
    numeric::complex_mul(r11, -i11, dr, di, cr, ci);  // conj(s11) delta
    numeric::complex_mul(r22, -i22, dr, di, er, ei);  // conj(s22) delta
    const double xr = r22 - cr, xi = i22 - ci;        // s22 - conj(s11) delta
    const double yr = r11 - er, yi = i11 - ei;        // s11 - conj(s22) delta
    const double mx = xr * xr + xi * xi;
    const double my = yr * yr + yi * yi;
    const double mb = br * br + bi * bi;
    const bool bad = !norm_is_accurate(mx) | !norm_is_accurate(my) |
                     !norm_is_accurate(mb);
    const double b_mag = std::sqrt(mb);
    const double den_src = std::sqrt(mx) + b_mag;
    const double den_ld = std::sqrt(my) + b_mag;
    mu_src[k] = numeric::lane_select(den_src == 0.0, 1e12,
                                     (1.0 - (r11 * r11 + i11 * i11)) / den_src);
    mu_ld[k] = numeric::lane_select(den_ld == 0.0, 1e12,
                                    (1.0 - (r22 * r22 + i22 * i22)) / den_ld);
    scalar[k] = bad;
    any |= bad;
  }
  return any;
}

}  // namespace

void mu_lanes(const SRows& s, std::size_t lanes, double* mu_src,
              double* mu_ld) {
  using numeric::kLaneBlock;
  bool scalar[kLaneBlock];
  for (std::size_t b = 0; b < lanes; b += kLaneBlock) {
    const std::size_t nb = std::min(kLaneBlock, lanes - b);
    if (!mu_kernel(s.from(b), nb, mu_src + b, mu_ld + b, scalar)) continue;
    for (std::size_t k = 0; k < nb; ++k) {
      if (!scalar[k]) continue;
      SParams sp;
      sp.s11 = s.at(SRows::kS11, b + k);
      sp.s12 = s.at(SRows::kS12, b + k);
      sp.s21 = s.at(SRows::kS21, b + k);
      sp.s22 = s.at(SRows::kS22, b + k);
      mu_src[b + k] = mu_source(sp);
      mu_ld[b + k] = mu_load(sp);
    }
  }
}

Complex gamma_out(const SParams& s, Complex gamma_s) {
  const Complex den = 1.0 - s.s11 * gamma_s;
  if (std::abs(den) < 1e-300) {
    throw std::domain_error("gamma_out: source on a pole of the network");
  }
  return s.s22 + s.s12 * s.s21 * gamma_s / den;
}

double available_gain(const SParams& s, Complex gamma_s) {
  const Complex gout = gamma_out(s, gamma_s);
  const double out_term = 1.0 - mag2(gout);
  if (out_term <= 0.0) {
    throw std::domain_error("available_gain: |gamma_out| >= 1 (unstable)");
  }
  return (1.0 - mag2(gamma_s)) * mag2(s.s21) /
         (mag2(1.0 - s.s11 * gamma_s) * out_term);
}

}  // namespace gnsslna::rf
