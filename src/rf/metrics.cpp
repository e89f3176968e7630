#include "rf/metrics.h"

#include <cmath>
#include <stdexcept>

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
