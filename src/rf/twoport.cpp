#include "rf/twoport.h"

#include <stdexcept>

namespace gnsslna::rf {

namespace {
constexpr Complex kOne{1.0, 0.0};

void require_same_grid(const SParams& a, const SParams& b, const char* who) {
  if (a.z0 != b.z0) {
    throw std::invalid_argument(std::string(who) +
                                ": reference impedances differ");
  }
  if (a.frequency_hz != b.frequency_hz) {
    throw std::invalid_argument(std::string(who) + ": frequencies differ");
  }
}
}  // namespace

YParams y_from_s(const SParams& s) {
  const double y0 = 1.0 / s.z0;
  const Complex den =
      (kOne + s.s11) * (kOne + s.s22) - s.s12 * s.s21;
  if (magnitude_below(den, 1e-300)) {
    throw std::domain_error("y_from_s: network has no Y representation");
  }
  YParams y;
  y.frequency_hz = s.frequency_hz;
  y.y11 = y0 * ((kOne - s.s11) * (kOne + s.s22) + s.s12 * s.s21) / den;
  y.y12 = y0 * (-2.0 * s.s12) / den;
  y.y21 = y0 * (-2.0 * s.s21) / den;
  y.y22 = y0 * ((kOne + s.s11) * (kOne - s.s22) + s.s12 * s.s21) / den;
  return y;
}

SParams s_from_y(const YParams& y, double z0) {
  const double y0 = 1.0 / z0;
  const Complex den =
      (y.y11 + y0) * (y.y22 + y0) - y.y12 * y.y21;
  if (magnitude_below(den, 1e-300)) {
    throw std::domain_error("s_from_y: singular conversion");
  }
  SParams s;
  s.frequency_hz = y.frequency_hz;
  s.z0 = z0;
  s.s11 = ((y0 - y.y11) * (y0 + y.y22) + y.y12 * y.y21) / den;
  s.s12 = -2.0 * y.y12 * y0 / den;
  s.s21 = -2.0 * y.y21 * y0 / den;
  s.s22 = ((y0 + y.y11) * (y0 - y.y22) + y.y12 * y.y21) / den;
  return s;
}

ZParams z_from_s(const SParams& s) {
  const Complex den =
      (kOne - s.s11) * (kOne - s.s22) - s.s12 * s.s21;
  if (magnitude_below(den, 1e-300)) {
    throw std::domain_error("z_from_s: network has no Z representation");
  }
  ZParams z;
  z.frequency_hz = s.frequency_hz;
  z.z11 = s.z0 * ((kOne + s.s11) * (kOne - s.s22) + s.s12 * s.s21) / den;
  z.z12 = s.z0 * (2.0 * s.s12) / den;
  z.z21 = s.z0 * (2.0 * s.s21) / den;
  z.z22 = s.z0 * ((kOne - s.s11) * (kOne + s.s22) + s.s12 * s.s21) / den;
  return z;
}

SParams s_from_z(const ZParams& z, double z0) {
  const Complex den =
      (z.z11 + z0) * (z.z22 + z0) - z.z12 * z.z21;
  if (magnitude_below(den, 1e-300)) {
    throw std::domain_error("s_from_z: singular conversion");
  }
  SParams s;
  s.frequency_hz = z.frequency_hz;
  s.z0 = z0;
  s.s11 = ((z.z11 - z0) * (z.z22 + z0) - z.z12 * z.z21) / den;
  s.s12 = 2.0 * z.z12 * z0 / den;
  s.s21 = 2.0 * z.z21 * z0 / den;
  s.s22 = ((z.z11 + z0) * (z.z22 - z0) - z.z12 * z.z21) / den;
  return s;
}

AbcdParams abcd_from_s(const SParams& s) {
  if (magnitude_below(s.s21, 1e-300)) {
    throw std::domain_error("abcd_from_s: S21 = 0 has no chain representation");
  }
  const double z0 = s.z0;
  AbcdParams abcd;
  abcd.frequency_hz = s.frequency_hz;
  const Complex two_s21 = 2.0 * s.s21;
  abcd.a = ((kOne + s.s11) * (kOne - s.s22) + s.s12 * s.s21) / two_s21;
  abcd.b = z0 * ((kOne + s.s11) * (kOne + s.s22) - s.s12 * s.s21) / two_s21;
  abcd.c = ((kOne - s.s11) * (kOne - s.s22) - s.s12 * s.s21) / (z0 * two_s21);
  abcd.d = ((kOne - s.s11) * (kOne + s.s22) + s.s12 * s.s21) / two_s21;
  return abcd;
}

SParams s_from_abcd(const AbcdParams& abcd, double z0) {
  const Complex den =
      abcd.a + abcd.b / z0 + abcd.c * z0 + abcd.d;
  if (magnitude_below(den, 1e-300)) {
    throw std::domain_error("s_from_abcd: singular conversion");
  }
  SParams s;
  s.frequency_hz = abcd.frequency_hz;
  s.z0 = z0;
  s.s11 = (abcd.a + abcd.b / z0 - abcd.c * z0 - abcd.d) / den;
  s.s12 = 2.0 * (abcd.a * abcd.d - abcd.b * abcd.c) / den;
  s.s21 = 2.0 / den;
  s.s22 = (-abcd.a + abcd.b / z0 - abcd.c * z0 + abcd.d) / den;
  return s;
}

SParams cascade(const SParams& first, const SParams& second) {
  require_same_grid(first, second, "cascade");
  return s_from_abcd(abcd_from_s(first).cascade(abcd_from_s(second)),
                     first.z0);
}

YParams y_from_abcd(const AbcdParams& abcd) {
  if (magnitude_below(abcd.b, 1e-300)) {
    throw std::domain_error("y_from_abcd: B = 0 has no Y representation");
  }
  YParams y;
  y.frequency_hz = abcd.frequency_hz;
  y.y11 = abcd.d / abcd.b;
  y.y12 = -(abcd.a * abcd.d - abcd.b * abcd.c) / abcd.b;
  y.y21 = -1.0 / abcd.b;
  y.y22 = abcd.a / abcd.b;
  return y;
}

AbcdParams abcd_series_impedance(double frequency_hz, Complex z) {
  return {frequency_hz, kOne, z, Complex{0.0, 0.0}, kOne};
}

AbcdParams abcd_shunt_admittance(double frequency_hz, Complex y) {
  return {frequency_hz, kOne, Complex{0.0, 0.0}, y, kOne};
}

AbcdParams abcd_ideal_line(double frequency_hz, double z0, double theta_rad) {
  const double ct = std::cos(theta_rad);
  const double st = std::sin(theta_rad);
  return {frequency_hz, Complex{ct, 0.0}, Complex{0.0, z0 * st},
          Complex{0.0, st / z0}, Complex{ct, 0.0}};
}

TParams t_from_s(const SParams& s) {
  if (magnitude_below(s.s21, 1e-300)) {
    throw std::domain_error("t_from_s: S21 = 0 has no T representation");
  }
  // Convention: [b1; a1] = T [a2; b2]  (port-2 waves on the right), which
  // makes cascade(first, second) = T_first * T_second.
  TParams t;
  t.frequency_hz = s.frequency_hz;
  t.z0 = s.z0;
  t.t11 = (s.s12 * s.s21 - s.s11 * s.s22) / s.s21;
  t.t12 = s.s11 / s.s21;
  t.t21 = -s.s22 / s.s21;
  t.t22 = Complex{1.0, 0.0} / s.s21;
  return t;
}

SParams s_from_t(const TParams& t) {
  if (magnitude_below(t.t22, 1e-300)) {
    throw std::domain_error("s_from_t: T22 = 0 has no S representation");
  }
  SParams s;
  s.frequency_hz = t.frequency_hz;
  s.z0 = t.z0;
  s.s11 = t.t12 / t.t22;
  s.s21 = Complex{1.0, 0.0} / t.t22;
  s.s12 = t.t11 + t.t12 * (-t.t21) / t.t22;
  s.s22 = -t.t21 / t.t22;
  return s;
}

SParams cascade_t(const SParams& first, const SParams& second) {
  require_same_grid(first, second, "cascade_t");
  const TParams a = t_from_s(first);
  const TParams b = t_from_s(second);
  TParams c;
  c.frequency_hz = a.frequency_hz;
  c.z0 = a.z0;
  c.t11 = a.t11 * b.t11 + a.t12 * b.t21;
  c.t12 = a.t11 * b.t12 + a.t12 * b.t22;
  c.t21 = a.t21 * b.t11 + a.t22 * b.t21;
  c.t22 = a.t21 * b.t12 + a.t22 * b.t22;
  return s_from_t(c);
}

SParams deembed(const SParams& total, const SParams& fixture_in,
                const SParams& fixture_out) {
  require_same_grid(total, fixture_in, "deembed");
  require_same_grid(total, fixture_out, "deembed");
  const auto invert = [](const TParams& t) {
    const Complex det = t.t11 * t.t22 - t.t12 * t.t21;
    if (magnitude_below(det, 1e-300)) {
      throw std::domain_error("deembed: fixture half is not invertible");
    }
    TParams inv;
    inv.frequency_hz = t.frequency_hz;
    inv.z0 = t.z0;
    inv.t11 = t.t22 / det;
    inv.t12 = -t.t12 / det;
    inv.t21 = -t.t21 / det;
    inv.t22 = t.t11 / det;
    return inv;
  };
  const TParams in_inv = invert(t_from_s(fixture_in));
  const TParams out_inv = invert(t_from_s(fixture_out));
  const TParams tt = t_from_s(total);
  const auto mul = [](const TParams& a, const TParams& b) {
    TParams c;
    c.frequency_hz = a.frequency_hz;
    c.z0 = a.z0;
    c.t11 = a.t11 * b.t11 + a.t12 * b.t21;
    c.t12 = a.t11 * b.t12 + a.t12 * b.t22;
    c.t21 = a.t21 * b.t11 + a.t22 * b.t21;
    c.t22 = a.t21 * b.t12 + a.t22 * b.t22;
    return c;
  };
  return s_from_t(mul(mul(in_inv, tt), out_inv));
}

SParams s_identity(double frequency_hz, double z0) {
  SParams s;
  s.frequency_hz = frequency_hz;
  s.z0 = z0;
  s.s12 = s.s21 = kOne;
  return s;
}

SParams s_series_impedance(double frequency_hz, Complex z, double z0) {
  return s_from_abcd(abcd_series_impedance(frequency_hz, z), z0);
}

SParams s_shunt_admittance(double frequency_hz, Complex y, double z0) {
  return s_from_abcd(abcd_shunt_admittance(frequency_hz, y), z0);
}

}  // namespace gnsslna::rf
