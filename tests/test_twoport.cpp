#include "rf/twoport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "libgcc_complex.h"
#include "numeric/rng.h"
#include "rf/metrics.h"
#include "rf/units.h"

namespace gnsslna::rf {
namespace {

using reference::libgcc_div;
using reference::libgcc_mul;

constexpr double kF = 1.5e9;

void expect_close(Complex a, Complex b, double tol = 1e-10) {
  EXPECT_NEAR(std::abs(a - b), 0.0, tol) << "a=" << a << " b=" << b;
}

SParams random_passiveish_twoport(numeric::Rng& rng) {
  // Random S-matrix with entries inside the unit disc; not necessarily
  // physical but well-conditioned for conversion round trips.
  const auto c = [&] {
    return Complex{rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)};
  };
  SParams s;
  s.frequency_hz = kF;
  s.s11 = c();
  s.s12 = c();
  s.s21 = c();
  s.s22 = c();
  return s;
}

// ---------------------------------------------------------------------------
// Units helpers

TEST(Units, DbRoundTrips) {
  EXPECT_NEAR(ratio_from_db(db_from_ratio(7.3)), 7.3, 1e-12);
  EXPECT_NEAR(mag_from_db(db_from_mag(0.31)), 0.31, 1e-12);
  EXPECT_NEAR(db_from_ratio(100.0), 20.0, 1e-12);
  EXPECT_NEAR(db_from_mag(10.0), 20.0, 1e-12);
}

TEST(Units, DbmRoundTrip) {
  EXPECT_NEAR(dbm_from_watt(1e-3), 0.0, 1e-12);
  EXPECT_NEAR(watt_from_dbm(30.0), 1.0, 1e-12);
}

TEST(Units, GammaZRoundTrip) {
  const Complex z{75.0, 25.0};
  expect_close(z_from_gamma(gamma_from_z(z)), z, 1e-9);
}

TEST(Units, GammaOfMatchedLoadIsZero) {
  expect_close(gamma_from_z({50.0, 0.0}), {0.0, 0.0});
}

TEST(Units, InvalidArgumentsThrow) {
  EXPECT_THROW(db_from_ratio(0.0), std::invalid_argument);
  EXPECT_THROW(db_from_mag(-1.0), std::invalid_argument);
  EXPECT_THROW(dbm_from_watt(0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Elementary networks

TEST(TwoPort, IdentityIsPerfectThru) {
  const SParams s = s_identity(kF);
  expect_close(s.s11, {0.0, 0.0});
  expect_close(s.s21, {1.0, 0.0});
}

TEST(TwoPort, SeriesImpedanceKnownFormula) {
  // S11 of series Z: Z / (Z + 2 Z0); S21 = 2 Z0 / (Z + 2 Z0).
  const Complex z{100.0, 0.0};
  const SParams s = s_series_impedance(kF, z);
  expect_close(s.s11, z / (z + 2.0 * kZ0));
  expect_close(s.s21, 2.0 * kZ0 / (z + 2.0 * kZ0));
  expect_close(s.s12, s.s21);  // reciprocity
}

TEST(TwoPort, ShuntAdmittanceKnownFormula) {
  // S11 of shunt Y: -Y Z0 / (Y Z0 + 2); S21 = 2 / (Y Z0 + 2).
  const Complex y{0.02, 0.0};
  const SParams s = s_shunt_admittance(kF, y);
  const Complex yz = y * kZ0;
  expect_close(s.s11, -yz / (yz + 2.0));
  expect_close(s.s21, 2.0 / (yz + 2.0));
}

TEST(TwoPort, IdealQuarterWaveLineInverts) {
  // Quarter-wave 100-ohm line: S11 = (Z0^2/Zl - z0)/... check the ABCD
  // directly: A = D = 0, B = jZc, C = j/Zc.
  const AbcdParams line = abcd_ideal_line(kF, 100.0, std::numbers::pi / 2.0);
  expect_close(line.a, {0.0, 0.0}, 1e-12);
  expect_close(line.b, {0.0, 100.0}, 1e-12);
  expect_close(line.c, Complex{0.0, 0.01}, 1e-12);
}

TEST(TwoPort, HalfWaveLineIsInvertedThru) {
  const SParams s =
      s_from_abcd(abcd_ideal_line(kF, 73.0, std::numbers::pi), kZ0);
  expect_close(s.s11, {0.0, 0.0}, 1e-9);
  expect_close(s.s21, {-1.0, 0.0}, 1e-9);
}

// ---------------------------------------------------------------------------
// Conversion round trips (property sweep over random networks)

class ConversionRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ConversionRoundTrip, SToYToS) {
  numeric::Rng rng(100 + GetParam());
  const SParams s = random_passiveish_twoport(rng);
  const SParams back = s_from_y(y_from_s(s), s.z0);
  expect_close(back.s11, s.s11, 1e-9);
  expect_close(back.s12, s.s12, 1e-9);
  expect_close(back.s21, s.s21, 1e-9);
  expect_close(back.s22, s.s22, 1e-9);
}

TEST_P(ConversionRoundTrip, SToZToS) {
  numeric::Rng rng(200 + GetParam());
  const SParams s = random_passiveish_twoport(rng);
  const SParams back = s_from_z(z_from_s(s), s.z0);
  expect_close(back.s11, s.s11, 1e-9);
  expect_close(back.s22, s.s22, 1e-9);
}

TEST_P(ConversionRoundTrip, SToAbcdToS) {
  numeric::Rng rng(300 + GetParam());
  SParams s = random_passiveish_twoport(rng);
  if (std::abs(s.s21) < 0.05) s.s21 = {0.5, 0.1};  // keep chain well-defined
  const SParams back = s_from_abcd(abcd_from_s(s), s.z0);
  expect_close(back.s11, s.s11, 1e-9);
  expect_close(back.s12, s.s12, 1e-9);
  expect_close(back.s21, s.s21, 1e-9);
  expect_close(back.s22, s.s22, 1e-9);
}

TEST_P(ConversionRoundTrip, YToAbcdConsistent) {
  numeric::Rng rng(400 + GetParam());
  SParams s = random_passiveish_twoport(rng);
  if (std::abs(s.s21) < 0.05) s.s21 = {0.4, -0.2};
  const YParams y1 = y_from_s(s);
  const YParams y2 = y_from_abcd(abcd_from_s(s));
  expect_close(y1.y11, y2.y11, 1e-9);
  expect_close(y1.y12, y2.y12, 1e-9);
  expect_close(y1.y21, y2.y21, 1e-9);
  expect_close(y1.y22, y2.y22, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, ConversionRoundTrip,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Cascades

TEST(Cascade, ThruIsNeutral) {
  numeric::Rng rng(55);
  SParams s = random_passiveish_twoport(rng);
  s.s21 = {0.7, 0.1};
  const SParams c = cascade(s, s_identity(kF));
  expect_close(c.s21, s.s21, 1e-9);
  expect_close(c.s11, s.s11, 1e-9);
}

TEST(Cascade, TwoSeriesImpedancesAdd) {
  const Complex z1{30.0, 10.0};
  const Complex z2{20.0, -5.0};
  const SParams c =
      cascade(s_series_impedance(kF, z1), s_series_impedance(kF, z2));
  const SParams direct = s_series_impedance(kF, z1 + z2);
  expect_close(c.s11, direct.s11, 1e-9);
  expect_close(c.s21, direct.s21, 1e-9);
}

TEST(Cascade, IsAssociative) {
  numeric::Rng rng(56);
  SParams a = random_passiveish_twoport(rng);
  SParams b = random_passiveish_twoport(rng);
  SParams c = random_passiveish_twoport(rng);
  a.s21 = {0.8, 0.0};
  b.s21 = {0.6, 0.2};
  c.s21 = {0.5, -0.3};
  const SParams left = cascade(cascade(a, b), c);
  const SParams right = cascade(a, cascade(b, c));
  expect_close(left.s11, right.s11, 1e-8);
  expect_close(left.s21, right.s21, 1e-8);
  expect_close(left.s22, right.s22, 1e-8);
}

TEST(Cascade, MismatchedGridsThrow) {
  SParams a = s_identity(1e9);
  SParams b = s_identity(2e9);
  EXPECT_THROW(cascade(a, b), std::invalid_argument);
  b = s_identity(1e9, 75.0);
  EXPECT_THROW(cascade(a, b), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tabulation arithmetic: the library's conversions against default complex
// semantics, bit for bit
//
// The library is compiled with GCC's -fcx-fortran-rules (src/CMakeLists.txt),
// which inlines Smith's algorithm at every complex division.  The formulas
// below are copied term for term from twoport.cpp, with every complex
// division and product made by name through libgcc's __divdc3 / __muldc3
// (libgcc_complex.h), the default semantics.  The two must agree exactly,
// on operands at the magnitudes the element models produce and on the edge
// operands of Smith's algorithm: purely real and purely imaginary divisors,
// divisors with |re| = |im|, and numerators with a zero part.

bool same_bits(Complex a, Complex b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

bool same_bits(const YParams& a, const YParams& b) {
  return same_bits(a.y11, b.y11) && same_bits(a.y12, b.y12) &&
         same_bits(a.y21, b.y21) && same_bits(a.y22, b.y22);
}

bool same_bits(const SParams& a, const SParams& b) {
  return same_bits(a.s11, b.s11) && same_bits(a.s12, b.s12) &&
         same_bits(a.s21, b.s21) && same_bits(a.s22, b.s22);
}

YParams y_from_s_default(const SParams& s) {
  const Complex one{1.0, 0.0};
  const double y0 = 1.0 / s.z0;
  const Complex den =
      libgcc_mul(one + s.s11, one + s.s22) - libgcc_mul(s.s12, s.s21);
  YParams y;
  y.frequency_hz = s.frequency_hz;
  y.y11 = libgcc_div(y0 * (libgcc_mul(one - s.s11, one + s.s22) +
                           libgcc_mul(s.s12, s.s21)),
                     den);
  y.y12 = libgcc_div(y0 * (-2.0 * s.s12), den);
  y.y21 = libgcc_div(y0 * (-2.0 * s.s21), den);
  y.y22 = libgcc_div(y0 * (libgcc_mul(one + s.s11, one - s.s22) +
                           libgcc_mul(s.s12, s.s21)),
                     den);
  return y;
}

SParams s_from_y_default(const YParams& y, double z0) {
  const double y0 = 1.0 / z0;
  const Complex den =
      libgcc_mul(y.y11 + y0, y.y22 + y0) - libgcc_mul(y.y12, y.y21);
  SParams s;
  s.frequency_hz = y.frequency_hz;
  s.z0 = z0;
  s.s11 = libgcc_div(
      libgcc_mul(y0 - y.y11, y0 + y.y22) + libgcc_mul(y.y12, y.y21), den);
  s.s12 = libgcc_div(-2.0 * y.y12 * y0, den);
  s.s21 = libgcc_div(-2.0 * y.y21 * y0, den);
  s.s22 = libgcc_div(
      libgcc_mul(y0 + y.y11, y0 - y.y22) + libgcc_mul(y.y12, y.y21), den);
  return s;
}

YParams y_from_abcd_default(const AbcdParams& abcd) {
  YParams y;
  y.frequency_hz = abcd.frequency_hz;
  y.y11 = libgcc_div(abcd.d, abcd.b);
  y.y12 = libgcc_div(
      -(libgcc_mul(abcd.a, abcd.d) - libgcc_mul(abcd.b, abcd.c)), abcd.b);
  y.y21 = libgcc_div(Complex{-1.0, 0.0}, abcd.b);
  y.y22 = libgcc_div(abcd.a, abcd.b);
  return y;
}

/// Magnitude log-uniform in [lo, hi), phase uniform.
Complex random_complex(numeric::Rng& rng, double lo, double hi) {
  return std::polar(std::exp(rng.uniform(std::log(lo), std::log(hi))),
                    rng.uniform(-std::numbers::pi, std::numbers::pi));
}

/// z as drawn, purely real, purely imaginary, with |re| = |im| in each
/// sign pattern, and (when `with_zero`) exactly zero.
std::vector<Complex> edge_forms(Complex z, bool with_zero) {
  const double r = z.real(), i = z.imag();
  std::vector<Complex> forms = {z,         {r, 0.0},  {0.0, i},  {r, r},
                                {r, -r},   {-r, r},   {i, i},    {-i, -i}};
  if (with_zero) forms.push_back({0.0, 0.0});
  return forms;
}

/// One of edge_forms(z, with_zero), picked at random.
Complex random_edge(numeric::Rng& rng, Complex z, bool with_zero) {
  const std::vector<Complex> forms = edge_forms(z, with_zero);
  return forms[rng.uniform_index(forms.size())];
}

TEST(TabulationArithmetic, YFromAbcdMatchesDefaultComplexDivision) {
  // y_from_abcd divides by B directly, so every edge form of the divisor
  // meets every edge form of the numerators A and D.
  numeric::Rng rng(1501);
  for (int draw = 0; draw < 300; ++draw) {
    AbcdParams abcd;
    abcd.frequency_hz = kF;
    const Complex a0 = random_complex(rng, 0.05, 20.0);
    const Complex b0 = random_complex(rng, 1e-2, 1e3);
    abcd.c = random_complex(rng, 1e-5, 1.0);
    const Complex d0 = random_complex(rng, 0.05, 20.0);
    for (const Complex b : edge_forms(b0, false)) {
      for (const Complex a : edge_forms(a0, true)) {
        for (const Complex d : edge_forms(d0, true)) {
          abcd.a = a;
          abcd.b = b;
          abcd.d = d;
          EXPECT_TRUE(same_bits(y_from_abcd(abcd), y_from_abcd_default(abcd)))
              << "a=" << a << " b=" << b << " c=" << abcd.c << " d=" << d;
        }
      }
    }
  }
}

TEST(TabulationArithmetic, YFromSAndSFromYMatchDefaultComplexDivision) {
  // S of passive and active two-ports (|S21| up to ~10) and Y blocks from
  // microsiemens to siemens; a third of the draws replace every entry by
  // a random edge form, which puts zero parts into numerators and
  // divisors.
  numeric::Rng rng(1502);
  for (int draw = 0; draw < 20000; ++draw) {
    const bool edges = draw % 3 == 0;
    const auto entry = [&](double lo, double hi) {
      const Complex z = random_complex(rng, lo, hi);
      return edges ? random_edge(rng, z, true) : z;
    };
    SParams s;
    s.frequency_hz = kF;
    s.z0 = draw % 2 == 0 ? kZ0 : rng.uniform(20.0, 100.0);
    s.s11 = entry(1e-3, 1.5);
    s.s12 = entry(1e-3, 1.0);
    s.s21 = entry(1e-3, 10.0);
    s.s22 = entry(1e-3, 1.5);
    YParams y;
    y.frequency_hz = kF;
    y.y11 = entry(1e-6, 1.0);
    y.y12 = entry(1e-6, 1.0);
    y.y21 = entry(1e-6, 1.0);
    y.y22 = entry(1e-6, 1.0);
    EXPECT_TRUE(same_bits(y_from_s(s), y_from_s_default(s)))
        << "draw " << draw << ": S = " << s.s11 << ' ' << s.s12 << ' '
        << s.s21 << ' ' << s.s22 << ", z0 = " << s.z0;
    EXPECT_TRUE(same_bits(s_from_y(y, s.z0), s_from_y_default(y, s.z0)))
        << "draw " << draw << ": Y = " << y.y11 << ' ' << y.y12 << ' '
        << y.y21 << ' ' << y.y22 << ", z0 = " << s.z0;
  }
}

TEST(TabulationArithmetic, MagnitudeBelowAgreesWithAbsEitherSideOfEps) {
  for (const double eps : {1e-300, 1e-15, 1e-12, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "eps " << eps);
    const double below = std::nextafter(eps, 0.0);
    const double above = std::nextafter(eps, 2.0 * eps);
    std::vector<Complex> operands;
    for (const double r : {below, eps, above, eps * (1.0 - 1e-15),
                           eps * (1.0 + 1e-15)}) {
      for (int k = 0; k < 64; ++k) {
        operands.push_back(std::polar(r, 2.0 * std::numbers::pi * k / 64.0));
      }
      operands.push_back({r, 0.0});
      operands.push_back({0.0, -r});
      operands.push_back({r / std::sqrt(2.0), r / std::sqrt(2.0)});
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    operands.push_back({nan, 0.0});
    operands.push_back({0.0, nan});
    operands.push_back({nan, inf});
    operands.push_back({-inf, 0.0});
    for (const Complex z : operands) {
      EXPECT_EQ(magnitude_below(z, eps), std::abs(z) < eps) << z;
    }
  }
}

// rf::magnitude and rf::db20 take |z| from std::norm(z) = re^2 + im^2
// where that is a normal double below 1e308, and from hypot (std::abs)
// elsewhere.  The hypot forms are the reference.

/// Written bounds (DESIGN.md "Tabulation arithmetic"): magnitude() and
/// the stability measures in ulps of the value; db20() in ulps of
/// max(|dB|, 1), because near 0 dB both forms carry an absolute error of
/// a few 1e-16 dB (8.69 dB times the relative error of |z|), which is
/// many ulps of a result close to zero.
constexpr double kMagnitudeUlps = 2.0;
constexpr double kMuUlps = 4.0;
constexpr double kDb20Ulps = 12.0;

double ulps_off(double got, double want, double floor) {
  const double scale = std::max(std::abs(want), floor);
  const double ulp = std::nextafter(scale, 2.0 * scale) - scale;
  return std::abs(got - want) / ulp;
}

double db20_hypot(Complex z) {
  const double m = std::abs(z);
  return m > 0.0 ? 20.0 * std::log10(m)
                 : -std::numeric_limits<double>::infinity();
}

TEST(TabulationArithmetic, MagnitudeAndDb20StayWithinUlpsOfHypot) {
  numeric::Rng rng(1901);
  for (int k = 0; k < 200000; ++k) {
    const double r = std::pow(10.0, rng.uniform(-80.0, 3.0));
    Complex z = std::polar(r, rng.uniform(-std::numbers::pi, std::numbers::pi));
    if (k % 8 == 0) z = {r, 0.0};
    if (k % 8 == 1) z = {0.0, -r};
    if (k % 8 == 2) z = {r, r};
    EXPECT_LE(ulps_off(magnitude(z), std::abs(z), 0.0), kMagnitudeUlps) << z;
    EXPECT_LE(ulps_off(db20(z), db20_hypot(z), 1.0), kDb20Ulps) << z;
  }
  // The stability measures built on magnitude() against their hypot forms.
  for (int k = 0; k < 20000; ++k) {
    const SParams s = random_passiveish_twoport(rng);
    const Complex delta = s.determinant();
    const double cross = std::abs(s.s12 * s.s21);
    const double mu_source_ref =
        (1.0 - std::norm(s.s11)) /
        (std::abs(s.s22 - std::conj(s.s11) * delta) + cross);
    const double mu_load_ref =
        (1.0 - std::norm(s.s22)) /
        (std::abs(s.s11 - std::conj(s.s22) * delta) + cross);
    EXPECT_LE(ulps_off(mu_source(s), mu_source_ref, 0.0), kMuUlps);
    EXPECT_LE(ulps_off(mu_load(s), mu_load_ref, 0.0), kMuUlps);
  }
}

TEST(TabulationArithmetic, MagnitudeAndDb20EqualHypotFormsAtTheEdges) {
  const double min = std::numeric_limits<double>::min();
  const double max = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<Complex> edges;
  for (const double r : {0.0, -0.0, tiny, min / 4.0, min, 1e-160, 1e-155,
                         1.4e-154, 1e154, 1.2e154, 1.3e154, 1e155, 1e200,
                         1e308, max, inf, -inf, nan}) {
    edges.push_back({r, 0.0});
    edges.push_back({0.0, r});
    edges.push_back({r, r});
    edges.push_back({-r, 0.5 * r});
  }
  // |z| in [1e154, 1.34e154): |z|^2 is a normal double there, but not
  // below 1e308, so these too must give the hypot forms exactly.
  numeric::Rng rng(1902);
  for (int k = 0; k < 256; ++k) {
    edges.push_back(std::polar(rng.uniform(1e154, 1.34e154),
                               rng.uniform(-std::numbers::pi, std::numbers::pi)));
  }
  for (const Complex z : edges) {
    if (std::norm(z) >= min && std::norm(z) < 1e308) continue;  // fast range
    EXPECT_EQ(std::bit_cast<std::uint64_t>(magnitude(z)),
              std::bit_cast<std::uint64_t>(std::abs(z)))
        << z;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(db20(z)),
              std::bit_cast<std::uint64_t>(db20_hypot(z)))
        << z;
  }
}

TEST(TabulationArithmetic, ZeroChainBThrowsAndNanStaysNonFinite) {
  AbcdParams abcd;
  abcd.frequency_hz = kF;
  abcd.b = {0.0, 0.0};
  EXPECT_THROW(y_from_abcd(abcd), std::domain_error);
  abcd.b = {7e-301, -7e-301};  // |B| ~ 9.9e-301: below the 1e-300 guard
  EXPECT_THROW(y_from_abcd(abcd), std::domain_error);

  // A NaN operand must come out non-finite, never as a finite number.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto finite = [](Complex z) {
    return std::isfinite(z.real()) && std::isfinite(z.imag());
  };
  abcd.b = {10.0, 5.0};
  abcd.a = {nan, 0.0};
  EXPECT_FALSE(finite(y_from_abcd(abcd).y22));
  SParams s = s_identity(kF);
  s.s11 = {0.1, nan};
  EXPECT_FALSE(finite(y_from_s(s).y11));
  YParams y;
  y.y11 = {1e-2, 0.0};
  y.y22 = {1e-2, 0.0};
  y.y21 = {nan, nan};
  EXPECT_FALSE(finite(s_from_y(y).s21));
}

TEST(TwoPort, MatrixProductMatchesManual) {
  const TwoPortMatrix a{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  const TwoPortMatrix b{{5, 0}, {6, 0}, {7, 0}, {8, 0}};
  const TwoPortMatrix c = a * b;
  expect_close(c.m11, {19, 0});
  expect_close(c.m22, {50, 0});
}

}  // namespace
}  // namespace gnsslna::rf
