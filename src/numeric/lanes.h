// Lane-wise elementary functions for the element kernels.
//
// The element kernels (microstrip lines, chip passives, the pHEMT) tabulate
// one design over every grid frequency at once, lane-major: lane k of every
// array is grid frequency k.  The functions here are what those kernels
// need beyond IEEE add/mul/div/sqrt:
//
//   - sincos, expm1, log and exp over lane spans: fdlibm's polynomials
//     with a branch-free argument reduction (log and exp split exponent
//     and mantissa with integer bit operations and round by magic
//     numbers), so the lane loops vectorize.  Each has a written argument
//     range; a lane outside it (NaN and +-inf included) takes glibc's
//     function for that lane alone.  All are FMA-free and are compiled
//     with -ffp-contract=off under target_clones (lanes.cpp), so every
//     clone computes the same bits.
//   - smith_div: the complex quotient GCC inlines under
//     -fcx-fortran-rules, written branch-free with the same operands, so a
//     lane loop of quotients equals scalar std::complex division bit for
//     bit (tests/test_numeric_misc.cpp pins it).
//
// DESIGN.md "Tabulation arithmetic" gives the ranges and bounds.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

// Function multiversioning for the lane kernels: the default (baseline
// x86-64) build dispatches once at load time to AVX2 / AVX-512 lanes when
// the host has them.  The lane loops are plain IEEE streams and their
// files compile with -ffp-contract=off, so every clone computes the same
// bits.  ThreadSanitizer is excluded: GCC's target_clones IFUNC resolvers
// run before the TSan runtime is initialized and crash at load time, so
// the TSan build runs the baseline code (and the hex pins of the kernels
// check it against the same values).
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__)
#define GNSSLNA_LANE_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define GNSSLNA_LANE_CLONES
#endif

namespace gnsslna::numeric {

/// Lanes per pass of a kernel that keeps per-lane scratch on the stack.
inline constexpr std::size_t kLaneBlock = 64;

/// Lanes with |x| < kSinCosLimit take the polynomial sincos.
inline constexpr double kSinCosLimit = 1e5;

/// Lanes with 0 <= x < kExpm1Limit (= ln2 / 2) take the polynomial expm1.
inline constexpr double kExpm1Limit = 0x1.62e42fefa39efp-2;

/// s[k] = sin(x[k]) and c[k] = cos(x[k]) for every lane of x (s and c at
/// least as long).  In range: x - n pi/2 by a three-part Cody-Waite
/// reduction (fdlibm's pio2_1/2/3 and their tails), n by magic-number
/// rounding, the quadrant from the rounded value's low bits, and fdlibm's
/// __kernel_sin / __kernel_cos polynomials on the double-double remainder.
/// Within 1 ulp of glibc's sin and cos (tests pin the bound).
void sincos(std::span<const double> x, double* s, double* c);

/// y[k] = expm1(x[k]) for every lane of x (y at least as long).  In range:
/// fdlibm's k = 0 rational form (no reduction).  Within 1 ulp of glibc's
/// expm1; +-0 map to themselves.
void expm1(std::span<const double> x, double* y);

/// c ? a : b as a bitwise blend, which GCC vectorizes on every target
/// (a ternary of two computed values can be turned back into a branch).
inline double lane_select(bool c, double a, double b) {
  const std::uint64_t mask = 0 - static_cast<std::uint64_t>(c);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                               (std::bit_cast<std::uint64_t>(b) & ~mask));
}

/// Lanes with |x| < kExpLimit take the polynomial exp: k = round(x / ln2)
/// stays within [-1021, 1021], so the 2^k scaling of a result in
/// [sqrt(2)/2, sqrt(2)] stays normal.
inline constexpr double kExpLimit = 708.0;

/// The polynomial log's range: positive, normal, finite x.
inline bool in_log_range(double x) {
  return (x >= std::numeric_limits<double>::min()) &
         (x <= std::numeric_limits<double>::max());
}

/// The polynomial exp's range (NaN is outside).
inline bool in_exp_range(double x) { return std::abs(x) < kExpLimit; }

/// log(x) for x in_log_range, straight-line code a lane loop vectorizes:
/// x = 2^k m with m in [sqrt(2)/2, sqrt(2)) from the bits, f = m - 1,
/// and fdlibm's e_log.c polynomial in s = f / (2 + f) with ln2 in two
/// parts; both of its final forms are computed and one is selected.
/// Within 1 ulp of glibc's log (tests pin the bound); log(1) = +0.
/// Garbage outside the range.
inline double log_poly(double x) {
  constexpr double kLn2Hi = 0x1.62e42feep-1;  // 32 bits: k ln2_hi exact
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kLg1 = 0x1.5555555555593p-1;
  constexpr double kLg2 = 0x1.999999997fa04p-2;
  constexpr double kLg3 = 0x1.2492494229359p-2;
  constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
  constexpr double kLg5 = 0x1.7466496cb03dep-3;
  constexpr double kLg6 = 0x1.39a09d078c69fp-3;
  constexpr double kLg7 = 0x1.2f112df3e5244p-3;
  // e_log.c's reduction on the high word hx: m is normalized to
  // [sqrt(2)/2, sqrt(2)) by moving one power of two into the exponent
  // where the mantissa bits exceed 0x6a09e (that carry is bit 20 of
  // (hx & 0xfffff) + 0x95f64).
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t hx = bits >> 32;
  const std::uint64_t mant = hx & 0xfffff;
  const std::uint64_t carry = (mant + 0x95f64) & 0x100000;
  const std::int64_t e = static_cast<std::int64_t>(hx >> 20) - 1023 +
                         static_cast<std::int64_t>(carry >> 20);
  const double m = std::bit_cast<double>(
      ((mant | (carry ^ 0x3ff00000)) << 32) | (bits & 0xffffffffu));
  // The exponent as a double, exactly (|e| < 2^51): e added to the bits
  // of 1.5 * 2^52, minus 1.5 * 2^52.
  const double dk =
      std::bit_cast<double>(std::int64_t{0x4338000000000000} + e) - 0x1.8p52;
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  // e_log.c's two final forms with k = dk (k = 0 gives its k == 0 forms
  // bit for bit): the hfsq form where the mantissa bits lie in
  // [0x6147a, 0x6b851], the other form elsewhere.
  const double hfsq = 0.5 * f * f;
  const double near_sqrt2 =
      dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
  const double other = dk * kLn2Hi - ((s * (f - r) - dk * kLn2Lo) - f);
  const std::int64_t mi = static_cast<std::int64_t>(mant);
  return lane_select(((mi - 0x6147a) | (0x6b851 - mi)) > 0, near_sqrt2,
                     other);
}

/// exp(x) for x in_exp_range, straight-line code: x = k ln2 + r with k by
/// magic-number rounding and ln2 in two parts, fdlibm's e_exp.c
/// polynomial in r, and 2^k added to the result's exponent bits.  Within
/// 1 ulp of glibc's exp (tests pin the bound); exp(+-0) = 1.  Garbage
/// outside the range.
inline double exp_poly(double x) {
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kInvLn2 = 0x1.71547652b82fep+0;
  constexpr double kP1 = 0x1.555555555553ep-3;
  constexpr double kP2 = -0x1.6c16c16bebd93p-9;
  constexpr double kP3 = 0x1.1566aaf25de2cp-14;
  constexpr double kP4 = -0x1.bbd41c5d26bf1p-20;
  constexpr double kP5 = 0x1.6376972bea4d0p-25;
  // k = round(x / ln2), held in the low bits of the rounded sum; then
  // r = hi - lo = x - k ln2 (k ln2_hi is exact).
  const double rounded = x * kInvLn2 + 0x1.8p52;
  const double dk = rounded - 0x1.8p52;
  const std::uint64_t ik = std::bit_cast<std::uint64_t>(rounded) -
                           std::uint64_t{0x4338000000000000};
  const double hi = x - dk * kLn2Hi;
  const double lo = dk * kLn2Lo;
  const double r = hi - lo;
  const double t = r * r;
  const double c = r - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
  // e_exp.c's k != 0 form, which for k = 0 (hi = x, lo = 0) equals its
  // k == 0 form bit for bit; then 2^k into the exponent field.
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(y) + (ik << 52));
}

/// One lane of log() / exp() below: the polynomial in range, glibc
/// outside.  Lane kernels that inline log_poly / exp_poly recompute a
/// lane whose argument left the range with these.
inline double log_lane(double x) {
  return in_log_range(x) ? log_poly(x) : std::log(x);
}
inline double exp_lane(double x) {
  return in_exp_range(x) ? exp_poly(x) : std::exp(x);
}

/// y[k] = log(x[k]) for every lane of x (y at least as long, not
/// aliasing x): log_lane of every lane, the in-range lanes in one
/// vectorized pass.  Zero, negative, subnormal, infinite and NaN lanes
/// take glibc.
void log(std::span<const double> x, double* y);

/// y[k] = exp(x[k]) for every lane of x (y at least as long, not aliasing
/// x): exp_lane of every lane, as log() does.
void exp(std::span<const double> x, double* y);

/// (ar + j ai)(br + j bi) into (rr, ri): the naive product GCC inlines
/// under -fcx-fortran-rules.
inline void complex_mul(double ar, double ai, double br, double bi,
                        double& rr, double& ri) {
  rr = ar * br - ai * bi;
  ri = ar * bi + ai * br;
}

/// (ar + j ai) / (br + j bi) into (rr, ri) with exactly the operations of
/// the complex division GCC inlines under -fcx-fortran-rules (Smith's
/// algorithm): |br| < |bi| scales by bi, every other case (ties and NaN
/// included) by br.  Both branches' numerators are formed and one is
/// selected, so lane loops of quotients vectorize.  Bit-identical to
/// std::complex<double> division for all non-NaN operands; NaN results may
/// differ in sign.
inline void smith_div(double ar, double ai, double br, double bi, double& rr,
                      double& ri) {
  const bool by_imag = std::abs(br) < std::abs(bi);
  const double num = lane_select(by_imag, br, bi);
  const double den = lane_select(by_imag, bi, br);
  const double ratio = num / den;
  const double div = num * ratio + den;
  const double ar_ratio = ar * ratio;
  const double ai_ratio = ai * ratio;
  rr = lane_select(by_imag, ar_ratio + ai, ai_ratio + ar) / div;
  ri = lane_select(by_imag, ai_ratio - ar, ai - ar_ratio) / div;
}

}  // namespace gnsslna::numeric
