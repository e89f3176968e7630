// Lane-wise elementary functions for the element kernels.
//
// The element kernels (microstrip lines, chip passives, the pHEMT) tabulate
// one design over every grid frequency at once, lane-major: lane k of every
// array is grid frequency k.  The functions here are what those kernels
// need beyond IEEE add/mul/div/sqrt:
//
//   - sincos and expm1 over lane spans: fdlibm's polynomials with a
//     branch-free argument reduction, so the lane loops vectorize.  Each
//     has a written argument range; a lane outside it (NaN and +-inf
//     included) takes glibc's function for that lane alone.  Both are
//     FMA-free and are compiled with -ffp-contract=off under
//     target_clones (lanes.cpp), so every clone computes the same bits.
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
