// Lane-wise sincos, expm1, log and exp (see lanes.h).
//
// Compiled with -O3 -ffp-contract=off (src/numeric/CMakeLists.txt): the
// lane loops are straight-line IEEE mul/add/sub/div streams the
// vectorizer packs without reassociating, and no clone may fuse a
// multiply-add, so every clone and the scalar epilogue compute the same
// bits.  The polynomials and reduction constants are fdlibm's (k_sin.c,
// k_cos.c, e_rem_pio2.c, s_expm1.c, e_log.c, e_exp.c), as hex floats.
#include "numeric/lanes.h"

#include <bit>
#include <cstdint>

namespace gnsslna::numeric {

namespace {

// 2/pi and pi/2 in three parts with their tails (e_rem_pio2.c).  The
// parts have 33, 33 and 33 significant bits, so n * part is exact for
// |n| < 2^20 (|x| < kSinCosLimit gives |n| < 2^16).
constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
constexpr double kPio2_1 = 0x1.921fb544p+0;
constexpr double kPio2_2 = 0x1.0b4611a6p-34;
constexpr double kPio2_2t = 0x1.3198a2e037073p-69;
constexpr double kPio2_3 = 0x1.3198a2ep-69;
constexpr double kPio2_3t = 0x1.b839a252049c1p-104;
// 1.5 * 2^52: x * 2/pi + kRound rounds to an integer held in the low
// mantissa bits.
constexpr double kRound = 0x1.8p52;

// __kernel_sin (k_sin.c).
constexpr double kS1 = -0x1.5555555555549p-3;
constexpr double kS2 = 0x1.111111110f8a6p-7;
constexpr double kS3 = -0x1.a01a019c161d5p-13;
constexpr double kS4 = 0x1.71de357b1fe7dp-19;
constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
constexpr double kS6 = 0x1.5d93a5acfd57cp-33;

// __kernel_cos (k_cos.c).
constexpr double kC1 = 0x1.555555555554cp-5;
constexpr double kC2 = -0x1.6c16c16c15177p-10;
constexpr double kC3 = 0x1.a01a019cb159p-16;
constexpr double kC4 = -0x1.27e4f809c52adp-22;
constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
constexpr double kC6 = -0x1.8fae9be8838d4p-37;

// expm1's rational form (s_expm1.c).
constexpr double kQ1 = -0x1.11111111110f4p-5;
constexpr double kQ2 = 0x1.a01a019fe5585p-10;
constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
constexpr double kQ4 = 0x1.0cfca86e65239p-18;
constexpr double kQ5 = -0x1.afdb76e09c32dp-23;

GNSSLNA_LANE_CLONES
void sincos_lanes(const double* x, double* s, double* c, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    // n = round(x * 2/pi); the rounded sum's low bits are n mod 4.
    const double rounded = xk * kInvPio2 + kRound;
    const double fn = rounded - kRound;
    const std::uint64_t quadrant = std::bit_cast<std::uint64_t>(rounded);
    // Cody-Waite: r + w = x - fn * pi/2 to about 151 bits of pi/2
    // (e_rem_pio2.c's medium path, every iteration taken).
    double r = xk - fn * kPio2_1;
    double t = r;
    double w = fn * kPio2_2;
    r = t - w;
    w = fn * kPio2_2t - ((t - r) - w);
    t = r;
    w = fn * kPio2_3;
    r = t - w;
    w = fn * kPio2_3t - ((t - r) - w);
    const double y0 = r - w;
    const double y1 = (r - y0) - w;
    // __kernel_sin(y0, y1, 1) and __kernel_cos(y0, y1).
    const double z = y0 * y0;
    const double zz = z * z;
    const double rs = kS2 + z * (kS3 + z * kS4) + z * zz * (kS5 + z * kS6);
    const double v = z * y0;
    const double ks = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * kS1);
    const double rc =
        z * (kC1 + z * (kC2 + z * kC3)) + zz * zz * (kC4 + z * (kC5 + z * kC6));
    const double hz = 0.5 * z;
    const double one_hz = 1.0 - hz;
    const double kc = one_hz + (((1.0 - one_hz) - hz) + (z * rc - y0 * y1));
    // Quadrant q: sin = ks, kc, -ks, -kc and cos = kc, -ks, -kc, ks.
    const bool odd = (quadrant & 1) != 0;
    const bool neg_s = (quadrant & 2) != 0;
    const bool neg_c = ((quadrant + 1) & 2) != 0;
    const double sv = odd ? kc : ks;
    const double cv = odd ? ks : kc;
    s[k] = neg_s ? -sv : sv;
    c[k] = neg_c ? -cv : cv;
  }
}

GNSSLNA_LANE_CLONES
void expm1_lanes(const double* x, double* y, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    const double hfx = 0.5 * xk;
    const double hxs = xk * hfx;
    const double r1 =
        1.0 + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
    const double t = 3.0 - r1 * hfx;
    const double e = hxs * ((r1 - t) / (6.0 - xk * t));
    y[k] = xk - (xk * e - hxs);
  }
}

/// Writes log_poly / exp_poly of every lane and returns nonzero when any
/// lane is outside the range (log and exp then recompute those lanes with
/// glibc).
GNSSLNA_LANE_CLONES
std::uint64_t log_lanes(const double* x, double* y, std::size_t n) {
  std::uint64_t outside = 0;
  for (std::size_t k = 0; k < n; ++k) {
    y[k] = log_poly(x[k]);
    outside |= !in_log_range(x[k]);
  }
  return outside;
}

GNSSLNA_LANE_CLONES
std::uint64_t exp_lanes(const double* x, double* y, std::size_t n) {
  std::uint64_t outside = 0;
  for (std::size_t k = 0; k < n; ++k) {
    y[k] = exp_poly(x[k]);
    outside |= !in_exp_range(x[k]);
  }
  return outside;
}

}  // namespace

void sincos(std::span<const double> x, double* s, double* c) {
  sincos_lanes(x.data(), s, c, x.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (!(std::abs(x[k]) < kSinCosLimit)) {
      s[k] = std::sin(x[k]);
      c[k] = std::cos(x[k]);
    }
  }
}

void expm1(std::span<const double> x, double* y) {
  expm1_lanes(x.data(), y, x.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (!(x[k] >= 0.0 && x[k] < kExpm1Limit)) y[k] = std::expm1(x[k]);
  }
}

void log(std::span<const double> x, double* y) {
  if (log_lanes(x.data(), y, x.size()) == 0) return;
  for (std::size_t k = 0; k < x.size(); ++k) y[k] = log_lane(x[k]);
}

void exp(std::span<const double> x, double* y) {
  if (exp_lanes(x.data(), y, x.size()) == 0) return;
  for (std::size_t k = 0; k < x.size(); ++k) y[k] = exp_lane(x[k]);
}

}  // namespace gnsslna::numeric
