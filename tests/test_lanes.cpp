// Lane kernels (DESIGN.md "Tabulation arithmetic"):
//   - numeric::sincos / numeric::expm1 within 1 ulp of glibc on the
//     LineTabulation corpora and an edge grid, and equal to glibc on every
//     lane outside their written ranges (NaN and +-inf included);
//   - numeric::smith_div equal to std::complex division bit for bit;
//   - every element lane kernel gives the same bits for a lane whether it
//     is called with one lane or with sixteen at any offset;
//   - hex pins of the line, passive and pHEMT kernels on a fixed corpus.
//     The line pins hold this implementation's bits; the passive and pHEMT
//     pins are the bits of the scalar code the lane kernels replaced, and
//     fet_s_params keeps them.  The sanitizer builds run without
//     target_clones, so the same pins check the baseline code path against
//     the widest clone of an optimized build.  The pHEMT's e^{-j w tau}
//     and the glibc-route line lanes come from glibc; the pins were taken
//     with glibc 2.36 and GCC 12.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <ios>
#include <limits>
#include <numbers>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "amplifier/lna.h"
#include "circuit/netlist.h"
#include "circuit/noisy_twoport.h"
#include "device/phemt.h"
#include "device/small_signal.h"
#include "microstrip/line.h"
#include "numeric/lanes.h"
#include "numeric/rng.h"
#include "passives/catalog.h"
#include "rf/sweep.h"
#include "reference_line.h"

namespace gnsslna {
namespace {

using Complex = std::complex<double>;

/// Distance in ulps between two finite doubles (+0 and -0 are 0 apart).
std::int64_t ulp_distance(double a, double b) {
  const auto ordered = [](double x) {
    const auto i = std::bit_cast<std::int64_t>(x);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

std::string hex(double x) {
  std::ostringstream os;
  os << std::hexfloat << x;
  return os.str();
}

/// Bitwise equality, NaN payloads aside (both NaN counts as equal).
bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// FNV-1a over the bit patterns of a kernel's outputs.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(double x) {
    const auto u = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(const Complex& z) {
    add(z.real());
    add(z.imag());
  }
};

/// The beta l and alpha l of the LineTabulation corpora
/// (tests/test_microstrip.cpp): its amplifier-like lines and its random
/// synthetic propagation data, drawn with the same seeds and order.
void line_corpora(std::vector<double>& beta_l, std::vector<double>& alpha_l) {
  numeric::Rng rng(1575);
  for (int k = 0; k < 3000; ++k) {
    const microstrip::Substrate sub = k % 2 == 0
                                          ? microstrip::Substrate::fr4()
                                          : microstrip::Substrate::ro4350b();
    const double width = rng.uniform(0.1e-3, 5e-3);
    const double length = std::exp(rng.uniform(std::log(1e-4), std::log(0.5)));
    const double f = rng.uniform(0.3e9, 4e9);
    const microstrip::Line::Propagation p =
        microstrip::Line(sub, width, length).propagation(f);
    beta_l.push_back(p.beta_rad_m * length);
    alpha_l.push_back(p.alpha_np_m * length);
  }
  numeric::Rng edge(1576);
  for (int k = 0; k < 20000; ++k) {
    const double alpha = edge.uniform() < 0.1 ? 0.0 : edge.uniform(0.0, 2.0);
    const double beta = edge.uniform(-300.0, 300.0);
    (void)edge.uniform(10.0, 200.0);  // z0
    const double len = edge.uniform(1e-4, 0.3);
    beta_l.push_back(beta * len);
    alpha_l.push_back(alpha * len);
  }
}

/// Checks lane results against glibc: within `bound` ulps inside the
/// range, bit for bit outside it.
void expect_near_glibc(const std::vector<double>& x, const double* got,
                       double (*glibc)(double), bool (*in_range)(double),
                       std::int64_t bound, const char* what) {
  for (std::size_t k = 0; k < x.size(); ++k) {
    const double want = glibc(x[k]);
    if (!in_range(x[k])) {
      EXPECT_TRUE(same_bits(got[k], want))
          << what << "(" << hex(x[k]) << ") = " << hex(got[k])
          << ", glibc " << hex(want) << " (outside the range)";
    } else {
      EXPECT_LE(ulp_distance(got[k], want), bound)
          << what << "(" << hex(x[k]) << ") = " << hex(got[k]) << ", glibc "
          << hex(want);
      // Signed zeros map to themselves.
      if (x[k] == 0.0 && want == 0.0) {
        EXPECT_EQ(std::signbit(got[k]), std::signbit(want)) << hex(x[k]);
      }
    }
  }
}

bool sincos_in_range(double x) {
  return std::abs(x) < numeric::kSinCosLimit;
}
bool expm1_in_range(double x) {
  return x >= 0.0 && x < numeric::kExpm1Limit;
}

TEST(LaneMath, SinCosWithinOneUlpOfGlibc) {
  std::vector<double> x, alpha_l;
  line_corpora(x, alpha_l);
  numeric::Rng rng(4242);
  for (int k = 0; k < 200000; ++k) x.push_back(rng.uniform(-60.0, 60.0));
  // Multiples of pi/2 and their neighbours (the reduction's hardest
  // arguments), the range boundaries +-1 ulp, both zeros, non-finite.
  for (int k = -200; k <= 200; ++k) {
    double v = k * (std::numbers::pi / 2.0);
    double up = v, down = v;
    x.push_back(v);
    for (int j = 0; j < 4; ++j) {
      up = std::nextafter(up, 1e300);
      down = std::nextafter(down, -1e300);
      x.push_back(up);
      x.push_back(down);
    }
  }
  const double lim = numeric::kSinCosLimit;
  for (const double b : {lim, -lim}) {
    x.push_back(b);
    x.push_back(std::nextafter(b, 0.0));
    x.push_back(std::nextafter(b, 2.0 * b));
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {0.0, -0.0, 1e-300, -4.9e-324, 1e-8, 3e5, 1e300, inf,
                         -inf, std::numeric_limits<double>::quiet_NaN()}) {
    x.push_back(v);
  }
  std::vector<double> s(x.size()), c(x.size());
  numeric::sincos(x, s.data(), c.data());
  expect_near_glibc(x, s.data(), [](double v) { return std::sin(v); },
                    sincos_in_range, 1, "sin");
  expect_near_glibc(x, c.data(), [](double v) { return std::cos(v); },
                    sincos_in_range, 1, "cos");
}

TEST(LaneMath, Expm1WithinOneUlpOfGlibc) {
  std::vector<double> beta_l, x;
  line_corpora(beta_l, x);
  numeric::Rng rng(4243);
  for (int k = 0; k < 200000; ++k) {
    x.push_back(rng.uniform(0.0, numeric::kExpm1Limit));
  }
  for (int e = -1074; e < -1; e += 7) x.push_back(std::ldexp(1.0, e));
  const double lim = numeric::kExpm1Limit;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v :
       {0.0, -0.0, 4.9e-324, 1e-300, std::nextafter(lim, 0.0), lim,
        std::nextafter(lim, 1.0), 0.5, 3.0, 700.0, -1e-300, -1e-3, -2.0, inf,
        -inf, std::numeric_limits<double>::quiet_NaN()}) {
    x.push_back(v);
  }
  std::vector<double> y(x.size());
  numeric::expm1(x, y.data());
  expect_near_glibc(x, y.data(), [](double v) { return std::expm1(v); },
                    expm1_in_range, 1, "expm1");
}

TEST(LaneMath, SmithDivEqualsComplexDivisionBitForBit) {
  // Operands from a fixed list of components — |re| = |im| ties, zero
  // parts of both signs, huge, tiny and subnormal values — in every
  // combination, plus random ones; real numerators as 1.0 / z is written.
  // Loaded at run time, so the compiler's inline division cannot fold.
  std::vector<double> parts = {0.0,    -0.0,     1.0,     -1.0,   2.5,
                               -2.5,   0.75,     3.0,     1e300,  -1e300,
                               1e-300, -1e-300,  4.9e-324, 1.7e308, 1e-160,
                               1e160,  0.1,      -7.0};
  numeric::Rng rng(77);
  std::vector<std::array<double, 4>> cases;
  for (const double ar : parts) {
    for (const double ai : parts) {
      for (const double br : parts) {
        for (const double bi : parts) {
          if ((std::abs(ar) == 1.0 || ar == 2.5 || ar == 0.0) &&
              (std::abs(ai) == 1.0 || ai == -2.5 || ai == 0.0)) {
            cases.push_back({ar, ai, br, bi});
          } else if (rng.uniform() < 0.05) {
            cases.push_back({ar, ai, br, bi});
          }
        }
      }
    }
  }
  for (int k = 0; k < 100000; ++k) {
    const double br = std::ldexp(rng.uniform(-1.0, 1.0), rng.uniform() < 0.5 ? 0 : 900);
    const double bi = k % 3 == 0 ? br : std::ldexp(rng.uniform(-1.0, 1.0), -500);
    cases.push_back({rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0), br, bi});
  }
  for (const auto& [ar, ai, br, bi] : cases) {
    const Complex want = Complex{ar, ai} / Complex{br, bi};
    double rr, ri;
    numeric::smith_div(ar, ai, br, bi, rr, ri);
    EXPECT_TRUE(same_bits(rr, want.real()) && same_bits(ri, want.imag()))
        << "(" << hex(ar) << ", " << hex(ai) << ") / (" << hex(br) << ", "
        << hex(bi) << "): " << hex(rr) << ", " << hex(ri) << " vs "
        << hex(want.real()) << ", " << hex(want.imag());
    const Complex want_real = ar / Complex{br, bi};
    numeric::smith_div(ar, 0.0, br, bi, rr, ri);
    EXPECT_TRUE(same_bits(rr, want_real.real()) &&
                same_bits(ri, want_real.imag()))
        << hex(ar) << " / (" << hex(br) << ", " << hex(bi) << ")";
  }
}

constexpr std::size_t kLanes = 16;

bool log_in_range(double x) {
  return x >= std::numeric_limits<double>::min() &&
         x <= std::numeric_limits<double>::max();
}
bool exp_in_range(double x) { return std::abs(x) < numeric::kExpLimit; }

TEST(LaneMath, LogWithinOneUlpOfGlibc) {
  std::vector<double> x;
  numeric::Rng rng(4244);
  // Every binade of the normal range, then the dispersion kernel's bases.
  for (int k = 0; k < 200000; ++k) {
    x.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                           static_cast<int>(rng.uniform(-1022.0, 1024.0))));
  }
  for (int k = 0; k < 100000; ++k) x.push_back(rng.uniform(1e-6, 20.0));
  // x near 1 (f = x - 1 tiny, e_log.c's special case), near the
  // sqrt(2)/2 normalization edge and the hfsq form's mantissa window.
  double up = 1.0, down = 1.0;
  for (int j = 0; j < 200; ++j) {
    up = std::nextafter(up, 2.0);
    down = std::nextafter(down, 0.0);
    x.push_back(up);
    x.push_back(down);
  }
  for (int e = -60; e < 0; ++e) {
    x.push_back(1.0 + std::ldexp(1.0, e));
    x.push_back(1.0 - std::ldexp(1.0, e));
  }
  for (const double v : {std::sqrt(2.0), std::sqrt(0.5), 1.38, 1.4, 1.42}) {
    double a = v, b = v;
    for (int j = 0; j < 8; ++j) {
      a = std::nextafter(a, 3.0);
      b = std::nextafter(b, 0.0);
      x.push_back(a);
      x.push_back(b);
    }
  }
  // The range boundaries +-1 ulp, zeros, negatives, subnormals, non-finite.
  const double lo = std::numeric_limits<double>::min();
  const double hi = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v :
       {lo, std::nextafter(lo, 0.0), std::nextafter(lo, 1.0), hi,
        std::nextafter(hi, 0.0), inf, -inf, 0.0, -0.0, -1.0, -lo, -hi,
        4.9e-324, 1e-310, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()}) {
    x.push_back(v);
  }
  std::vector<double> y(x.size());
  numeric::log(x, y.data());
  expect_near_glibc(x, y.data(), [](double v) { return std::log(v); },
                    log_in_range, 1, "log");
  // The in-range lanes' bits (the polynomial's, independent of glibc): a
  // coefficient or reduction change that flips any rounding moves it.
  Digest d;
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (log_in_range(x[k])) d.add(y[k]);
  }
  EXPECT_EQ(d.h, 0xbbd5f402acf22149u) << std::hex << d.h;
  double one = 1.0, log_one = -1.0;
  numeric::log({&one, 1}, &log_one);
  EXPECT_TRUE(log_one == 0.0 && !std::signbit(log_one)) << hex(log_one);
}

TEST(LaneMath, ExpWithinOneUlpOfGlibc) {
  std::vector<double> x;
  numeric::Rng rng(4245);
  const double lim = numeric::kExpLimit;
  for (int k = 0; k < 200000; ++k) x.push_back(rng.uniform(-lim, lim));
  for (int k = 0; k < 100000; ++k) x.push_back(rng.uniform(-45.0, 15.0));
  // Around 0 (k = 0 and e_exp.c's tiny-argument case) and the reduction's
  // rounding points k ln2 +- ln2/2.
  for (int e = -1074; e < 0; e += 3) {
    x.push_back(std::ldexp(1.0, e));
    x.push_back(-std::ldexp(1.0, e));
  }
  for (int k = -1021; k <= 1021; k += 17) {
    for (const double c : {k * std::numbers::ln2 + 0.5 * std::numbers::ln2,
                           k * std::numbers::ln2 - 0.5 * std::numbers::ln2,
                           k * std::numbers::ln2}) {
      if (std::abs(c) >= lim) continue;
      x.push_back(c);
      x.push_back(std::nextafter(c, 1e300));
      x.push_back(std::nextafter(c, -1e300));
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double b : {lim, -lim}) {
    x.push_back(b);
    x.push_back(std::nextafter(b, 0.0));
    x.push_back(std::nextafter(b, 2.0 * b));
  }
  for (const double v : {0.0, -0.0, 709.0, 709.78, 710.0, -708.5, -745.0,
                         -746.0, 1e300, -1e300, inf, -inf,
                         std::numeric_limits<double>::quiet_NaN()}) {
    x.push_back(v);
  }
  std::vector<double> y(x.size());
  numeric::exp(x, y.data());
  expect_near_glibc(x, y.data(), [](double v) { return std::exp(v); },
                    exp_in_range, 1, "exp");
  Digest d;  // as in LogWithinOneUlpOfGlibc
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (exp_in_range(x[k])) d.add(y[k]);
  }
  EXPECT_EQ(d.h, 0x968e04d7ad6c0ac4u) << std::hex << d.h;
}

// ---------------------------------------------------------------------------
// The Kirschning-Jansen lane kernel against the scalar model with glibc's
// pow (tests/reference_line.h), within the written row bounds of DESIGN.md
// "Tabulation arithmetic".

/// Row bounds [ulps] of the kernel against reference::LineModel.
constexpr std::int64_t kEpsEffUlps = 4;
constexpr std::int64_t kZ0Ulps = 8;
constexpr std::int64_t kAlphaUlps = 8;
constexpr std::int64_t kBetaUlps = 4;

/// Within `bound` ulps, or both NaN, or equal infinities.
void expect_row(double got, double want, std::int64_t bound,
                std::int64_t& worst, const std::string& what) {
  if (std::isnan(want) || std::isnan(got)) {
    EXPECT_TRUE(std::isnan(want) && std::isnan(got))
        << what << " = " << hex(got) << ", reference " << hex(want);
    return;
  }
  const std::int64_t d = ulp_distance(got, want);
  worst = std::max(worst, d);
  EXPECT_LE(d, bound) << what << " = " << hex(got) << ", reference "
                      << hex(want);
}

TEST(LineTabulation, KirschningJansenRowsWithinBoundsOfReference) {
  // Boards over eps_r 1.5-12.5, h 0.1-3 mm, t 0-70 um, widths 0.02-40 h,
  // 16 lanes over 0.1-20 GHz: each board tabulates two widths in one
  // multi-width pass, each width alone, and lane by lane through the
  // one-lane accessors.  Then edge lanes: frequencies from 1 Hz to
  // 1e15 Hz, box corners, and a NaN lane.
  numeric::Rng rng(2406);
  std::int64_t worst[4] = {0, 0, 0, 0};  // eps_eff, Z0, alpha, beta
  std::vector<double> grid(kLanes);
  std::array<microstrip::Line::PropagationRows, 2> rows;
  microstrip::Line::PropagationRows alone;
  const auto check = [&](const microstrip::Substrate& sub,
                         const std::array<double, 2>& widths,
                         const std::string& where) {
    microstrip::Line::tabulate(sub, widths, grid, rows);
    for (std::size_t i = 0; i < 2; ++i) {
      const reference::LineModel ref(sub, widths[i]);
      const microstrip::Line line(sub, widths[i], 1e-3);
      line.tabulate(grid, alone);
      for (std::size_t k = 0; k < grid.size(); ++k) {
        const double f = grid[k];
        const std::string at = where + " width " + hex(widths[i]) + " f " +
                               hex(f);
        expect_row(line.epsilon_eff(f), ref.epsilon_eff(f), kEpsEffUlps,
                   worst[0], "eps_eff " + at);
        expect_row(line.z0(f), ref.z0(f), kZ0Ulps, worst[1], "z0 " + at);
        expect_row(rows[i].z0_ohm[k], ref.z0(f), kZ0Ulps, worst[1],
                   "z0 row " + at);
        expect_row(line.alpha_conductor(f), ref.alpha_conductor(f),
                   kAlphaUlps, worst[2], "alpha_c " + at);
        expect_row(line.alpha_dielectric(f), ref.alpha_dielectric(f),
                   kAlphaUlps, worst[2], "alpha_d " + at);
        expect_row(rows[i].alpha_np_m[k],
                   ref.alpha_conductor(f) + ref.alpha_dielectric(f),
                   kAlphaUlps, worst[2], "alpha row " + at);
        expect_row(rows[i].beta_rad_m[k], ref.beta(f), kBetaUlps, worst[3],
                   "beta row " + at);
        // The multi-width pass, the one-width pass and the one-lane
        // accessor compute the same bits.
        const microstrip::Line::Propagation p = line.propagation(f);
        EXPECT_TRUE(same_bits(rows[i].alpha_np_m[k], alone.alpha_np_m[k]) &&
                    same_bits(rows[i].beta_rad_m[k], alone.beta_rad_m[k]) &&
                    same_bits(rows[i].z0_ohm[k], alone.z0_ohm[k]) &&
                    same_bits(p.alpha_np_m, alone.alpha_np_m[k]) &&
                    same_bits(p.beta_rad_m, alone.beta_rad_m[k]) &&
                    same_bits(p.z0_ohm, alone.z0_ohm[k]))
            << at;
      }
    }
  };
  const auto board = [&](double er, double h, double t) {
    microstrip::Substrate sub;
    sub.epsilon_r = er;
    sub.height_m = h;
    sub.copper_thickness_m = t;
    sub.tan_delta = rng.uniform(0.0005, 0.03);
    sub.roughness_rms_m = rng.uniform(0.0, 3e-6);
    return sub;
  };
  const auto width = [&](double h) {
    return h * std::exp(rng.uniform(std::log(0.02), std::log(40.0)));
  };
  for (int b = 0; b < 9375; ++b) {
    const microstrip::Substrate sub =
        board(rng.uniform(1.5, 12.5), rng.uniform(0.1e-3, 3e-3),
              rng.uniform(0.0, 70e-6));
    for (double& f : grid) f = rng.uniform(0.1e9, 20e9);
    check(sub, {width(sub.height_m), width(sub.height_m)},
          "board " + std::to_string(b));
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edge = {1.0,   1e3,    1e6,  1e8,  0.1e9, 20e9,
                                    1e11,  1e12,   1e13, 1e15, nan,   1.575e9,
                                    3.5e9, 4.9e-324, 1e300, 2e12};
  for (const double er : {1.5, 12.5}) {
    for (const double h : {0.1e-3, 3e-3}) {
      for (const double t : {0.0, 70e-6}) {
        const microstrip::Substrate sub = board(er, h, t);
        std::copy(edge.begin(), edge.end(), grid.begin());
        check(sub, {0.02 * h, 40.0 * h}, "edge");
      }
    }
  }
  // Measured worst cases on this corpus (the bounds leave headroom for a
  // different libm or compiler).
  RecordProperty("worst_ulps_eps_eff_z0_alpha_beta",
                 std::to_string(worst[0]) + " " + std::to_string(worst[1]) +
                     " " + std::to_string(worst[2]) + " " +
                     std::to_string(worst[3]));
  std::printf("worst ulps: eps_eff %lld, z0 %lld, alpha %lld, beta %lld\n",
              static_cast<long long>(worst[0]),
              static_cast<long long>(worst[1]),
              static_cast<long long>(worst[2]),
              static_cast<long long>(worst[3]));
}

// ---------------------------------------------------------------------------
// One lane vs sixteen: the element kernels at any lane offset.


/// 40 grid frequencies: the amplifier's 16 plan lanes, then 24 more over
/// 0.2-6 GHz.
std::vector<double> wide_grid() {
  std::vector<double> g = amplifier::LnaDesign::default_band();
  for (const double f : amplifier::LnaDesign::stability_grid()) g.push_back(f);
  for (int k = 0; g.size() < 40; ++k) g.push_back(0.2e9 + 0.25e9 * k);
  return g;
}

/// Term rows of `lanes` lanes in owned storage.
struct TermStore {
  explicit TermStore(std::size_t lanes)
      : re(rf::YTermRows::kTerms * lanes), im(re.size()), lanes(lanes) {}
  rf::YTermRows rows() { return {re.data(), im.data(), lanes}; }
  std::vector<double> re, im;
  std::size_t lanes;
};

/// Order x order CSD rows of `lanes` lanes in owned storage.
struct CsdStore {
  CsdStore(std::size_t order, std::size_t lanes)
      : re(order * order * lanes), im(re.size()), order(order), lanes(lanes) {}
  circuit::CsdRows rows() { return {re.data(), im.data(), lanes, order}; }
  /// Entry e = i * order + j of lane k.
  Complex at(std::size_t e, std::size_t k) const {
    return {re[e * lanes + k], im[e * lanes + k]};
  }
  std::vector<double> re, im;
  std::size_t order, lanes;
};

void expect_same_terms(const rf::YTermRows& a, std::size_t ka,
                       const rf::YTermRows& b, std::size_t kb,
                       const std::string& where) {
  for (std::size_t t = 0; t < rf::YTermRows::kTerms; ++t) {
    EXPECT_TRUE(same_bits(a.re[t * a.stride + ka], b.re[t * b.stride + kb]) &&
                same_bits(a.im[t * a.stride + ka], b.im[t * b.stride + kb]))
        << where << " term " << t;
  }
}

TEST(LaneKernels, OneLaneAndSixteenLanesGiveTheSameBitsAtAnyOffset) {
  const std::vector<double> grid = wide_grid();
  const std::size_t n = grid.size();

  // Lines: a w50-like line on FR-4 over the grid, with lanes outside the
  // lane route's range mixed in (alpha l beyond ln2/2, |beta l| beyond
  // 1e5, alpha l < 0).
  const microstrip::Line probe(microstrip::Substrate::fr4(), 1.9e-3, 1e-3);
  microstrip::Line::PropagationRows prop;
  probe.tabulate(grid, prop);
  prop.alpha_np_m[5] = 40.0;
  prop.beta_rad_m[11] = 3e6;
  prop.alpha_np_m[17] = -0.5;
  const double length = 0.0231;

  // Passives, the pHEMT and its noise.
  const passives::Capacitor cap =
      passives::make_capacitor(2.2e-12, passives::Package::k0402);
  const passives::Inductor ind =
      passives::make_inductor(8.2e-9, passives::Package::k0603);
  const device::Phemt dev = device::Phemt::reference_device();
  const device::IntrinsicParams ip = dev.small_signal({-0.3, 2.7});
  const device::ExtrinsicParams ex = dev.extrinsics();
  const device::NoiseTemperatures nt = dev.temperatures();

  // The dispersion kernel: two widths on a perturbed FR-4 board over the
  // grid with lanes whose log/exp arguments leave the polynomial ranges
  // (1 Hz, 1e15 Hz, a subnormal frequency).
  microstrip::Substrate board = microstrip::Substrate::fr4();
  board.epsilon_r = 4.53;
  board.height_m = 0.77e-3;
  const std::array<double, 2> widths{1.52e-3, 0.4e-3};
  std::vector<double> kj_grid = grid;
  kj_grid[3] = 1.0;
  kj_grid[20] = 1e15;
  kj_grid[33] = 4.9e-324;

  for (std::size_t off = 0; off + kLanes <= n; ++off) {
    const std::string at = "offset " + std::to_string(off);
    const std::span<const double> f{grid.data() + off, kLanes};

    const std::span<const double> kj_f{kj_grid.data() + off, kLanes};
    std::array<microstrip::Line::PropagationRows, 2> two_widths, one_width;
    microstrip::Line::tabulate(board, widths, kj_f, two_widths);
    for (std::size_t i = 0; i < 2; ++i) {
      const microstrip::Line line(board, widths[i], 1e-3);
      line.tabulate(kj_f, one_width[i]);
      for (std::size_t k = 0; k < kLanes; ++k) {
        const microstrip::Line::Propagation p = line.propagation(kj_f[k]);
        EXPECT_TRUE(
            same_bits(two_widths[i].alpha_np_m[k], one_width[i].alpha_np_m[k]) &&
            same_bits(two_widths[i].beta_rad_m[k], one_width[i].beta_rad_m[k]) &&
            same_bits(two_widths[i].z0_ohm[k], one_width[i].z0_ohm[k]))
            << "two-width pass, width " << i << " " << at << " lane "
            << off + k;
        EXPECT_TRUE(same_bits(p.alpha_np_m, one_width[i].alpha_np_m[k]) &&
                    same_bits(p.beta_rad_m, one_width[i].beta_rad_m[k]) &&
                    same_bits(p.z0_ohm, one_width[i].z0_ohm[k]))
            << "propagation(f), width " << i << " " << at << " lane "
            << off + k;
      }
    }

    TermStore line(kLanes);
    microstrip::Line::y_lanes({prop.alpha_np_m.data() + off, kLanes},
                              {prop.beta_rad_m.data() + off, kLanes},
                              {prop.z0_ohm.data() + off, kLanes}, length,
                              line.rows());
    CsdStore twiss(2, kLanes);
    circuit::passive_twoport_csd_lanes(line.rows(), kLanes, 296.0,
                                       twiss.rows());

    std::vector<double> zr(kLanes), zi(kLanes), lr(kLanes), li(kLanes);
    cap.impedance(f, zr.data(), zi.data());
    ind.impedance(f, lr.data(), li.data());
    std::vector<double> yr(kLanes), yi(kLanes);
    CsdStore psd(1, kLanes);
    circuit::lossy_admittance_lanes(lr, li.data(), yr.data(), yi.data(),
                                    296.0, psd.rows(), kLanes);

    TermStore fet(kLanes);
    device::fet_y(ip, ex, f, fet.rows());
    std::vector<double> fmin(kLanes), rn(kLanes), gr(kLanes), gi(kLanes);
    const rf::NoiseRows noise{fmin.data(), rn.data(), gr.data(), gi.data(),
                              rf::kZ0};
    device::pospieszalski_noise(ip, ex, nt, f, noise);
    CsdStore cy(2, kLanes);
    circuit::noise_correlation_y_lanes(fet.rows(), noise, kLanes, cy.rows());

    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::size_t lane = off + k;
      const std::string where = at + " lane " + std::to_string(lane);
      const double fk = grid[lane];

      microstrip::Line::Propagation p;
      p.frequency_hz = fk;
      p.alpha_np_m = prop.alpha_np_m[lane];
      p.beta_rad_m = prop.beta_rad_m[lane];
      p.z0_ohm = prop.z0_ohm[lane];
      rf::YTermLane one;
      one.rows().store(0, microstrip::Line::y_from(p, length));
      expect_same_terms(line.rows(), k, one.rows(), 0, "line " + where);
      const auto twiss_one = circuit::passive_twoport_csd(
          [&](double) { return microstrip::Line::y_from(p, length); },
          296.0)(fk);
      for (std::size_t e = 0; e < 4; ++e) {
        EXPECT_TRUE(same_bits(twiss.at(e, k).real(),
                              twiss_one(e / 2, e % 2).real()) &&
                    same_bits(twiss.at(e, k).imag(),
                              twiss_one(e / 2, e % 2).imag()))
            << "Twiss CSD " << where;
      }

      const Complex zc = cap.impedance(fk), zl = ind.impedance(fk);
      EXPECT_TRUE(same_bits(zr[k], zc.real()) && same_bits(zi[k], zc.imag()))
          << "capacitor " << where;
      EXPECT_TRUE(same_bits(lr[k], zl.real()) && same_bits(li[k], zl.imag()))
          << "inductor " << where;
      double y1r, y1i;
      circuit::CsdLane psd1;
      const double zl_re = zl.real(), zl_im = zl.imag();
      circuit::lossy_admittance_lanes({&zl_re, 1}, &zl_im, &y1r, &y1i, 296.0,
                                      psd1.rows(1), 1);
      EXPECT_TRUE(same_bits(yr[k], y1r) && same_bits(yi[k], y1i) &&
                  same_bits(psd.at(0, k).real(), psd1.re[0]) &&
                  same_bits(psd.at(0, k).imag(), psd1.im[0]))
          << "lossy admittance " << where;

      rf::YTermLane fet_one;
      fet_one.rows().store(0, device::fet_y(ip, ex, fk));
      expect_same_terms(fet.rows(), k, fet_one.rows(), 0, "fet_y " + where);
      const rf::NoiseParams np = device::pospieszalski_noise(ip, ex, nt, fk);
      EXPECT_TRUE(same_bits(fmin[k], np.f_min) && same_bits(rn[k], np.r_n) &&
                  same_bits(gr[k], np.gamma_opt.real()) &&
                  same_bits(gi[k], np.gamma_opt.imag()))
          << "Pospieszalski " << where;
      const numeric::ComplexMatrix cy_one =
          circuit::noise_correlation_y(device::fet_y(ip, ex, fk), np);
      for (std::size_t e = 0; e < 4; ++e) {
        EXPECT_TRUE(same_bits(cy.at(e, k).real(),
                              cy_one(e / 2, e % 2).real()) &&
                    same_bits(cy.at(e, k).imag(),
                              cy_one(e / 2, e % 2).imag()))
            << "noise correlation " << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hex pins on a fixed corpus.

void expect_pin(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << " = " << hex(got) << ", pinned " << hex(want);
}

/// The amplifier's 16 plan lanes.
std::vector<double> plan_grid() {
  std::vector<double> g = amplifier::LnaDesign::default_band();
  for (const double f : amplifier::LnaDesign::stability_grid()) g.push_back(f);
  return g;
}

TEST(LaneKernels, HexPinsOfTheLineKernel) {
  // The w50 and bias-width lines of the default amplifier on FR-4 over the
  // 16 plan lanes at three lengths, then lanes on both sides of the lane
  // route's range boundaries: alpha l = ln2/2 - 1 ulp (lane route) and
  // ln2/2 (glibc route), beta l = 1e5 - 1 ulp and 1e5.
  const std::vector<double> grid = plan_grid();
  const microstrip::Substrate sub = microstrip::Substrate::fr4();
  Digest d;
  std::vector<rf::YParams> ys;
  for (const double width : {1.9e-3, 0.4e-3}) {
    microstrip::Line::PropagationRows prop;
    microstrip::Line(sub, width, 1e-3).tabulate(grid, prop);
    for (const double length : {4.1e-3, 17.3e-3, 41e-3}) {
      TermStore y(grid.size());
      microstrip::Line::y_lanes(prop.alpha_np_m, prop.beta_rad_m, prop.z0_ohm,
                                length, y.rows());
      for (std::size_t k = 0; k < grid.size(); ++k) {
        ys.push_back(y.rows().y(k, grid[k]));
      }
    }
  }
  const double lim = numeric::kExpm1Limit;
  const double edges[][3] = {{std::nextafter(lim, 0.0), 1.3, 48.0},
                             {lim, 1.3, 48.0},
                             {0.01, std::nextafter(1e5, 0.0), 51.0},
                             {0.01, 1e5, 51.0}};
  for (const auto& e : edges) {
    microstrip::Line::Propagation p;
    p.alpha_np_m = e[0];
    p.beta_rad_m = e[1];
    p.z0_ohm = e[2];
    ys.push_back(microstrip::Line::y_from(p, 1.0));
  }
  for (const rf::YParams& y : ys) {
    d.add(y.y11);
    d.add(y.y12);
    d.add(y.y21);
    d.add(y.y22);
  }
  expect_pin(ys[7].y11.real(), 0x1.05c60ec2d4db1p-8, "w50 l=4.1mm lane 7 Re y11");
  expect_pin(ys[7].y12.imag(), 0x1.2bc437f7dec58p-2, "w50 l=4.1mm lane 7 Im y12");
  expect_pin(ys[96 + 0].y11.imag(), -0x1.4e0fd701f57dbp-8, "alpha l = ln2/2 - 1ulp Im y11");
  expect_pin(ys[96 + 1].y11.imag(), -0x1.4e0fd701f57dap-8, "alpha l = ln2/2 Im y11");
  expect_pin(ys[96 + 2].y12.real(), 0x1.233ca79a37961p-3, "beta l = 1e5 - 1ulp Re y12");
  expect_pin(ys[96 + 3].y12.real(), 0x1.233ca79de8132p-3, "beta l = 1e5 Re y12");
  EXPECT_EQ(d.h, 0x0545bbed1299309fu) << std::hex << d.h;

  // The lane sincos just inside its range (1 ulp from glibc there).
  const double x = std::nextafter(1e5, 0.0);
  double s, c;
  numeric::sincos({&x, 1}, &s, &c);
  expect_pin(s, 0x1.24daa9c727959p-5, "sin(1e5 - 1 ulp)");
}

TEST(LaneKernels, HexPinsOfTheDispersionKernel) {
  // Rows of three widths on FR-4, RO4350B and a 10.2 / 0.25 mm board over
  // the 16 plan lanes from one multi-width pass, and the one-lane eps_eff
  // and losses at every lane; then lane log / exp on a fixed set, and the
  // resolved trace geometry of the default amplifier (w50 and the
  // quarter-wave bias line), whose bits set every design downstream.
  const std::vector<double> grid = plan_grid();
  microstrip::Substrate ceramic = microstrip::Substrate::fr4();
  ceramic.epsilon_r = 10.2;
  ceramic.height_m = 0.25e-3;
  ceramic.copper_thickness_m = 17e-6;
  ceramic.tan_delta = 0.0023;
  Digest d;
  const std::array<double, 3> widths{1.9e-3, 0.4e-3, 0.2e-3};
  std::array<microstrip::Line::PropagationRows, 3> rows;
  double pinned[3] = {};
  int board_index = 0;
  for (const microstrip::Substrate& sub :
       {microstrip::Substrate::fr4(), microstrip::Substrate::ro4350b(),
        ceramic}) {
    microstrip::Line::tabulate(sub, widths, grid, rows);
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const microstrip::Line line(sub, widths[i], 1e-3);
      for (std::size_t k = 0; k < grid.size(); ++k) {
        d.add(rows[i].alpha_np_m[k]);
        d.add(rows[i].beta_rad_m[k]);
        d.add(rows[i].z0_ohm[k]);
        d.add(line.epsilon_eff(grid[k]));
        d.add(line.alpha_conductor(grid[k]));
        d.add(line.alpha_dielectric(grid[k]));
      }
    }
    pinned[board_index++] = rows[0].z0_ohm[7];
  }
  expect_pin(rows[1].alpha_np_m[12], 0x1.9493b2148a106p+0, "10.2/0.25 mm w=0.4 mm lane 12 alpha");
  expect_pin(rows[2].beta_rad_m[3], 0x1.30e752721d518p+6, "10.2/0.25 mm w=0.2 mm lane 3 beta");
  expect_pin(pinned[0], 0x1.592daf95bbaf6p+5, "FR-4 w=1.9 mm lane 7 z0");
  expect_pin(pinned[1], 0x1.19c78d84f15abp+5, "RO4350B w=1.9 mm lane 7 z0");
  EXPECT_EQ(d.h, 0x8c1c492672101ff4u) << std::hex << d.h;

  // log over 2^-40 .. 2^40 (negative bases take glibc), exp over
  // +-250 with its out-of-range lanes.
  std::vector<double> x, e;
  for (int k = -40; k <= 40; ++k) {
    x.push_back(std::ldexp(1.0 + 0.37 * k, k));
    e.push_back(6.3 * k - 0.1);
  }
  e.push_back(-800.0);
  e.push_back(800.0);
  std::vector<double> lx(x.size()), ex(e.size());
  numeric::log(x, lx.data());
  numeric::exp(e, ex.data());
  Digest math;
  for (const double v : lx) math.add(v);
  for (const double v : ex) math.add(v);
  EXPECT_EQ(math.h, 0x9077f914790c1592u) << std::hex << math.h;

  // The parent's bits: the bisection's comparisons did not move.
  const double f_centre = 0.5 * (rf::kGnssBandLowHz + rf::kGnssBandHighHz);
  amplifier::AmplifierConfig fr4;
  fr4.resolve();
  amplifier::AmplifierConfig ro;
  ro.substrate = microstrip::Substrate::ro4350b();
  ro.resolve();
  expect_pin(fr4.w50_m, 0x1.86dc935c43855p-10, "w50 on FR-4");
  expect_pin(ro.w50_m, 0x1.23da845bf57c3p-10, "w50 on RO4350B");
  expect_pin(microstrip::length_for_electrical(microstrip::Substrate::fr4(),
                                               0.2e-3, std::numbers::pi / 2.0,
                                               f_centre),
             0x1.fb1cd5bee4498p-6, "quarter-wave bias line on FR-4");
}

TEST(LaneKernels, HexPinsOfThePassiveAndPhemtKernels) {
  const std::vector<double> grid = plan_grid();
  const std::size_t n = grid.size();

  Digest passive;
  std::vector<double> zr(n), zi(n), yr(n), yi(n);
  CsdStore psd(1, n);
  for (const double c : {0.5e-12, 2.2e-12, 33e-12, 100e-9}) {
    passives::make_capacitor(c, passives::Package::k0402,
                             c > 1e-9 ? passives::CapDielectric::kX7R
                                      : passives::CapDielectric::kC0G)
        .impedance(grid, zr.data(), zi.data());
    circuit::lossy_admittance_lanes(zr, zi.data(), yr.data(), yi.data(),
                                    296.15, psd.rows(), n);
    for (std::size_t k = 0; k < n; ++k) {
      passive.add(zr[k]);
      passive.add(zi[k]);
      passive.add(yr[k]);
      passive.add(yi[k]);
      passive.add(psd.at(0, k));
    }
  }
  expect_pin(yr[3], 0x1.291fc2153f194p-8, "100 nF X7R lane 3 Re y");
  for (const double l : {1.5e-9, 8.2e-9, 47e-9}) {
    passives::make_inductor(l, passives::Package::k0603)
        .impedance(grid, zr.data(), zi.data());
    circuit::lossy_admittance_lanes(zr, zi.data(), yr.data(), yi.data(),
                                    296.15, psd.rows(), n);
    for (std::size_t k = 0; k < n; ++k) {
      passive.add(zr[k]);
      passive.add(zi[k]);
      passive.add(yr[k]);
      passive.add(yi[k]);
      passive.add(psd.at(0, k));
    }
  }
  expect_pin(zr[9], 0x1.074e379fd0ee7p+4, "47 nH lane 9 Re z");
  expect_pin(psd.at(0, 12).real(), 0x1.2120da5c116afp-83, "47 nH lane 12 thermal CSD");
  EXPECT_EQ(passive.h, 0x3c633a073de4c507u) << std::hex << passive.h;

  const device::Phemt dev = device::Phemt::reference_device();
  Digest phemt;
  TermStore fet(n);
  std::vector<double> fmin(n), rn(n), gr(n), gi(n);
  const rf::NoiseRows noise{fmin.data(), rn.data(), gr.data(), gi.data(),
                            rf::kZ0};
  CsdStore cy(2, n);
  for (const device::Bias bias : {device::Bias{-0.45, 2.0},
                                  device::Bias{-0.3, 2.7},
                                  device::Bias{-0.22, 3.4}}) {
    const device::IntrinsicParams ip = dev.small_signal(bias);
    device::fet_y(ip, dev.extrinsics(), grid, fet.rows());
    device::pospieszalski_noise(ip, dev.extrinsics(), dev.temperatures(), grid,
                                noise);
    circuit::noise_correlation_y_lanes(fet.rows(), noise, n, cy.rows());
    for (std::size_t k = 0; k < n; ++k) {
      const rf::YParams yk = fet.rows().y(k, grid[k]);
      phemt.add(yk.y11);
      phemt.add(yk.y12);
      phemt.add(yk.y21);
      phemt.add(yk.y22);
      phemt.add(fmin[k]);
      phemt.add(rn[k]);
      phemt.add(gr[k]);
      phemt.add(gi[k]);
      for (std::size_t e = 0; e < 4; ++e) phemt.add(cy.at(e, k));
      const rf::SParams s =
          device::fet_s_params(ip, dev.extrinsics(), grid[k]);
      phemt.add(s.s11);
      phemt.add(s.s12);
      phemt.add(s.s21);
      phemt.add(s.s22);
    }
  }
  const rf::YParams y5 = fet.rows().y(5, grid[5]);
  expect_pin(y5.y21.real(), 0x1.ebb3158751f39p-4, "pHEMT (-0.22 V, 3.4 V) lane 5 Re y21");
  expect_pin(y5.y12.imag(), -0x1.f1dd3c4c0f519p-13, "pHEMT lane 5 Im y12");
  expect_pin(gi[5], 0x1.29a55a564809ap-3, "pHEMT lane 5 Im gamma_opt");
  expect_pin(cy.at(1, 5).imag(), 0x1.8dd739d4430a5p-75, "pHEMT lane 5 Im CY12");
  EXPECT_EQ(phemt.h, 0xa4a688a23a5e1754u) << std::hex << phemt.h;
}

}  // namespace
}  // namespace gnsslna
