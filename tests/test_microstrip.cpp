#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "libgcc_complex.h"
#include "microstrip/discontinuity.h"
#include "microstrip/line.h"
#include "numeric/rng.h"
#include "rf/metrics.h"

namespace gnsslna::microstrip {
namespace {

constexpr double kF = 1.575e9;

TEST(Line, FiftyOhmOnFr4HasExpectedWidth) {
  // Hammerstad-Jensen for er=4.4, h=0.8mm, t=35um: w(50 ohm) ~ 1.5 mm.
  const double w = synthesize_width(Substrate::fr4(), 50.0, kF);
  EXPECT_GT(w, 1.2e-3);
  EXPECT_LT(w, 1.8e-3);
}

TEST(Line, SynthesisAnalysisRoundTrip) {
  const Substrate sub = Substrate::fr4();
  for (const double z0 : {30.0, 50.0, 75.0, 100.0}) {
    const double w = synthesize_width(sub, z0, kF);
    const Line line(sub, w, 10e-3);
    EXPECT_NEAR(line.z0(kF), z0, 0.05) << "target " << z0;
  }
}

TEST(Line, EffectivePermittivityBetweenOneAndEr) {
  const Substrate sub = Substrate::fr4();
  const Line line(sub, 1.5e-3, 10e-3);
  EXPECT_GT(line.epsilon_eff_static(), 1.0);
  EXPECT_LT(line.epsilon_eff_static(), sub.epsilon_r);
  EXPECT_NEAR(line.epsilon_eff_static(), 3.33, 0.15);  // published ~3.3
}

TEST(Line, DispersionRaisesEpsEffWithFrequency) {
  const Line line(Substrate::fr4(), 1.5e-3, 10e-3);
  const double e1 = line.epsilon_eff(1e9);
  const double e5 = line.epsilon_eff(5e9);
  const double e10 = line.epsilon_eff(10e9);
  EXPECT_GT(e5, e1);
  EXPECT_GT(e10, e5);
  EXPECT_LT(e10, Substrate::fr4().epsilon_r);  // bounded by er
  EXPECT_GE(e1, line.epsilon_eff_static());
}

TEST(Line, WiderLineHasLowerImpedance) {
  const Substrate sub = Substrate::fr4();
  const Line narrow(sub, 0.5e-3, 10e-3);
  const Line wide(sub, 3e-3, 10e-3);
  EXPECT_GT(narrow.z0_static(), wide.z0_static());
}

TEST(Line, LossesPositiveAndGrowWithFrequency) {
  const Line line(Substrate::fr4(), 1.5e-3, 10e-3);
  EXPECT_GT(line.alpha_conductor(kF), 0.0);
  EXPECT_GT(line.alpha_dielectric(kF), 0.0);
  EXPECT_GT(line.alpha(4e9), line.alpha(1e9));
}

TEST(Line, Ro4350LessLossyThanFr4) {
  const Line fr4(Substrate::fr4(), 1.7e-3, 10e-3);
  const Line ro(Substrate::ro4350b(), 1.1e-3, 10e-3);
  EXPECT_LT(ro.alpha_dielectric(kF), fr4.alpha_dielectric(kF));
}

TEST(Line, QuarterWaveLengthAtLBand) {
  // lambda_g/4 at 1.575 GHz on FR4 ~ 26 mm.
  const Substrate sub = Substrate::fr4();
  const double w50 = synthesize_width(sub, 50.0, kF);
  const double l =
      length_for_electrical(sub, w50, std::numbers::pi / 2.0, kF);
  EXPECT_GT(l, 22e-3);
  EXPECT_LT(l, 30e-3);
}

TEST(Line, SParamsReciprocalAndPassive) {
  const Line line(Substrate::fr4(), 1.5e-3, 25e-3);
  const rf::SParams s = line.s_params(kF);
  EXPECT_NEAR(std::abs(s.s21 - s.s12), 0.0, 1e-10);  // reciprocity
  EXPECT_LT(std::abs(s.s21), 1.0);                   // lossy
  EXPECT_GT(std::abs(s.s21), 0.9);                   // but not very lossy
  EXPECT_LT(std::abs(s.s11), 0.1);                   // near 50 ohm
}

TEST(Line, MatchedLineElectricalLengthMatchesS21Phase) {
  const Substrate sub = Substrate::fr4();
  const double w50 = synthesize_width(sub, 50.0, kF);
  const Line line(sub, w50, 20e-3);
  const rf::SParams s = line.s_params(kF);
  const double theta = line.electrical_length(kF);
  EXPECT_NEAR(std::arg(s.s21), -theta, 0.02);
}

TEST(Line, InvalidInputsThrow) {
  EXPECT_THROW(Line(Substrate::fr4(), 0.0, 1e-3), std::invalid_argument);
  EXPECT_THROW(Line(Substrate::fr4(), 1e-3, -1.0), std::invalid_argument);
  const Line line(Substrate::fr4(), 1e-3, 1e-3);
  EXPECT_THROW(line.epsilon_eff(0.0), std::invalid_argument);
  EXPECT_THROW(synthesize_width(Substrate::fr4(), 400.0, kF),
               std::domain_error);
}

// ---------------------------------------------------------------------------
// Width synthesis stops its bisection once a step changes nothing; the
// result must equal the fixed 100-step loop it replaced, bit for bit

double synthesize_width_100_steps(const Substrate& substrate, double z0,
                                  double frequency_hz) {
  double lo = substrate.height_m * 0.02;
  double hi = substrate.height_m * 40.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = std::sqrt(lo * hi);
    if (Line(substrate, mid, 1e-3).z0(frequency_hz) > z0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

TEST(Line, SynthesisEarlyStopMatchesFixedIterationCount) {
  for (const Substrate& sub : {Substrate::fr4(), Substrate::ro4350b()}) {
    for (const double z0 : {20.0, 35.0, 50.0, 75.0, 110.0}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(synthesize_width(sub, z0, kF)),
                std::bit_cast<std::uint64_t>(
                    synthesize_width_100_steps(sub, z0, kF)))
          << "eps_r " << sub.epsilon_r << ", " << z0 << " ohm";
    }
  }
  numeric::Rng rng(4242);
  int compared = 0;
  for (int k = 0; k < 200; ++k) {
    Substrate sub;
    sub.epsilon_r = rng.uniform(2.2, 10.2);
    sub.height_m = rng.uniform(0.1e-3, 1.6e-3);
    sub.tan_delta = rng.uniform(0.0005, 0.025);
    const double z0 = rng.uniform(25.0, 100.0);
    const double f = rng.uniform(0.5e9, 3.0e9);
    double got = 0.0;
    try {
      got = synthesize_width(sub, z0, f);
    } catch (const std::domain_error&) {
      continue;  // unrealizable target (the reference has no range check)
    }
    ++compared;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(
                  synthesize_width_100_steps(sub, z0, f)))
        << "case " << k;
  }
  EXPECT_GT(compared, 150);
}

// ---------------------------------------------------------------------------
// Tabulation arithmetic: Line::abcd_from's component-form cosh/sinh against
// the complex library functions, bit for bit
//
// abcd_from forms cosh(gl) and sinh(gl) from one sincos, one cosh and one
// sinh; the reference below is its former body, which calls std::cosh /
// std::sinh of the complex argument (glibc's ccosh / csinh) and, in the
// default complex semantics, multiplies zc * sh and divides sh / zc
// through libgcc's __muldc3 / __divdc3 (called by name, libgcc_complex.h).

rf::AbcdParams abcd_reference(const Line::Propagation& p, double length_m) {
  const std::complex<double> gamma{p.alpha_np_m, p.beta_rad_m};
  const std::complex<double> gl = gamma * length_m;
  const std::complex<double> zc{p.z0_ohm, 0.0};
  const std::complex<double> ch = std::cosh(gl);
  const std::complex<double> sh = std::sinh(gl);
  return {p.frequency_hz, ch, reference::libgcc_mul(zc, sh),
          reference::libgcc_div(sh, zc), ch};
}

bool same_bits(const rf::Complex& a, const rf::Complex& b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

void expect_abcd_matches_reference(const Line::Propagation& p, double len) {
  const rf::AbcdParams got = Line::abcd_from(p, len);
  const rf::AbcdParams want = abcd_reference(p, len);
  EXPECT_TRUE(same_bits(got.a, want.a) && same_bits(got.b, want.b) &&
              same_bits(got.c, want.c) && same_bits(got.d, want.d))
      << "alpha " << p.alpha_np_m << " beta " << p.beta_rad_m << " z0 "
      << p.z0_ohm << " length " << len << ": got " << got.a << ' ' << got.b
      << ' ' << got.c << ", want " << want.a << ' ' << want.b << ' '
      << want.c;
}

TEST(LineTabulation, ComponentCoshSinhMatchComplexLibraryOnLines) {
  // The lines the amplifier tabulates: both substrates, L-band and the
  // stability grid's 0.5-3.5 GHz, widths and lengths around the design
  // box and beyond.
  numeric::Rng rng(1575);
  for (int k = 0; k < 3000; ++k) {
    const Substrate sub = k % 2 == 0 ? Substrate::fr4() : Substrate::ro4350b();
    const double width = rng.uniform(0.1e-3, 5e-3);
    const double length = std::exp(rng.uniform(std::log(1e-4), std::log(0.5)));
    const double f = rng.uniform(0.3e9, 4e9);
    const Line line(sub, width, length);
    const Line::Propagation p = line.propagation(f);
    expect_abcd_matches_reference(p, length);
    EXPECT_TRUE(same_bits(line.abcd(f).b, abcd_reference(p, length).b));
  }
}

TEST(LineTabulation, ComponentCoshSinhMatchComplexLibraryOnEdges) {
  // Synthetic propagation data: lossless and heavily lossy, attenuation
  // up to and past the 709 limit of the component form (but below ~710.5,
  // where cosh and sinh overflow), negative attenuation, phase lengths
  // from subnormal to 1e9 rad of either sign.  Operands stay finite and
  // z0 >= 1 keeps sh / zc from overflowing: outside that range __divdc3's
  // infinity recovery and its reordered form for a zero ratio can differ
  // from Smith's algorithm, which is outside the contract (DESIGN.md).
  const double min = std::numeric_limits<double>::min();
  Line::Propagation p;
  p.frequency_hz = 1.5e9;
  numeric::Rng rng(1576);
  for (const double al : {0.0, -0.0, 1e-300, 1e-9, 0.37, 5.0, 300.0, 708.9,
                          std::nextafter(709.0, 0.0), 709.0, 709.5, 710.0,
                          -1e-3, -2.0}) {
    for (const double bl : {0.0, -0.0, min / 4.0, min, -min, 2.0 * min, 1e-200,
                            1e-9, 0.5, -0.9, 1.57, 2.4, -3.1, 42.0, 1e5,
                            -7.3e6, 1e9}) {
      for (const double z0 : {1.0, 50.0, 137.0}) {
        p.alpha_np_m = al;
        p.beta_rad_m = bl;
        p.z0_ohm = z0;
        expect_abcd_matches_reference(p, 1.0);
      }
    }
  }
  for (int k = 0; k < 20000; ++k) {
    p.alpha_np_m = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 2.0);
    p.beta_rad_m = rng.uniform(-300.0, 300.0);
    p.z0_ohm = rng.uniform(10.0, 200.0);
    expect_abcd_matches_reference(p, rng.uniform(1e-4, 0.3));
  }
}

TEST(LineTabulation, NanPropagationStaysNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto finite = [](const rf::Complex& z) {
    return std::isfinite(z.real()) && std::isfinite(z.imag());
  };
  Line::Propagation p;
  p.frequency_hz = 1.5e9;
  p.alpha_np_m = nan;
  p.beta_rad_m = 30.0;
  p.z0_ohm = 50.0;
  EXPECT_FALSE(finite(Line::abcd_from(p, 0.01).a));
  p.alpha_np_m = 0.1;
  p.beta_rad_m = nan;
  EXPECT_FALSE(finite(Line::abcd_from(p, 0.01).b));
}

TEST(Substrate, ValidationCatchesNonPhysical) {
  Substrate s = Substrate::fr4();
  s.epsilon_r = 0.5;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = Substrate::fr4();
  s.height_m = 0.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Discontinuities

TEST(OpenEnd, ExtensionIsFractionOfHeight) {
  const Substrate sub = Substrate::fr4();
  const double dl = open_end_extension(sub, 1.5e-3);
  // Classic result: 0.3 h .. 0.6 h for common geometries.
  EXPECT_GT(dl, 0.2 * sub.height_m);
  EXPECT_LT(dl, 0.8 * sub.height_m);
}

TEST(OpenEnd, CapacitanceGrowsWithWidth) {
  const Substrate sub = Substrate::fr4();
  EXPECT_GT(open_end_capacitance(sub, 3e-3),
            open_end_capacitance(sub, 1e-3));
}

TEST(Step, NoStepMeansNoInductance) {
  EXPECT_DOUBLE_EQ(step_inductance(Substrate::fr4(), 1e-3, 1e-3), 0.0);
}

TEST(Step, InductanceGrowsWithImpedanceRatio) {
  const Substrate sub = Substrate::fr4();
  const double small = step_inductance(sub, 1.5e-3, 1.2e-3);
  const double large = step_inductance(sub, 3.0e-3, 0.3e-3);
  EXPECT_GT(large, small);
  EXPECT_GT(small, 0.0);
  EXPECT_LT(large, 1e-9);  // sub-nH for PCB steps
}

TEST(Step, SymmetricInArguments) {
  const Substrate sub = Substrate::fr4();
  EXPECT_DOUBLE_EQ(step_inductance(sub, 2e-3, 0.5e-3),
                   step_inductance(sub, 0.5e-3, 2e-3));
}

TEST(Tee, ParasiticsInPublishedBallpark) {
  // 50-ohm main, high-impedance branch on 0.8 mm FR4: tens of fF, ~0.1 nH.
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  EXPECT_GT(tee.junction_capacitance(), 5e-15);
  EXPECT_LT(tee.junction_capacitance(), 200e-15);
  EXPECT_GT(tee.arm_inductance_main(), 0.02e-9);
  EXPECT_LT(tee.arm_inductance_main(), 0.5e-9);
  EXPECT_GT(tee.arm_inductance_branch(), tee.arm_inductance_main());
}

TEST(Tee, YMatrixRowsSumToSmallValue) {
  // The only path to ground is the junction capacitance, so row sums must
  // equal the (small) capacitive admittance share.
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  const auto y = tee.y_matrix(kF);
  for (int i = 0; i < 3; ++i) {
    rf::Complex row{0.0, 0.0};
    for (int j = 0; j < 3; ++j) {
      row += y[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
    // Row sum is the current drawn when all ports ride together = the
    // capacitor path; it must be tiny compared to the arm admittances.
    EXPECT_LT(std::abs(row),
              std::abs(y[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(i)]) *
                  0.2);
  }
}

TEST(Tee, YMatrixIsSymmetric) {
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  const auto y = tee.y_matrix(kF);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(j)] -
                           y[static_cast<std::size_t>(j)]
                            [static_cast<std::size_t>(i)]),
                  0.0, 1e-12);
    }
  }
}

TEST(Tee, OpenBranchIsNearThru) {
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  // Branch terminated in a huge impedance: through path ~ transparent.
  const rf::SParams s =
      tee.through_with_branch_termination(kF, {1e9, 0.0});
  EXPECT_GT(std::abs(s.s21), 0.97);
  EXPECT_LT(std::abs(s.s11), 0.15);
}

TEST(Tee, MatchedBranchSplitsPower) {
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 1.5e-3);
  // Branch terminated in 50 ohm: an ideal tee gives |S21|^2 = 4/9.
  const rf::SParams s = tee.through_with_branch_termination(kF, {50.0, 0.0});
  EXPECT_NEAR(std::norm(s.s21), 4.0 / 9.0, 0.05);
  // And the through port sees 25 ohm -> S11 ~ -1/3.
  EXPECT_NEAR(s.s11.real(), -1.0 / 3.0, 0.05);
}

TEST(Tee, RejectsBadInput) {
  EXPECT_THROW(TeeJunction(Substrate::fr4(), 0.0, 1e-3),
               std::invalid_argument);
  const TeeJunction tee(Substrate::fr4(), 1.5e-3, 0.3e-3);
  EXPECT_THROW(tee.y_matrix(0.0), std::invalid_argument);
  EXPECT_THROW(tee.through_with_branch_termination(kF, {0.0, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace gnsslna::microstrip
