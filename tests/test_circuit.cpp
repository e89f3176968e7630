#include <gtest/gtest.h>

#include <numbers>

#include "circuit/analysis.h"
#include "circuit/netlist.h"
#include "circuit/noisy_twoport.h"
#include "device/models.h"
#include "device/phemt.h"
#include "reference_dc.h"
#include "rf/metrics.h"
#include "rf/units.h"

namespace gnsslna::circuit {
namespace {

constexpr double kF = 1.575e9;

// ---------------------------------------------------------------------------
// S-parameter extraction vs closed forms

TEST(Analysis, ThruWireIsIdentity) {
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 1e-3, 0.0);  // ~ideal wire, noiseless
  nl.add_port(a);
  nl.add_port(b);
  const rf::SParams s = s_params(nl, kF);
  EXPECT_NEAR(std::abs(s.s21), 1.0, 1e-4);
  EXPECT_NEAR(std::abs(s.s11), 0.0, 1e-4);
}

TEST(Analysis, SeriesResistorMatchesFormula) {
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 100.0);
  nl.add_port(a);
  nl.add_port(b);
  const rf::SParams s = s_params(nl, kF);
  const rf::SParams expect = rf::s_series_impedance(kF, {100.0, 0.0});
  EXPECT_NEAR(std::abs(s.s11 - expect.s11), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(s.s21 - expect.s21), 0.0, 1e-10);
}

TEST(Analysis, ShuntCapacitorMatchesFormula) {
  Netlist nl2;
  const NodeId x = nl2.add_node();
  nl2.add_capacitor(x, kGround, 2e-12);
  nl2.add_port(x);
  const numeric::ComplexMatrix s1 = s_matrix(nl2, kF);
  // One-port reflection of a shunt C to ground against z0.
  const Complex y{0.0, 2.0 * std::numbers::pi * kF * 2e-12};
  const Complex expect = (1.0 - y * rf::kZ0) / (1.0 + y * rf::kZ0);
  EXPECT_NEAR(std::abs(s1(0, 0) - expect), 0.0, 1e-10);
}

TEST(Analysis, ResistiveDividerTwoPort) {
  // Series 50 + shunt 50: a classic matched-ish pad.
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 50.0);
  nl.add_resistor(b, kGround, 50.0);
  nl.add_port(a);
  nl.add_port(b);
  const rf::SParams s = s_params(nl, kF);
  // ABCD by hand: A = 1 + 50/50 = 2, B = 50, C = 1/50, D = 1.
  rf::AbcdParams abcd{kF, {2.0, 0.0}, {50.0, 0.0}, {0.02, 0.0}, {1.0, 0.0}};
  const rf::SParams expect = rf::s_from_abcd(abcd, rf::kZ0);
  EXPECT_NEAR(std::abs(s.s11 - expect.s11), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(s.s21 - expect.s21), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(s.s22 - expect.s22), 0.0, 1e-10);
}

TEST(Analysis, SeriesLcResonatesWhereExpected) {
  // Series L-C between the ports: transparent at f0 = 1/(2 pi sqrt(LC)).
  const double l = 5e-9, c = 2e-12;
  const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(l * c));
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId mid = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_inductor(a, mid, l);
  nl.add_capacitor(mid, b, c);
  nl.add_port(a);
  nl.add_port(b);
  EXPECT_GT(std::abs(s_params(nl, f0).s21), 0.999);
  EXPECT_LT(std::abs(s_params(nl, f0 * 3.0).s21),
            std::abs(s_params(nl, f0).s21));
}

TEST(Analysis, VccsMakesAnInvertingAmplifier) {
  // gm stage loaded by the output termination: S21 = -2 gm z0 (matched in).
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId out = nl.add_node();
  nl.add_vccs(out, kGround, in, kGround,
              [](double) { return Complex{0.04, 0.0}; });
  nl.add_port(in);
  nl.add_port(out);
  const rf::SParams s = s_params(nl, kF);
  EXPECT_NEAR(s.s21.real(), -2.0 * 0.04 * rf::kZ0, 1e-9);
  EXPECT_NEAR(std::abs(s.s11), 1.0, 1e-9);  // gate is an open
}

TEST(Analysis, ReciprocalNetworkGivesSymmetricS) {
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId m = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, m, 30.0);
  nl.add_inductor(m, b, 3e-9);
  nl.add_capacitor(m, kGround, 1e-12);
  nl.add_port(a);
  nl.add_port(b);
  const rf::SParams s = s_params(nl, kF);
  EXPECT_NEAR(std::abs(s.s21 - s.s12), 0.0, 1e-12);
}

TEST(Analysis, ThreePortSMatrixOfIdealTee) {
  // Three 1-ohm wires joined at a node: classic symmetric tee.
  Netlist nl;
  const NodeId j = nl.add_node();
  NodeId p[3];
  for (auto& node : p) {
    node = nl.add_node();
    nl.add_resistor(node, j, 1e-3, 0.0);
    nl.add_port(node);
  }
  const numeric::ComplexMatrix s = s_matrix(nl, kF);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      const double expect = i == k ? 1.0 / 3.0 : 2.0 / 3.0;
      EXPECT_NEAR(std::abs(s(i, k)), expect, 1e-3) << i << "," << k;
    }
  }
}

TEST(Analysis, ThreeTerminalStampMatchesGroundedTwoPort) {
  // A two-port stamped with common = ground must equal add_twoport.
  const auto yfn = [](double f) {
    rf::YParams y;
    y.frequency_hz = f;
    y.y11 = {0.02, 0.003};
    y.y12 = {-0.001, 0.0};
    y.y21 = {0.08, -0.02};
    y.y22 = {0.004, 0.001};
    return y;
  };
  Netlist nl1, nl2;
  for (Netlist* nl : {&nl1, &nl2}) {
    const NodeId a = nl->add_node();
    const NodeId b = nl->add_node();
    if (nl == &nl1) {
      nl->add_twoport(a, b, yfn);
    } else {
      nl->add_three_terminal(a, b, kGround, yfn);
    }
    nl->add_port(a);
    nl->add_port(b);
  }
  const rf::SParams s1 = s_params(nl1, kF);
  const rf::SParams s2 = s_params(nl2, kF);
  EXPECT_NEAR(std::abs(s1.s21 - s2.s21), 0.0, 1e-12);
}

TEST(Analysis, DegenerationReducesGainOfThreeTerminalStamp) {
  const auto yfn = [](double f) {
    rf::YParams y;
    y.frequency_hz = f;
    y.y11 = {1e-4, 0.005};
    y.y12 = {0.0, -1e-4};
    y.y21 = {0.08, -0.01};
    y.y22 = {0.002, 0.001};
    return y;
  };
  const auto build = [&](bool degenerate) {
    Netlist nl;
    const NodeId g = nl.add_node();
    const NodeId d = nl.add_node();
    const NodeId s = nl.add_node();
    nl.add_three_terminal(g, d, s, yfn);
    if (degenerate) {
      nl.add_inductor(s, kGround, 2e-9);
    } else {
      nl.add_resistor(s, kGround, 1e-3, 0.0);
    }
    nl.add_port(g);
    nl.add_port(d);
    return std::abs(s_params(nl, kF).s21);
  };
  EXPECT_LT(build(true), build(false));
}

// ---------------------------------------------------------------------------
// Noise analysis

TEST(NoiseAnalysis, MatchedAttenuatorNoiseFigureEqualsLoss) {
  // 50-ohm-matched resistive pi pad at T0: NF = insertion loss.
  // 6 dB pad: R_series = 37.35*2? Use a T pad: R1 = R2 = z0 (k-1)/(k+1),
  // R3 = 2 z0 k / (k^2 - 1), k = 10^(dB/20).
  const double att_db = 6.0;
  const double k = std::pow(10.0, att_db / 20.0);
  const double r1 = rf::kZ0 * (k - 1.0) / (k + 1.0);
  const double r3 = 2.0 * rf::kZ0 * k / (k * k - 1.0);
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId m = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, m, r1);
  nl.add_resistor(m, b, r1);
  nl.add_resistor(m, kGround, r3);
  nl.add_port(a);
  nl.add_port(b);
  const rf::SParams s = s_params(nl, kF);
  EXPECT_NEAR(rf::db20(s.s21), -att_db, 0.01);
  EXPECT_LT(std::abs(s.s11), 0.01);
  const NoiseResult nr = noise_analysis(nl, 0, 1, kF);
  EXPECT_NEAR(nr.noise_figure_db, att_db, 0.01);
}

TEST(NoiseAnalysis, ColdAttenuatorIsQuieter) {
  const double r1 = rf::kZ0 * (2.0 - 1.0) / (2.0 + 1.0);
  const double r3 = 2.0 * rf::kZ0 * 2.0 / 3.0;
  const auto build = [&](double temp) {
    Netlist nl;
    const NodeId a = nl.add_node();
    const NodeId m = nl.add_node();
    const NodeId b = nl.add_node();
    nl.add_resistor(a, m, r1, temp);
    nl.add_resistor(m, b, r1, temp);
    nl.add_resistor(m, kGround, r3, temp);
    nl.add_port(a);
    nl.add_port(b);
    return noise_analysis(nl, 0, 1, kF).noise_factor;
  };
  EXPECT_LT(build(77.0), build(290.0));
}

TEST(NoiseAnalysis, LosslessElementsAddNoNoise) {
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_inductor(a, b, 1e-9);
  nl.add_capacitor(b, kGround, 0.1e-12);
  nl.add_port(a);
  nl.add_port(b);
  const NoiseResult nr = noise_analysis(nl, 0, 1, kF);
  EXPECT_NEAR(nr.noise_figure_db, 0.0, 1e-9);
}

TEST(NoiseAnalysis, DeviceNoiseMatchesFourParameterFormula) {
  // Stamp the reference pHEMT through the correlation-matrix machinery and
  // compare the MNA noise figure with the analytic source-pull formula at
  // gamma_s = 0 (both ports 50 ohm).
  const device::Phemt dev = device::Phemt::reference_device();
  const device::Bias bias{-0.3, 2.0};
  Netlist nl;
  const NodeId g = nl.add_node();
  const NodeId d = nl.add_node();
  add_noisy_three_terminal(
      nl, g, d, kGround,
      [&](double f) { return rf::y_from_s(dev.s_params(bias, f)); },
      [&](double f) { return dev.noise(bias, f); });
  nl.add_port(g);
  nl.add_port(d);
  const double nf_mna = noise_analysis(nl, 0, 1, kF).noise_figure_db;
  const double nf_formula =
      rf::noise_figure_db(dev.noise(bias, kF), {0.0, 0.0});
  EXPECT_NEAR(nf_mna, nf_formula, 0.02);
}

TEST(NoiseAnalysis, PassiveTwoPortMatchesLossyImpedanceNoise) {
  // The same series resistor stamped two ways must give the same NF.
  const auto yfn = [](double f) {
    rf::YParams y;
    y.frequency_hz = f;
    const Complex g{1.0 / 75.0, 0.0};
    y.y11 = g;
    y.y12 = -g;
    y.y21 = -g;
    y.y22 = g;
    return y;
  };
  Netlist nl1;
  {
    const NodeId a = nl1.add_node();
    const NodeId b = nl1.add_node();
    add_passive_twoport(nl1, a, b, kGround, yfn);
    nl1.add_port(a);
    nl1.add_port(b);
  }
  Netlist nl2;
  {
    const NodeId a = nl2.add_node();
    const NodeId b = nl2.add_node();
    nl2.add_resistor(a, b, 75.0);
    nl2.add_port(a);
    nl2.add_port(b);
  }
  EXPECT_NEAR(noise_analysis(nl1, 0, 1, kF).noise_figure_db,
              noise_analysis(nl2, 0, 1, kF).noise_figure_db, 1e-9);
}

TEST(NoiseAnalysis, HotterSourceReferenceLowersReportedF) {
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 30.0);
  nl.add_port(a);
  nl.add_port(b);
  EXPECT_LT(noise_analysis(nl, 0, 1, kF, 580.0).noise_factor,
            noise_analysis(nl, 0, 1, kF, 290.0).noise_factor);
}

// ---------------------------------------------------------------------------
// Netlist validation

TEST(Netlist, RejectsBadElements) {
  Netlist nl;
  const NodeId a = nl.add_node();
  EXPECT_THROW(nl.add_resistor(a, a, 50.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(a, 99, 50.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(a, kGround, -5.0), std::invalid_argument);
  EXPECT_THROW(nl.add_capacitor(a, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(nl.add_port(kGround), std::invalid_argument);
  EXPECT_THROW(nl.add_port(a, -50.0), std::invalid_argument);
}

TEST(Netlist, FindNodeByLabel) {
  Netlist nl;
  const NodeId a = nl.add_node("alpha");
  EXPECT_EQ(nl.find_node("alpha"), a);
  EXPECT_EQ(nl.find_node("gnd"), kGround);
  EXPECT_THROW(nl.find_node("missing"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Transfer helpers

TEST(Transfer, UnloadedPortSitsAtSourceVoltage) {
  // The port termination IS the source impedance; with no other load the
  // node shows the full open-circuit source voltage.
  Netlist nl;
  const NodeId a = nl.add_node();
  nl.add_port(a);
  const Complex h = voltage_transfer(nl, 0, a, kGround, kF);
  EXPECT_NEAR(std::abs(h - Complex{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Transfer, MatchedLoadHalvesSourceVoltage) {
  Netlist nl;
  const NodeId a = nl.add_node();
  nl.add_resistor(a, kGround, rf::kZ0, 0.0);
  nl.add_port(a);
  const Complex h = voltage_transfer(nl, 0, a, kGround, kF);
  EXPECT_NEAR(std::abs(h - Complex{0.5, 0.0}), 0.0, 1e-12);
}

TEST(Transfer, TransimpedanceOfSingleNodeIsParallelImpedance) {
  // Unit current into a node loaded by z0 (port) and 100 ohm.
  Netlist nl;
  const NodeId a = nl.add_node();
  nl.add_resistor(a, kGround, 100.0);
  nl.add_port(a);
  const Complex zt = transimpedance(nl, a, kGround, 0, kF);
  EXPECT_NEAR(zt.real(), 100.0 * 50.0 / 150.0, 1e-9);
}

// ---------------------------------------------------------------------------
// DC solver (the test reference)

using reference::DcCircuit;
using reference::DcNodeId;
using reference::DcSolution;
using reference::kDcGround;

TEST(Dc, ResistorDividerSolvesExactly) {
  DcCircuit c;
  const DcNodeId top = c.add_node();
  const DcNodeId mid = c.add_node();
  c.add_vsource(top, kDcGround, 5.0);
  c.add_resistor(top, mid, 1000.0);
  c.add_resistor(mid, kDcGround, 1000.0);
  const DcSolution sol = c.solve();
  EXPECT_NEAR(sol.voltage(top), 5.0, 1e-9);
  EXPECT_NEAR(sol.voltage(mid), 2.5, 1e-9);
  EXPECT_NEAR(sol.source_currents[0], -5.0 / 2000.0, 1e-9);
}

TEST(Dc, FetSelfBiasPointConverges) {
  // Vdd -> Rd -> drain; gate at fixed negative bias; source grounded.
  const device::Angelov model;
  DcCircuit c;
  const DcNodeId vdd = c.add_node();
  const DcNodeId drain = c.add_node();
  const DcNodeId gate = c.add_node();
  c.add_vsource(vdd, kDcGround, 5.0);
  c.add_vsource(gate, kDcGround, -0.3);
  c.add_resistor(vdd, drain, 100.0);
  c.add_fet(gate, drain, kDcGround, model);
  const DcSolution sol = c.solve();
  const double vds = sol.voltage(drain);
  EXPECT_GT(vds, 0.2);
  EXPECT_LT(vds, 5.0);
  // KVL: Vdd - Id * Rd = Vds.
  const double id = model.drain_current(-0.3, vds);
  EXPECT_NEAR(5.0 - id * 100.0, vds, 1e-6);
  EXPECT_NEAR(c.fet_drain_current(0, sol), id, 1e-12);
}

TEST(Dc, SourceDegenerationRaisesSourceNode) {
  const device::Angelov model;
  DcCircuit c;
  const DcNodeId vdd = c.add_node();
  const DcNodeId drain = c.add_node();
  const DcNodeId gate = c.add_node();
  const DcNodeId src = c.add_node();
  c.add_vsource(vdd, kDcGround, 5.0);
  c.add_vsource(gate, kDcGround, 0.0);  // gate at 0, source self-biases up
  c.add_resistor(vdd, drain, 50.0);
  c.add_resistor(src, kDcGround, 20.0);
  c.add_fet(gate, drain, src, model);
  const DcSolution sol = c.solve();
  EXPECT_GT(sol.voltage(src), 0.05);  // Id * Rs lifts the source
  EXPECT_GT(sol.voltage(drain), sol.voltage(src));
}

TEST(Dc, UnsolvableCircuitThrows) {
  DcCircuit c;
  const DcNodeId a = c.add_node();
  c.add_vsource(a, kDcGround, 1.0);
  c.add_vsource(a, kDcGround, 2.0);  // contradictory sources
  EXPECT_THROW(c.solve(), std::runtime_error);
}

TEST(Dc, ValidationErrors) {
  DcCircuit c;
  const DcNodeId a = c.add_node();
  EXPECT_THROW(c.add_resistor(a, a, 10.0), std::invalid_argument);
  EXPECT_THROW(c.add_resistor(a, 99, 10.0), std::invalid_argument);
  const device::Angelov model;
  EXPECT_THROW(c.add_fet(a, a, a, model), std::invalid_argument);
}

}  // namespace
}  // namespace gnsslna::circuit
