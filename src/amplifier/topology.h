// The GNSS antenna-preamplifier topology and its design vector.
//
// A single-stage pHEMT LNA in the classic app-note arrangement:
//
//   port1 --Cin--+--[TL_in1]--+--[TL_in2]--(gate) FET (drain)--[tee]--[TL_out1]--+--[TL_out2]--Cblk-- port2
//                |           |                      |            |               |
//             Lshunt       C_mid                 Ls_deg      bias branch      C_out_sh
//                |           |                      |        (hi-Z line,         |
//             (decoupled    gnd                    gnd        Cdec+Rdrain)      gnd
//              bias node)
//
// The input is a double-stub match (shunt L at the port, shunt C between
// two line sections); the output is a line - shunt C - line section.  Two
// stubs per side give the optimizer enough freedom to hold the match
// across the full 1.1-1.7 GHz multi-constellation band — a single stub
// cannot cover 43%% fractional bandwidth against the pHEMT's |Gamma|~0.8.
//
//   * Cin / Cblk: DC blocks (dispersive chip capacitors);
//   * input 50-ohm microstrip sections rotate the source reflection
//     toward Gamma_opt;
//   * Lshunt: shunt inductor at the input side (first stub) - also the
//     gate DC return through its RF-decoupled cold end;
//   * C_mid: second stub of the input match;
//   * Ls_deg: source degeneration inductance - trades gain for
//     simultaneous noise/impedance match and stability;
//   * drain bias enters through a microstrip T-splitter (the paper's "T
//     splitter"), a high-impedance quarter-wave-ish line, a decoupling
//     capacitor, and the drain resistor that sets the operating point;
//   * output microstrip sections plus shunt capacitor form the output
//     match.
//
// The design vector (Table IV of the reconstruction) is the operating
// point plus the essential passive elements:
//   [vgs, vds, l_in1, l_in2, L_shunt, C_mid, l_out1, C_out_sh, l_out2,
//    L_s_deg, C_in, R_fb]
//
// R_fb (with a fixed series DC block) is the resistive shunt feedback
// from drain to gate: it guarantees low-frequency stability, flattens the
// gain, and pulls both port impedances toward 50 ohm at a small noise
// cost — the optimizer picks how much of it to use.
#pragma once

#include <vector>

#include "device/phemt.h"
#include "microstrip/line.h"
#include "optimize/problem.h"
#include "passives/catalog.h"

namespace gnsslna::amplifier {

/// The optimizer's free variables.
struct DesignVector {
  double vgs = -0.35;        ///< gate bias [V]
  double vds = 2.5;          ///< drain bias [V]
  double l_in_m = 12e-3;     ///< first input line length [m]
  double l_in2_m = 8e-3;     ///< second input line length [m]
  double l_shunt_h = 8e-9;   ///< input shunt inductor [H]
  double c_mid_f = 0.5e-12;  ///< mid-input shunt capacitor [F]
  double l_out_m = 10e-3;    ///< first output line length [m]
  double c_out_sh_f = 1e-12; ///< output shunt capacitor [F]
  double l_out2_m = 8e-3;    ///< second output line length [m]
  double l_sdeg_h = 0.6e-9;  ///< source degeneration inductor [H]
  double c_in_f = 22e-12;    ///< input DC block [F]
  double r_fb_ohm = 3000.0;  ///< drain-gate shunt feedback resistor [ohm]

  static constexpr std::size_t kDimension = 12;

  std::vector<double> to_vector() const;
  static DesignVector from_vector(const std::vector<double>& x);

  /// Physical search box for the optimizer.
  static optimize::Bounds bounds();

  /// Human-readable element names, matching to_vector() order.
  static const std::vector<std::string>& names();
};

/// Fixed board/bias context the optimizer does not touch.
struct AmplifierConfig {
  microstrip::Substrate substrate = microstrip::Substrate::fr4();
  double vdd = 5.0;               ///< supply rail [V]
  double w50_m = 0.0;             ///< 50-ohm trace width; 0 -> synthesized
  double w_bias_m = 0.2e-3;       ///< high-impedance bias trace width [m]
  double l_bias_m = 28e-3;        ///< bias line length (~quarter wave) [m]
  double c_dec_f = 1e-9;          ///< bias decoupling capacitor [F]
  double c_gate_dec_f = 100e-12;  ///< gate-return decoupling capacitor [F]
  double r_gate_bias = 3300.0;    ///< gate divider Thevenin resistance [ohm]
  passives::Package package = passives::Package::k0402;
  bool dispersive_passives = true;  ///< false -> ideal L/C (ablation A1)
  bool model_tee = true;            ///< include T-splitter parasitics
  double t_ambient_k = 290.0;       ///< physical temperature of the board;
                                    ///< passive thermal noise and the device
                                    ///< noise temperatures scale with it

  /// Resolves w50_m / l_bias_m if unset (synthesized at band centre).
  void resolve();
};

/// Derived DC bias network for a chosen operating point.
struct BiasNetwork {
  double r_drain = 0.0;  ///< series drain resistor from Vdd [ohm]
  double id_a = 0.0;     ///< drain current at the operating point [A]
  double vg_bias = 0.0;  ///< required gate bias voltage [V]
};

/// Sizes the drain resistor and reports the bias for (vgs, vds) at vdd.
/// Throws std::domain_error when the point is not reachable (Id too small
/// or vds > vdd).
BiasNetwork design_bias(const device::Phemt& device, const DesignVector& d,
                        const AmplifierConfig& config);

}  // namespace gnsslna::amplifier
