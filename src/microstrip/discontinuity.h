// Microstrip T-junction.
//
// The T splitter is singled out in the paper's abstract: the bias network
// taps the RF path through a microstrip tee whose parasitics matter at
// L-band.
//
// Modelling notes.  The tee is a behavioural reproduction of the
// Hammerstad (1981) junction model: a shunt junction capacitance at the
// centre node plus one series inductance per arm, with values derived from
// the local line geometry (parallel-plate capacitance of the overlap patch
// with an empirical fringing factor; current-crowding inductance
// proportional to substrate height).  Parameter values are anchored to
// published junction parasitics for 50-ohm lines on ~0.8 mm substrates
// (tens of fF, ~0.1 nH per arm) — see DESIGN.md, "Substitutions".
#pragma once

#include "microstrip/substrate.h"

namespace gnsslna::microstrip {

/// Symmetric microstrip T-junction between a through line of width w_main
/// and a branch of width w_branch.
class TeeJunction {
 public:
  TeeJunction(const Substrate& substrate, double w_main_m, double w_branch_m);

  /// Shunt capacitance to ground at the junction node [F].
  double junction_capacitance() const { return c_junction_f_; }

  /// Series inductance of each through-line arm [H].
  double arm_inductance_main() const { return l_main_h_; }

  /// Series inductance of the branch arm [H].
  double arm_inductance_branch() const { return l_branch_h_; }

 private:
  double c_junction_f_ = 0.0;
  double l_main_h_ = 0.0;
  double l_branch_h_ = 0.0;
};

}  // namespace gnsslna::microstrip
