// Gain and stability figures of merit for two-port networks.
//
// The textbook quantities (Gonzalez, "Microwave Transistor Amplifiers")
// behind the amplifier's stability constraint (Edwards-Sinsky mu) and the
// available gain of a two-port driven from an arbitrary source.
#pragma once

#include "rf/twoport.h"

namespace gnsslna::rf {

/// Edwards-Sinsky single-parameter stability measure mu (source side).
/// mu > 1 iff the two-port is unconditionally stable.
double mu_source(const SParams& s);

/// Edwards-Sinsky stability measure mu' (load side).
double mu_load(const SParams& s);

/// Output reflection coefficient seen with source reflection gamma_s.
Complex gamma_out(const SParams& s, Complex gamma_s);

/// Available power gain G_A(gamma_s) = P_available,out / P_available,src.
double available_gain(const SParams& s, Complex gamma_s);

}  // namespace gnsslna::rf
