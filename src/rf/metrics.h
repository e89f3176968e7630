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

/// mu_source and mu_load of lanes [0, lanes) of `s` into mu_src[k] and
/// mu_ld[k]: per lane the operations of the two scalar functions, in
/// their order, in one vectorized pass; a lane where one of their
/// magnitudes' |z|^2 falls outside norm_is_accurate takes the scalar
/// functions.  Bit-identical to calling them lane by lane.
void mu_lanes(const SRows& s, std::size_t lanes, double* mu_src,
              double* mu_ld);

/// Output reflection coefficient seen with source reflection gamma_s.
Complex gamma_out(const SParams& s, Complex gamma_s);

/// Available power gain G_A(gamma_s) = P_available,out / P_available,src.
double available_gain(const SParams& s, Complex gamma_s);

}  // namespace gnsslna::rf
