// Frequency grids and swept two-port data.
#pragma once

#include <vector>

#include "rf/noise.h"
#include "rf/twoport.h"

namespace gnsslna::rf {

/// The combined multi-constellation GNSS band the paper targets: all
/// principal systems (GPS, GLONASS, Galileo, Compass/BeiDou) fall roughly
/// between 1.1 and 1.7 GHz (GPS L5/L2/L1, GLONASS G1/G2, Galileo E5/E1,
/// BeiDou B1/B2).
inline constexpr double kGnssBandLowHz = 1.1e9;
inline constexpr double kGnssBandHighHz = 1.7e9;

/// Centres of the principal GNSS carriers inside the band [Hz].
inline constexpr double kGpsL1Hz = 1575.42e6;
inline constexpr double kGpsL2Hz = 1227.60e6;
inline constexpr double kGpsL5Hz = 1176.45e6;
inline constexpr double kGlonassG1Hz = 1602.0e6;
inline constexpr double kGalileoE1Hz = 1575.42e6;
inline constexpr double kBeidouB1Hz = 1561.098e6;

/// n points linearly spaced over [lo, hi] inclusive (n >= 2), or {lo} if n==1.
std::vector<double> linear_grid(double lo, double hi, std::size_t n);

/// A swept S-parameter record (one SParams per frequency, ascending).
using SweepData = std::vector<SParams>;

/// A swept noise-parameter record.
using NoiseSweep = std::vector<NoiseParams>;

/// Group delay tau_g = -d(arg S21)/d(omega) [s] at each sweep point
/// (central differences, one-sided at the ends, phase unwrapped).
/// GNSS receivers care: group-delay ripple across the band converts
/// directly into pseudorange bias.
std::vector<double> group_delay(const SweepData& sweep);

/// Peak-to-peak group-delay ripple [s] over the sweep.
double group_delay_ripple(const SweepData& sweep);

}  // namespace gnsslna::rf
