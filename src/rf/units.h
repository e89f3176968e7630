// RF unit conversions and physical constants.
//
// Library-wide convention: SI units internally (Hz, ohm, watt, kelvin,
// metre); decibel quantities appear only at I/O boundaries through the
// helpers below.
#pragma once

#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>

namespace gnsslna::rf {

/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;

/// IEEE standard noise reference temperature [K].
inline constexpr double kT0 = 290.0;

/// Default system reference impedance [ohm].
inline constexpr double kZ0 = 50.0;

/// Speed of light in vacuum [m/s].
inline constexpr double kC0 = 299792458.0;

/// Power ratio -> decibels.  Requires ratio > 0.
inline double db_from_ratio(double ratio) {
  if (ratio <= 0.0) {
    throw std::invalid_argument("db_from_ratio: ratio must be positive");
  }
  return 10.0 * std::log10(ratio);
}

/// Decibels -> power ratio.
inline double ratio_from_db(double db) { return std::pow(10.0, db / 10.0); }

/// Voltage-wave magnitude -> decibels (20 log10 |x|).
inline double db_from_mag(double mag) {
  if (mag <= 0.0) {
    throw std::invalid_argument("db_from_mag: magnitude must be positive");
  }
  return 20.0 * std::log10(mag);
}

/// Decibels -> voltage-wave magnitude.
inline double mag_from_db(double db) { return std::pow(10.0, db / 20.0); }

/// Whether m2 = std::norm(z) (re^2 + im^2) is a normal double below 1e308.
/// There sqrt(m2) and 10 log10(m2) stay within a few ulp of the hypot()
/// forms (pinned in tests/test_twoport.cpp, bounds in DESIGN.md
/// "Tabulation arithmetic"); elsewhere (0, subnormal, |z| >= 1e154,
/// overflow, infinite or NaN) magnitude() and db20() use std::abs.
inline bool norm_is_accurate(double m2) {
  return m2 >= std::numeric_limits<double>::min() && m2 < 1e308;
}

/// |z| as sqrt(|z|^2), or std::abs(z) where norm_is_accurate fails.
inline double magnitude(const std::complex<double>& z) {
  const double m2 = std::norm(z);
  return norm_is_accurate(m2) ? std::sqrt(m2) : std::abs(z);
}

/// |S| in dB for a complex wave quantity, as 10 log10 |S|^2; returns
/// -infinity for exact zero.  Where norm_is_accurate fails it is exactly
/// 20 log10 std::abs(S).
inline double db20(const std::complex<double>& s) {
  const double m2 = std::norm(s);
  if (norm_is_accurate(m2)) return 10.0 * std::log10(m2);
  const double m = std::abs(s);
  return m > 0.0 ? 20.0 * std::log10(m) : -std::numeric_limits<double>::infinity();
}

/// Power in watt -> dBm.
inline double dbm_from_watt(double watt) {
  if (watt <= 0.0) {
    throw std::invalid_argument("dbm_from_watt: power must be positive");
  }
  return 10.0 * std::log10(watt / 1e-3);
}

/// dBm -> watt.
inline double watt_from_dbm(double dbm) {
  return 1e-3 * std::pow(10.0, dbm / 10.0);
}

/// Noise figure [dB] -> noise factor (linear).
inline double noise_factor_from_db(double nf_db) {
  return ratio_from_db(nf_db);
}

/// Noise factor (linear) -> noise figure [dB].
inline double noise_figure_db(double factor) { return db_from_ratio(factor); }

/// Phase of a complex value in degrees.
inline double phase_deg(const std::complex<double>& s) {
  return std::arg(s) * 180.0 / 3.14159265358979323846;
}

/// Complex value from (magnitude, phase-in-degrees).
inline std::complex<double> from_mag_deg(double mag, double deg) {
  const double rad = deg * 3.14159265358979323846 / 180.0;
  return {mag * std::cos(rad), mag * std::sin(rad)};
}

/// Reflection coefficient of impedance z against reference z0.
inline std::complex<double> gamma_from_z(std::complex<double> z,
                                         double z0 = kZ0) {
  return (z - z0) / (z + z0);
}

/// |z| < eps, deciding with hypot() (std::abs) only when both components
/// already lie below eps.  Same answer as std::abs(z) < eps for every
/// operand: |z| >= max(|re z|, |im z|), so a component at or above eps
/// settles it, and a NaN component makes both forms false.  The guards on
/// the element-tabulation path use it because their operands almost never
/// come near eps.
inline bool magnitude_below(const std::complex<double>& z, double eps) {
  return std::abs(z.real()) < eps && std::abs(z.imag()) < eps &&
         std::abs(z) < eps;
}

/// Impedance corresponding to reflection coefficient gamma (|gamma| != 1).
inline std::complex<double> z_from_gamma(std::complex<double> gamma,
                                         double z0 = kZ0) {
  const std::complex<double> den = 1.0 - gamma;
  if (magnitude_below(den, 1e-15)) {
    throw std::domain_error("z_from_gamma: |gamma| = 1 has no finite impedance");
  }
  return z0 * (1.0 + gamma) / den;
}

}  // namespace gnsslna::rf
