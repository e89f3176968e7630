// Two-port noise parameters and noise-figure arithmetic.
//
// The four-parameter noise model (Fmin, Rn, Gamma_opt) with its standard
// source-pull formula and Lane's fit of it from source-pull points, plus the
// noise temperature and passive-loss noise factor used by cascade budgets.
#pragma once

#include <vector>

#include "rf/twoport.h"

namespace gnsslna::rf {

/// IEEE two-port noise parameters at one frequency.
struct NoiseParams {
  double frequency_hz = 0.0;
  double f_min = 1.0;   ///< minimum noise factor (linear, >= 1)
  double r_n = 0.0;     ///< equivalent noise resistance [ohm]
  Complex gamma_opt;    ///< optimum source reflection coefficient
  double z0 = kZ0;      ///< reference impedance of gamma_opt

  /// Minimum noise figure in dB.
  double nf_min_db() const;
};

/// Lane-major noise parameters (lane k is one frequency; one z0 for all
/// lanes): what the device noise lane kernel writes and the noise
/// correlation lane kernel reads.
struct NoiseRows {
  double* f_min = nullptr;
  double* r_n = nullptr;
  double* gamma_re = nullptr;  ///< Re gamma_opt
  double* gamma_im = nullptr;  ///< Im gamma_opt
  double z0 = kZ0;
};

/// Noise factor (linear) when the two-port is driven from source reflection
/// coefficient gamma_s:  F = Fmin + 4 (Rn/z0) |Gs-Gopt|^2 /
/// ((1-|Gs|^2)|1+Gopt|^2).
double noise_factor(const NoiseParams& np, Complex gamma_s);

/// Noise figure in dB for the same source.
double noise_figure_db(const NoiseParams& np, Complex gamma_s);

/// Equivalent noise temperature [K] of a noise factor.
double noise_temperature(double noise_factor, double t0 = kT0);

/// Noise factor of an attenuator/lossy passive with (linear, >=1) loss L at
/// physical temperature t_phys: F = 1 + (L - 1) * t_phys / T0.
double passive_noise_factor(double loss_linear, double t_phys = kT0);

/// One source-pull measurement point.
struct SourcePullPoint {
  Complex gamma_s;        ///< source reflection coefficient (|.| < 1)
  double noise_factor = 1.0;  ///< measured linear F at that source
};

/// Fits the four IEEE noise parameters from >= 4 source-pull points via
/// Lane's linearized least squares:
///   F Gs = A Gs + B + C Bs + D (Gs^2 + Bs^2)
/// with Ys = Gs + jBs the source admittance.  Throws std::invalid_argument
/// on fewer than 4 points or degenerate source sets, std::domain_error
/// when the fit lands on a non-physical parameter set (Fmin < 1, Rn <= 0).
NoiseParams fit_noise_parameters(const std::vector<SourcePullPoint>& points,
                                 double frequency_hz, double z0 = kZ0);

}  // namespace gnsslna::rf
