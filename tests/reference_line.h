// Reference microstrip dispersion model: the scalar formulas of
// microstrip::Line with glibc's pow, exp and atan.
//
// The library evaluates the same model in its Kirschning-Jansen lane
// kernel (src/microstrip/line.cpp), which forms each power x^y as
// exp(y log x) on numeric::log / numeric::exp and shares the board's
// factors between widths.  Every expression here has the kernel's
// association order, so the two differ only where the powers round
// differently; the tests hold each row to a written ulp bound against
// this reference (DESIGN.md "Tabulation arithmetic").
#pragma once

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "microstrip/substrate.h"
#include "rf/units.h"

namespace gnsslna::reference {

/// One line's quasi-static constants and its dispersive quantities at f.
class LineModel {
 public:
  LineModel(const microstrip::Substrate& substrate, double width_m)
      : s_(substrate), width_m_(width_m) {
    s_.validate();
    if (width_m <= 0.0) {
      throw std::invalid_argument("LineModel: width must be positive");
    }
    const double er = s_.epsilon_r;
    const double u = width_m / s_.height_m;
    const double t_over_h = s_.copper_thickness_m / s_.height_m;
    u_eff_ = u;
    if (t_over_h > 0.0) {
      const double coth = 1.0 / std::tanh(std::sqrt(6.517 * u));
      const double du1 =
          t_over_h / kPi *
          std::log(1.0 + 4.0 * std::exp(1.0) / (t_over_h * coth * coth));
      const double dur =
          0.5 * du1 * (1.0 + 1.0 / std::cosh(std::sqrt(er - 1.0)));
      u_eff_ = u + dur;
    }
    const double ue = u_eff_;
    const double a =
        1.0 +
        std::log((std::pow(ue, 4) + std::pow(ue / 52.0, 2)) /
                 (std::pow(ue, 4) + 0.432)) /
            49.0 +
        std::log(1.0 + std::pow(ue / 18.1, 3)) / 18.7;
    const double b = 0.564 * std::pow((er - 0.9) / (er + 3.0), 0.053);
    eeff0_ = (er + 1.0) / 2.0 +
             (er - 1.0) / 2.0 * std::pow(1.0 + 10.0 / ue, -a * b);
    const double f = 6.0 + (2.0 * kPi - 6.0) *
                               std::exp(-std::pow(30.666 / ue, 0.7528));
    const double z01 =
        kEta0 / (2.0 * kPi) *
        std::log(f / ue + std::sqrt(1.0 + (2.0 / ue) * (2.0 / ue)));
    z0_static_ = z01 / std::sqrt(eeff0_);
    p1_exp_ = 0.065683 * std::exp(-8.7513 * ue);
    p2_ = 0.33622 * (1.0 - std::exp(-0.03442 * er));
    p3_exp_ = 0.0363 * std::exp(-4.6 * ue);
    p4_ = 1.0 + 2.751 * (1.0 - std::exp(-std::pow(er / 15.916, 8)));
  }

  double epsilon_eff_static() const { return eeff0_; }
  double z0_static() const { return z0_static_; }

  /// Kirschning-Jansen eps_eff(f); fn = f h in GHz cm.
  double epsilon_eff(double frequency_hz) const {
    const double er = s_.epsilon_r;
    const double fn = frequency_hz / 1e9 * s_.height_m * 100.0;
    const double p1 =
        0.27488 + (0.6315 + 0.525 / std::pow(1.0 + 0.157 * fn, 20)) * u_eff_ -
        p1_exp_;
    const double p3 = p3_exp_ * (1.0 - std::exp(-std::pow(fn / 3.87, 4.97)));
    const double p = p1 * p2_ * std::pow((0.1844 + p3 * p4_) * fn, 1.5763);
    return er - (er - eeff0_) / (1.0 + p);
  }

  /// Edwards/Owens Z0(f) from eps_eff(f).
  double z0(double frequency_hz) const {
    const double ef = epsilon_eff(frequency_hz);
    return z0_static_ * (ef - 1.0) / (eeff0_ - 1.0) * std::sqrt(eeff0_ / ef);
  }

  /// Rs / (Z0 w) with the Hammerstad roughness correction.
  double alpha_conductor(double frequency_hz) const {
    const double rs =
        std::sqrt(kPi * frequency_hz * kMu0 * s_.resistivity_ohm_m);
    const double skin_depth =
        std::sqrt(s_.resistivity_ohm_m / (kPi * frequency_hz * kMu0));
    const double rough =
        1.0 + 2.0 / kPi *
                  std::atan(1.4 * std::pow(s_.roughness_rms_m / skin_depth, 2));
    return rs * rough / (z0(frequency_hz) * width_m_);
  }

  /// Mixed-media dielectric loss [Np/m].
  double alpha_dielectric(double frequency_hz) const {
    const double er = s_.epsilon_r;
    const double ef = epsilon_eff(frequency_hz);
    const double lambda0 = rf::kC0 / frequency_hz;
    const double alpha_db_per_m = 27.3 * (er / (er - 1.0)) *
                                  ((ef - 1.0) / std::sqrt(ef)) *
                                  s_.tan_delta / lambda0;
    return alpha_db_per_m / 8.685889638;
  }

  double beta(double frequency_hz) const {
    return 2.0 * kPi * frequency_hz * std::sqrt(epsilon_eff(frequency_hz)) /
           rf::kC0;
  }

 private:
  static constexpr double kPi = std::numbers::pi;
  static constexpr double kEta0 = 376.730313668;
  static constexpr double kMu0 = 4e-7 * kPi;

  microstrip::Substrate s_;
  double width_m_;
  double u_eff_;
  double eeff0_;
  double z0_static_;
  double p1_exp_, p2_, p3_exp_, p4_;
};

}  // namespace gnsslna::reference
