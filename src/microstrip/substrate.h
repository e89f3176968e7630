// PCB substrate description and presets.
#pragma once

#include <stdexcept>

namespace gnsslna::microstrip {

/// Laminate + copper stack the microstrip models are evaluated on.
struct Substrate {
  double epsilon_r = 4.4;       ///< relative permittivity
  double height_m = 0.8e-3;     ///< dielectric thickness h [m]
  double copper_thickness_m = 35e-6;  ///< conductor thickness t [m]
  double tan_delta = 0.02;      ///< dielectric loss tangent
  double resistivity_ohm_m = 1.72e-8;  ///< conductor bulk resistivity (Cu)
  double roughness_rms_m = 1.5e-6;     ///< copper surface roughness (RMS)

  bool operator==(const Substrate&) const = default;

  void validate() const {
    if (epsilon_r < 1.0) {
      throw std::invalid_argument("Substrate: epsilon_r must be >= 1");
    }
    if (height_m <= 0.0 || copper_thickness_m < 0.0 || tan_delta < 0.0 ||
        resistivity_ohm_m <= 0.0 || roughness_rms_m < 0.0) {
      throw std::invalid_argument("Substrate: non-physical parameter");
    }
  }

  /// Standard 0.8 mm FR-4 (cheap GNSS front-end material).
  static Substrate fr4() {
    return {.epsilon_r = 4.4,
            .height_m = 0.8e-3,
            .copper_thickness_m = 35e-6,
            .tan_delta = 0.02,
            .resistivity_ohm_m = 1.72e-8,
            .roughness_rms_m = 1.5e-6};
  }

  /// Rogers RO4350B 0.508 mm — the low-loss option for the same layout.
  static Substrate ro4350b() {
    return {.epsilon_r = 3.48,
            .height_m = 0.508e-3,
            .copper_thickness_m = 35e-6,
            .tan_delta = 0.0037,
            .resistivity_ohm_m = 1.72e-8,
            .roughness_rms_m = 0.5e-6};
  }
};

}  // namespace gnsslna::microstrip
