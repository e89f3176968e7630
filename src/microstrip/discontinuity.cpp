#include "microstrip/discontinuity.h"

#include <numbers>
#include <stdexcept>

namespace gnsslna::microstrip {

namespace {
constexpr double kMu0 = 4e-7 * std::numbers::pi;
constexpr double kEps0 = 8.8541878128e-12;
}  // namespace

TeeJunction::TeeJunction(const Substrate& substrate, double w_main_m,
                         double w_branch_m) {
  substrate.validate();
  if (w_main_m <= 0.0 || w_branch_m <= 0.0) {
    throw std::invalid_argument("TeeJunction: widths must be positive");
  }
  // Excess junction capacitance: parallel-plate capacitance of the overlap
  // patch (w_main x w_branch over h) times an empirical 0.4 fringing
  // factor — lands on the published few-tens-of-fF for 50-ohm lines on
  // 0.8 mm FR4.
  c_junction_f_ = 0.4 * kEps0 * substrate.epsilon_r * w_main_m * w_branch_m /
                  substrate.height_m;
  // Current-crowding series inductance per arm, proportional to substrate
  // height; the branch arm sees roughly double the main-arm crowding.
  l_main_h_ = 0.10 * kMu0 * substrate.height_m;
  l_branch_h_ = 0.20 * kMu0 * substrate.height_m;
}

}  // namespace gnsslna::microstrip
