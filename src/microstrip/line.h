// Microstrip transmission-line model with frequency dispersion and loss.
//
// Quasi-static effective permittivity and characteristic impedance follow
// Hammerstad-Jensen (1980) including the conductor-thickness correction;
// frequency dispersion of eps_eff follows Kirschning-Jansen (1982); Z0
// dispersion uses the Edwards/Owens relation tied to eps_eff(f).  Losses:
// conductor loss from surface resistance with the Hammerstad roughness
// correction, dielectric loss from the standard mixed-media formula.
//
// This is exactly the kind of "carefully defined equations of passive
// elements including transmission lines" (part 3 of the paper's abstract)
// the optimizer must see: a 50-ohm line on FR4 at 1.6 GHz is measurably
// dispersive and lossy.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "microstrip/substrate.h"
#include "rf/twoport.h"

namespace gnsslna::microstrip {

/// A microstrip line of physical width and length on a given substrate.
class Line {
 public:
  /// Per-unit-length propagation data at one frequency.  Depends only on
  /// (substrate, width, frequency) — NOT on length — so a table of these
  /// can be shared by all lines of one width while an optimizer varies
  /// their lengths.  alpha_np_m is alpha_conductor() + alpha_dielectric()
  /// and z0_ohm is exactly what z0() returns.
  struct Propagation {
    double frequency_hz = 0.0;
    double alpha_np_m = 0.0;  ///< total attenuation [Np/m]
    double beta_rad_m = 0.0;  ///< phase constant [rad/m]
    double z0_ohm = 0.0;      ///< dispersive characteristic impedance [ohm]
  };

  /// Constructs a line; width and length in metres, both > 0.  Computes
  /// the quasi-static Hammerstad-Jensen constants of its width.
  Line(const Substrate& substrate, double width_m, double length_m);

  /// Quasi-static (f -> 0) effective permittivity (Hammerstad-Jensen).
  double epsilon_eff_static() const { return eeff0_; }

  /// Quasi-static characteristic impedance [ohm].
  double z0_static() const { return z0_static_; }

  // The frequency-dependent quantities below are one-lane calls of the
  // Kirschning-Jansen lane kernel that tabulate() runs (DESIGN.md
  // "Tabulation arithmetic"), so each returns the bits of lane k of a
  // table at grid frequency k.  Each throws std::invalid_argument for
  // f <= 0.

  /// Dispersive effective permittivity at f (Kirschning-Jansen).
  double epsilon_eff(double frequency_hz) const;

  /// Dispersive characteristic impedance at f [ohm].
  double z0(double frequency_hz) const;

  /// Conductor attenuation [Np/m] at f (with roughness correction).
  double alpha_conductor(double frequency_hz) const;

  /// Dielectric attenuation [Np/m] at f.
  double alpha_dielectric(double frequency_hz) const;

  /// Propagation data over a grid in structure-of-arrays layout, the rows
  /// the lane kernel y_lanes reads: lane k is grid frequency k.
  struct PropagationRows {
    std::vector<double> alpha_np_m, beta_rad_m, z0_ohm;
  };

  /// All per-unit-length propagation quantities at f from one evaluation
  /// of the dispersion curve (bit-identical to the accessors above).
  Propagation propagation(double frequency_hz) const;

  /// propagation(f) at every frequency of `grid_hz` into `rows` (resized
  /// to the grid: no allocation once sized).  The one-width call of the
  /// multi-width tabulate below.
  void tabulate(std::span<const double> grid_hz, PropagationRows& rows) const;

  /// The dispersion rows of lines of several widths on `board` from one
  /// pass of the lane kernel: the factors that depend only on the board
  /// and the frequency (Kirschning-Jansen's f h terms, the surface
  /// resistance and roughness, the eps_r-only constants) are computed
  /// once, then each width's rows into rows[i] (each resized to the
  /// grid).  rows[i] holds exactly what
  /// Line(board, widths_m[i], l).tabulate() would for any length l.
  /// Throws std::invalid_argument, before writing any row, for an invalid
  /// board, a width or grid frequency <= 0, or a size mismatch.
  static void tabulate(const Substrate& board, std::span<const double> widths_m,
                       std::span<const double> grid_hz,
                       std::span<PropagationRows> rows);

  /// Y-parameters of a line of `length_m` from propagation data, in
  /// closed form: Y11 = Y22 = coth(gamma l) / Z0 and
  /// Y12 = Y21 = -csch(gamma l) / Z0 (DESIGN.md "Tabulation arithmetic").
  /// The one-lane call of y_lanes.  Reads nothing but its arguments, so a
  /// table of Propagation rows serves every length of one (substrate,
  /// width) without building a Line per length.  Throws std::domain_error
  /// when B = Z0 sinh(gamma l) is zero (|B| < 1e-300): such a line has no
  /// Y representation.
  static rf::YParams y_from(const Propagation& p, double length_m);

  /// Lane kernel of y_from: the Y-block of a line of `length_m` at every
  /// lane of `rows` (alpha, beta and z0 of equal length), written as the
  /// nine term rows of `out`.  A lane with 0 <= alpha l < ln2/2,
  /// |beta l| < 1e5, |sinh(gamma l)|^2 > 1e-200 and finite z0 takes
  /// numeric::expm1 / numeric::sincos and csch = conj(sinh) / |sinh|^2;
  /// every other lane takes the glibc route (std::expm1 and std::sin /
  /// std::cos below alpha l = 709, std::cosh / std::sinh beyond) and the
  /// B = 0 check, for that lane alone.
  static void y_lanes(std::span<const double> alpha_np_m,
                      std::span<const double> beta_rad_m,
                      std::span<const double> z0_ohm, double length_m,
                      const rf::YTermRows& out);

  /// S-parameters at f referenced to z0_ref (from the Y-block).
  rf::SParams s_params(double frequency_hz, double z0_ref = rf::kZ0) const;

  double width() const { return width_m_; }
  double length() const { return length_m_; }
  const Substrate& substrate() const { return substrate_; }

 private:
  friend double synthesize_width(const Substrate&, double, double);

  struct BoardConstants;  // eps_r-only factors of the constants (line.cpp)
  struct BoardLanes;      // board part of one lane block (line.cpp)
  struct WidthLanes;      // one width's rows over one lane block (line.cpp)

  /// Validates the substrate and computes its BoardConstants.
  static BoardConstants board_constants(const Substrate& substrate);
  /// The constructor's width constants from shared BoardConstants (the
  /// substrate is already validated).
  Line(const Substrate& substrate, double width_m, double length_m,
       const BoardConstants& board);

  /// The board part of the kernel over lanes [0, n) of `f` (n <=
  /// numeric::kLaneBlock, every f > 0).
  static void board_lanes(const Substrate& substrate, const double* f,
                          std::size_t n, BoardLanes& board);
  /// The width part: this line's rows over the lanes of `board`.
  void width_lanes(const BoardLanes& board, std::size_t n,
                   WidthLanes& out) const;
  /// Both parts for the one lane at f (throws for f <= 0).
  void one_lane(double frequency_hz, WidthLanes& out) const;

  Substrate substrate_;
  double width_m_;
  double length_m_;
  double u_eff_;      // thickness-corrected w/h
  double eeff0_;      // static effective permittivity
  double z0_static_;  // static characteristic impedance
  // Frequency-independent Kirschning-Jansen factors of epsilon_eff(f).
  double kj_p1_exp_;  // 0.065683 * exp(-8.7513 u)
  double kj_p2_;      // P2
  double kj_p3_exp_;  // 0.0363 * exp(-4.6 u)
  double kj_p4_;      // P4
};

/// Finds the width giving characteristic impedance z0_target at the given
/// frequency (bisection on the analysis model).  Throws std::domain_error
/// if the target is outside the realizable range for the substrate.
double synthesize_width(const Substrate& substrate, double z0_target,
                        double frequency_hz);

/// Physical length of a line with electrical length theta_rad at f.
double length_for_electrical(const Substrate& substrate, double width_m,
                             double theta_rad, double frequency_hz);

}  // namespace gnsslna::microstrip
