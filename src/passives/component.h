// Frequency-dispersive lumped passive components.
//
// Part 3 of the paper's method: "the equations of passive elements of the
// circuit ... were carefully defined using frequency dispersion of their
// parameters as Q, ESR, etc."  Real chip capacitors and inductors are far
// from ideal at 1.1-1.7 GHz; each model below is the standard parasitic
// equivalent circuit with frequency-dependent loss:
//
//   Capacitor: ESL -- ESR(f) -- C      (series), ESR from a fixed dielectric
//              loss tangent plus sqrt(f) electrode (skin) loss
//   Inductor:  [ Rs(f) -- L ] || Cp    with Rs = Rdc + k sqrt(f) skin loss
//
// Every model exposes impedance(f), quality factor Q(f), ESR(f), and its
// self-resonant frequency where applicable.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <string>

namespace gnsslna::passives {

using Complex = std::complex<double>;

/// Interface: a one-port lumped element with frequency-dependent impedance.
class Component {
 public:
  virtual ~Component() = default;

  /// Complex impedance at frequency f [Hz], f > 0.
  virtual Complex impedance(double frequency_hz) const = 0;

  /// Quality factor |Im z| / Re z at frequency f.
  double q_factor(double frequency_hz) const;

  /// Equivalent series resistance Re z at frequency f.
  double esr(double frequency_hz) const;

  /// Human-readable designation ("100 pF C0G 0402", ...).
  virtual std::string name() const = 0;
};

/// Chip capacitor with ESL, dielectric loss (tan delta), and electrode
/// metal loss growing as sqrt(f).
class Capacitor final : public Component {
 public:
  struct Params {
    double capacitance_f = 0.0;   ///< nominal C [F], > 0
    double esl_h = 0.6e-9;        ///< series parasitic inductance [H]
    double tan_delta = 1e-3;      ///< dielectric loss tangent (C0G ~ 1e-4..1e-3)
    double r_metal_1ghz = 0.08;   ///< electrode resistance at 1 GHz [ohm]
  };

  explicit Capacitor(Params p);
  /// Ideal-ish shortcut used in tests and the dispersion ablation.
  static Capacitor ideal(double capacitance_f);

  /// The one-lane call of the lane kernel below.
  Complex impedance(double frequency_hz) const override;
  /// Lane kernel of impedance(f): z at every lane of frequency_hz into
  /// (re, im).  Throws std::invalid_argument, before writing anything,
  /// when a frequency is <= 0.
  void impedance(std::span<const double> frequency_hz, double* re,
                 double* im) const;
  std::string name() const override;

  /// Series self-resonant frequency 1 / (2 pi sqrt(ESL C)) [Hz].
  double self_resonance_hz() const;

  double capacitance() const { return p_.capacitance_f; }
  const Params& params() const { return p_; }

 private:
  Params p_;
};

/// Chip inductor: series Rs(f) + L, all in parallel with a winding
/// capacitance Cp that sets the (parallel) self-resonance.
class Inductor final : public Component {
 public:
  struct Params {
    double inductance_h = 0.0;   ///< nominal L [H], > 0
    double r_dc = 0.1;           ///< DC winding resistance [ohm]
    double r_skin_1ghz = 0.5;    ///< additional skin-effect R at 1 GHz [ohm]
    double c_parallel_f = 0.15e-12;  ///< winding capacitance [F]
  };

  explicit Inductor(Params p);
  static Inductor ideal(double inductance_h);

  /// The one-lane call of the lane kernel below.
  Complex impedance(double frequency_hz) const override;
  /// Lane kernel of impedance(f), as Capacitor's.
  void impedance(std::span<const double> frequency_hz, double* re,
                 double* im) const;
  std::string name() const override;

  /// Parallel self-resonant frequency 1 / (2 pi sqrt(L Cp)) [Hz].
  double self_resonance_hz() const;

  double inductance() const { return p_.inductance_h; }
  const Params& params() const { return p_; }

 private:
  Params p_;
};

}  // namespace gnsslna::passives
