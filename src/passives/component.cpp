#include "passives/component.h"

#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "numeric/lanes.h"

namespace gnsslna::passives {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

double require_positive(double v, const char* who) {
  if (v <= 0.0) {
    throw std::invalid_argument(std::string(who) + ": value must be positive");
  }
  return v;
}

void require_positive_lanes(std::span<const double> frequency_hz) {
  for (const double f : frequency_hz) {
    require_positive(f, "Component frequency");
  }
}

// The lane kernels: per lane exactly the scalar model's operations, with
// the complex reciprocals as numeric::smith_div (the division GCC inlines
// for 1.0 / z under -fcx-fortran-rules), so every lane equals the scalar
// form bit for bit.

GNSSLNA_LANE_CLONES
void capacitor_lanes(const Capacitor::Params& p, const double* frequency_hz,
                     std::size_t lanes, double* re, double* im) {
  for (std::size_t k = 0; k < lanes; ++k) {
    const double f = frequency_hz[k];
    const double w = kTwoPi * f;
    // ESR = dielectric term (tan_delta / (w C)) + electrode skin term.
    const double esr_dielectric = p.tan_delta / (w * p.capacitance_f);
    const double esr_metal = p.r_metal_1ghz * std::sqrt(f / 1e9);
    re[k] = esr_dielectric + esr_metal;
    im[k] = w * p.esl_h - 1.0 / (w * p.capacitance_f);
  }
}

GNSSLNA_LANE_CLONES
void inductor_lanes(const Inductor::Params& p, const double* frequency_hz,
                    std::size_t lanes, double* re, double* im) {
  // Series branch rs + j w L; with a winding capacitance the part is
  // 1 / (1 / branch + j w Cp).
  const Inductor::Params q = p;  // a local copy: stores cannot alias it
  const bool parallel_c = q.c_parallel_f > 0.0;
  for (std::size_t k = 0; k < lanes; ++k) {
    const double f = frequency_hz[k];
    const double w = kTwoPi * f;
    const double rs = q.r_dc + q.r_skin_1ghz * std::sqrt(f / 1e9);
    const double xl = w * q.inductance_h;
    double yr, yi, zr, zi;
    numeric::smith_div(1.0, 0.0, rs, xl, yr, yi);
    numeric::smith_div(1.0, 0.0, yr, yi + w * q.c_parallel_f, zr, zi);
    re[k] = numeric::lane_select(parallel_c, zr, rs);
    im[k] = numeric::lane_select(parallel_c, zi, xl);
  }
}

std::string engineering(double value, const char* unit) {
  struct Scale {
    double factor;
    const char* prefix;
  };
  static constexpr Scale kScales[] = {{1e-15, "f"}, {1e-12, "p"}, {1e-9, "n"},
                                      {1e-6, "u"},  {1e-3, "m"},  {1.0, ""},
                                      {1e3, "k"},   {1e6, "M"},   {1e9, "G"}};
  const Scale* best = &kScales[0];
  for (const Scale& s : kScales) {
    if (value >= s.factor) best = &s;
  }
  std::ostringstream oss;
  oss << value / best->factor << ' ' << best->prefix << unit;
  return oss.str();
}

}  // namespace

double Component::q_factor(double frequency_hz) const {
  const Complex z = impedance(frequency_hz);
  if (z.real() <= 0.0) {
    throw std::domain_error("Component::q_factor: non-positive ESR");
  }
  return std::abs(z.imag()) / z.real();
}

double Component::esr(double frequency_hz) const {
  return impedance(frequency_hz).real();
}

// ---------------------------------------------------------------------------
// Capacitor

Capacitor::Capacitor(Params p) : p_(p) {
  require_positive(p_.capacitance_f, "Capacitor capacitance");
  if (p_.esl_h < 0.0 || p_.tan_delta < 0.0 || p_.r_metal_1ghz < 0.0) {
    throw std::invalid_argument("Capacitor: parasitics must be non-negative");
  }
}

Capacitor Capacitor::ideal(double capacitance_f) {
  return Capacitor({.capacitance_f = capacitance_f,
                    .esl_h = 0.0,
                    .tan_delta = 0.0,
                    .r_metal_1ghz = 0.0});
}

Complex Capacitor::impedance(double frequency_hz) const {
  double re, im;
  impedance({&frequency_hz, 1}, &re, &im);
  return {re, im};
}

void Capacitor::impedance(std::span<const double> frequency_hz, double* re,
                          double* im) const {
  require_positive_lanes(frequency_hz);
  capacitor_lanes(p_, frequency_hz.data(), frequency_hz.size(), re, im);
}

double Capacitor::self_resonance_hz() const {
  if (p_.esl_h <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / (kTwoPi * std::sqrt(p_.esl_h * p_.capacitance_f));
}

std::string Capacitor::name() const {
  return engineering(p_.capacitance_f, "F capacitor");
}

// ---------------------------------------------------------------------------
// Inductor

Inductor::Inductor(Params p) : p_(p) {
  require_positive(p_.inductance_h, "Inductor inductance");
  if (p_.r_dc < 0.0 || p_.r_skin_1ghz < 0.0 || p_.c_parallel_f < 0.0) {
    throw std::invalid_argument("Inductor: parasitics must be non-negative");
  }
}

Inductor Inductor::ideal(double inductance_h) {
  return Inductor({.inductance_h = inductance_h,
                   .r_dc = 0.0,
                   .r_skin_1ghz = 0.0,
                   .c_parallel_f = 0.0});
}

Complex Inductor::impedance(double frequency_hz) const {
  double re, im;
  impedance({&frequency_hz, 1}, &re, &im);
  return {re, im};
}

void Inductor::impedance(std::span<const double> frequency_hz, double* re,
                         double* im) const {
  require_positive_lanes(frequency_hz);
  inductor_lanes(p_, frequency_hz.data(), frequency_hz.size(), re, im);
}

double Inductor::self_resonance_hz() const {
  if (p_.c_parallel_f <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / (kTwoPi * std::sqrt(p_.inductance_h * p_.c_parallel_f));
}

std::string Inductor::name() const {
  return engineering(p_.inductance_h, "H inductor");
}

}  // namespace gnsslna::passives
