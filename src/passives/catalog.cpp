#include "passives/catalog.h"

#include <cmath>
#include <stdexcept>

namespace gnsslna::passives {

namespace {
struct PackageScale {
  double esl_h;        // capacitor series inductance
  double cpar_f;       // inductor winding capacitance
  double r_metal_1ghz; // capacitor electrode loss at 1 GHz
};

PackageScale scale_of(Package p) {
  switch (p) {
    case Package::k0402:
      return {0.45e-9, 0.12e-12, 0.06};
    case Package::k0603:
      return {0.60e-9, 0.18e-12, 0.08};
    case Package::k0805:
      return {0.85e-9, 0.25e-12, 0.10};
  }
  throw std::invalid_argument("catalog: unknown package");
}

void require_range(double v, double lo, double hi, const char* who) {
  if (!(v >= lo && v <= hi)) {
    throw std::invalid_argument(std::string(who) + ": value out of catalog range");
  }
}
}  // namespace

Capacitor make_capacitor(double capacitance_f, Package package,
                         CapDielectric dielectric) {
  require_range(capacitance_f, 0.1e-12, 1e-6, "make_capacitor");
  const PackageScale s = scale_of(package);
  Capacitor::Params p;
  p.capacitance_f = capacitance_f;
  p.esl_h = s.esl_h;
  p.tan_delta = dielectric == CapDielectric::kC0G ? 2e-4 : 2.5e-2;
  p.r_metal_1ghz = s.r_metal_1ghz;
  return Capacitor(p);
}

Inductor make_inductor(double inductance_h, Package package) {
  require_range(inductance_h, 0.1e-9, 10e-6, "make_inductor");
  const PackageScale s = scale_of(package);
  Inductor::Params p;
  p.inductance_h = inductance_h;
  // Wirewound chip inductors: more turns for more L means more DC R and
  // more winding capacitance.  Empirical scalings anchored at 10 nH 0402
  // parts (Rdc ~ 0.1 ohm, Q ~ 50 at 1 GHz, SRF ~ 6 GHz).
  const double l_nh = inductance_h / 1e-9;
  p.r_dc = 0.05 * std::sqrt(l_nh);
  p.r_skin_1ghz = 0.30 * std::sqrt(l_nh);
  p.c_parallel_f = s.cpar_f * (0.6 + 0.08 * std::sqrt(l_nh));
  return Inductor(p);
}

}  // namespace gnsslna::passives
