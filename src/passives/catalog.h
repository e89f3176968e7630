// A small vendor-style catalog of RF passive part families.
//
// Gives the design flow realistic parasitics as a function of nominal value
// and package size, so that "snap to a real part" is more than snapping the
// nominal value: the parasitic shell changes with the chosen part, and the
// snapped design must be re-verified with it.
#pragma once

#include "passives/component.h"

namespace gnsslna::passives {

/// SMD package sizes the catalog models.
enum class Package { k0402, k0603, k0805 };

/// Dielectric families for chip capacitors.
enum class CapDielectric { kC0G, kX7R };

/// Returns a chip capacitor of the requested nominal value with parasitics
/// typical of the package and dielectric (ESL grows with package size; X7R
/// has ~10x the loss tangent of C0G).  value must be in (0.1 pF, 1 uF).
Capacitor make_capacitor(double capacitance_f, Package package = Package::k0402,
                         CapDielectric dielectric = CapDielectric::kC0G);

/// Returns a chip inductor (wirewound-style for 0402/0603) with DC
/// resistance and skin loss scaled from the nominal inductance, winding
/// capacitance from the package.  value must be in (0.1 nH, 10 uH).
Inductor make_inductor(double inductance_h, Package package = Package::k0402);

}  // namespace gnsslna::passives
