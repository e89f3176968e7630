// Stamping a noisy active two-port (e.g. a linearized FET) into a Netlist.
//
// The four IEEE noise parameters are converted to the admittance-
// representation noise correlation matrix via the chain representation
// (Hillbrand-Russer 1976):
//
//   CA = 4 k T0 [ Rn                      (Fmin-1)/2 - Rn conj(Yopt) ]
//               [ (Fmin-1)/2 - Rn Yopt    Rn |Yopt|^2               ]
//
//   CY = T CA T^H,   T = [ -y11  1 ]
//                        [ -y21  0 ]
//
// (one-sided PSDs throughout, matching the 4kTG resistor convention used
// by Netlist::add_resistor).  The resulting correlated current pair is
// injected from the two live terminals to the common terminal.
#pragma once

#include <functional>

#include "circuit/netlist.h"
#include "rf/noise.h"

namespace gnsslna::circuit {

using NoiseParamsFn = std::function<rf::NoiseParams(double)>;

/// Admittance-representation noise correlation matrix (2x2, one-sided,
/// [A^2/Hz]) of a two-port with the given Y-parameters and noise
/// parameters: the one-lane call of noise_correlation_y_lanes.
numeric::ComplexMatrix noise_correlation_y(const rf::YParams& y,
                                           const rf::NoiseParams& np);

/// Lane kernel of noise_correlation_y: the 2x2 CY of each of the first
/// `lanes` lanes of the term rows `y` and noise rows `np` into the order-2
/// CSD rows `csd`.  Per lane it replays the scalar route term by term
/// (Gamma_opt -> Z_opt -> Y_opt through rf::z_from_gamma's operations,
/// then T CA T^H as Matrix::operator* forms it, including its skip of
/// exactly-zero left factors).  The CSD rows must not overlap the input
/// rows.  Throws as noise_correlation_y does (invalid noise parameters,
/// |Gamma_opt| = 1), before writing anything.
void noise_correlation_y_lanes(const rf::YTermRows& y, const rf::NoiseRows& np,
                               std::size_t lanes, const CsdRows& csd);

/// Stamps a three-terminal noisy two-port: the Y-block (common-terminal
/// grounded convention) plus its correlated noise current pair.  Returns
/// handles to the stamped element and its noise group (the indices of
/// their tables in a BatchedPlan compiled from the netlist).
ElementRef add_noisy_three_terminal(Netlist& netlist, NodeId t1, NodeId t2,
                                    NodeId common, YBlockFn y, NoiseParamsFn np,
                                    std::string label = {});

/// Stamps a PASSIVE two-port at uniform physical temperature: the Y-block
/// plus its thermal noise per Twiss' theorem, CY = 2 k T (Y + Y^H)
/// (one-sided; reduces to 4kTG for a plain resistor).  Used for lossy
/// transmission lines and matching sections.  Returns handles as above
/// (noise_group == kNoNoiseGroup when temperature_k <= 0).
ElementRef add_passive_twoport(Netlist& netlist, NodeId t1, NodeId t2,
                               NodeId common, YBlockFn y,
                               double temperature_k = rf::kT0,
                               std::string label = {});

/// Builds the Twiss thermal CSD function, CY(f) = 2 k T (Y(f) + Y(f)^H)
/// with tiny negative diagonal round-off clamped (one-sided convention):
/// twiss_csd of y(f).
std::function<numeric::ComplexMatrix(double)> passive_twoport_csd(
    YBlockFn y, double temperature_k);

/// The Twiss CSD of one Y-block at temperature_k: the one-lane call of
/// passive_twoport_csd_lanes.  The per-call noise analysis applies it to
/// the Y-block its assembly evaluated.
numeric::ComplexMatrix twiss_csd(const rf::YParams& y, double temperature_k);

/// Lane kernel of the passive_twoport_csd closure (which is its one-lane
/// call): the 2x2 Twiss CSD 2kT (Y + Y^H) of each of the first `lanes`
/// lanes of the term rows `y` into the order-2 CSD rows `csd` (which must
/// not overlap them), with tiny negative diagonal round-off clamped.
void passive_twoport_csd_lanes(const rf::YTermRows& y, std::size_t lanes,
                               double temperature_k, const CsdRows& csd);

}  // namespace gnsslna::circuit
