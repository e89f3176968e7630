// Frequency-domain netlist for AC nodal analysis.
//
// All RF elements in this library are admittance-representable (lumped
// passives, dispersive components, transmission lines via their Y-block,
// FETs via their linearized Y-block), so plain nodal analysis — a complex
// admittance matrix per frequency — is sufficient and robust: no MNA branch
// rows, no DC pathologies (DC bias is solved separately in dc.h).
//
// Each element may register thermal noise (resistive elements) or a
// correlated noise-current group (active devices); the noise analysis in
// noise_analysis.h consumes those registrations.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "numeric/matrix.h"
#include "rf/twoport.h"

namespace gnsslna::circuit {

using Complex = std::complex<double>;

/// Node handle; node 0 is ground.
using NodeId = std::size_t;
inline constexpr NodeId kGround = 0;

/// Admittance as a function of frequency [Hz] -> [S].
using AdmittanceFn = std::function<Complex(double)>;

/// 2x2 Y-block as a function of frequency (for two-port elements).
using YBlockFn = std::function<rf::YParams(double)>;

/// A correlated group of noise current sources.  Each injection drives a
/// current between two nodes; `csd(f)` returns the k x k cross-spectral
/// density matrix [A^2/Hz] of the k injection currents at frequency f.
struct NoiseGroup {
  std::vector<std::pair<NodeId, NodeId>> injections;  ///< (from, to) node pairs
  std::function<numeric::ComplexMatrix(double)> csd;
  std::string label;
  /// Set by add_passive_twoport: the two-port stamp whose Twiss CSD at
  /// temperature_k `csd` computes.  A tabulation that already holds that
  /// stamp's Y-block over its grid (BatchedPlan) computes the CSD from it
  /// with the same lane kernel instead of evaluating the Y-block again.
  std::size_t passive_twoport = static_cast<std::size_t>(-1);
  double temperature_k = 0.0;
};

/// External port definition.
struct Port {
  NodeId node = kGround;
  double z0 = rf::kZ0;
  std::string label;
};

inline constexpr std::size_t kNoNoiseGroup = static_cast<std::size_t>(-1);

/// Stable handle to a stamped element.  Elements are identified by their
/// position in assembly order (all 4-node stamps first, then all two-port
/// blocks), which BatchedPlan relies on for bit-identical re-assembly and
/// which its direct table views are indexed by.
struct ElementId {
  enum class Kind : std::uint8_t { kStamp, kTwoPort };
  Kind kind = Kind::kStamp;
  std::size_t index = static_cast<std::size_t>(-1);
};

/// Handle pair for elements that register their own noise (resistors,
/// lossy impedances, noisy/passive two-ports).
struct ElementRef {
  ElementId element;
  std::size_t noise_group = kNoNoiseGroup;
};

/// Lane-major rows of a k x k noise CSD (k = order): entry (i, j) of
/// lane l is re[(i * order + j) * stride + l] + j im[(i * order + j) *
/// stride + l], i.e. k^2 row pairs.  The noise lane kernels write these
/// rows directly; a one-lane call (CsdLane) reads its matrix back.
struct CsdRows {
  double* re = nullptr;
  double* im = nullptr;
  std::size_t stride = 0;
  std::size_t order = 0;

  /// Entry e = i * order + j of lane l.
  void store(std::size_t e, std::size_t l, double r, double i) const {
    re[e * stride + l] = r;
    im[e * stride + l] = i;
  }
  Complex at(std::size_t i, std::size_t j, std::size_t l) const {
    const std::size_t e = (i * order + j) * stride + l;
    return {re[e], im[e]};
  }
  /// The rows of lanes [offset, ...): the same stride, shifted origin.
  CsdRows from(std::size_t offset) const {
    return {re + offset, im + offset, stride, order};
  }
};

/// One lane of CSD rows of order <= 2 in local storage, for the one-lane
/// calls of the noise lane kernels (the netlist closures).
struct CsdLane {
  double re[4];
  double im[4];
  CsdRows rows(std::size_t order) { return {re, im, 1, order}; }
  numeric::ComplexMatrix matrix(std::size_t order) const;
};

/// Lane kernel of add_lossy_impedance's tabulation (its admittance and
/// noise closures are one-lane calls): y = 1 / z at every lane of
/// (z_re, z_im) into the row pair (y_re, y_im), and for the first
/// `noise_lanes` lanes the 1 x 1 thermal CSD 4kT max(0, Re y) + j 0 into
/// `csd` (unused when noise_lanes is 0).  Throws std::domain_error, before
/// writing anything, when a lane is a near-short (|z| < 1e-12).
void lossy_admittance_lanes(std::span<const double> z_re, const double* z_im,
                            double* y_re, double* y_im, double temperature_k,
                            const CsdRows& csd, std::size_t noise_lanes);

class Netlist {
 public:
  Netlist();

  /// Creates a new circuit node.
  NodeId add_node(std::string label = {});

  std::size_t node_count() const { return node_labels_.size(); }

  /// Finds a node by label.  Throws std::invalid_argument if absent.
  NodeId find_node(const std::string& label) const;

  /// Adds a noiseless two-terminal admittance between nodes a and b.
  /// `frequency_independent` marks y as constant over frequency, letting a
  /// BatchedPlan tabulate it with a single evaluation.
  ElementId add_admittance(NodeId a, NodeId b, AdmittanceFn y,
                           std::string label = {},
                           bool frequency_independent = false);

  /// Adds an ideal resistor; registers its thermal noise at temperature_k.
  ElementRef add_resistor(NodeId a, NodeId b, double ohms,
                          double temperature_k = rf::kT0,
                          std::string label = {});

  /// Adds a dispersive one-port (passives::Component adapter): admittance
  /// 1/z(f); its ESR's thermal noise is registered at temperature_k.
  ElementRef add_lossy_impedance(NodeId a, NodeId b,
                                 std::function<Complex(double)> impedance,
                                 double temperature_k = rf::kT0,
                                 std::string label = {});

  /// Adds an ideal capacitor (noiseless).
  ElementId add_capacitor(NodeId a, NodeId b, double farads,
                          std::string label = {});

  /// Adds an ideal inductor (noiseless).
  ElementId add_inductor(NodeId a, NodeId b, double henries,
                         std::string label = {});

  /// Voltage-controlled current source: current gm * (v(cp) - v(cn))
  /// flows from np to nn (into np out of nn inside the source).
  ElementId add_vccs(NodeId np, NodeId nn, NodeId cp, NodeId cn,
                     std::function<Complex(double)> gm,
                     std::string label = {});

  /// Stamps a grounded two-port (port1 node, port2 node, common ground).
  ElementId add_twoport(NodeId p1, NodeId p2, YBlockFn y,
                        std::string label = {});

  /// Stamps a three-terminal element whose grounded-common-terminal
  /// behaviour is the given 2x2 Y-block (e.g. a common-source FET placed
  /// with an arbitrary source node): the 2x2 block is expanded to the
  /// indefinite 3x3 admittance matrix.
  ElementId add_three_terminal(NodeId t1, NodeId t2, NodeId common,
                               YBlockFn y, std::string label = {});

  /// Registers a correlated noise-current group.  Returns its index.
  std::size_t add_noise_group(NoiseGroup group);

  std::size_t stamp_count() const { return stamps_.size(); }
  std::size_t twoport_count() const { return twoports_.size(); }

  /// Declares an external port at a node.  Returns the port index.
  std::size_t add_port(NodeId node, double z0 = rf::kZ0,
                       std::string label = {});

  const std::vector<Port>& ports() const { return ports_; }
  const std::vector<NoiseGroup>& noise_groups() const { return noise_groups_; }

  /// Assembles the (node_count-1)^2 complex admittance matrix at frequency
  /// f, ground eliminated, WITHOUT port terminations.
  numeric::ComplexMatrix assemble(double frequency_hz) const;

  /// Like assemble(), also storing every two-port stamp's Y-block at f
  /// (the values the assembly added) into `*blocks`, resized to
  /// twoport_count(), when `blocks` is not null: the per-call noise
  /// analysis computes its passive two-ports' Twiss CSDs from them instead
  /// of evaluating each Y-block again.
  numeric::ComplexMatrix assemble(double frequency_hz,
                                  std::vector<rf::YParams>* blocks) const;

  /// Like assemble(), plus 1/z0 termination stamped at every port node.
  numeric::ComplexMatrix assemble_terminated(double frequency_hz) const;

 private:
  friend class BatchedPlan;

  struct Stamp {
    // Generic 4-node stamp: adds value(f) at (rows x cols) combinations
    // with the standard +/- sign pattern.  Two-terminal elements use
    // (a, b, a, b); a VCCS uses (np, nn, cp, cn).
    NodeId out_p, out_n, in_p, in_n;
    AdmittanceFn value;
    std::string label;
    bool frequency_independent = false;
  };
  struct TwoPortStamp {
    NodeId t1, t2, common;
    YBlockFn y;
    std::string label;
  };

  void check_node(NodeId n, const char* who) const;

  std::vector<std::string> node_labels_;
  std::vector<Stamp> stamps_;
  std::vector<TwoPortStamp> twoports_;
  std::vector<NoiseGroup> noise_groups_;
  std::vector<Port> ports_;
};

}  // namespace gnsslna::circuit
