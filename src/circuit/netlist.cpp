#include "circuit/netlist.h"

#include <numbers>
#include <stdexcept>

#include "numeric/lanes.h"

namespace gnsslna::circuit {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Closure builders of the add_* element entry points.  BatchedPlan's
// direct table writers (amplifier/plan_writers.h) replay these bodies, so
// any change here must be mirrored there.

AdmittanceFn capacitor_admittance(double farads) {
  return [farads](double f) { return Complex{0.0, kTwoPi * f * farads}; };
}

AdmittanceFn inductor_admittance(double henries) {
  return [henries](double f) {
    return Complex{0.0, -1.0 / (kTwoPi * f * henries)};
  };
}

AdmittanceFn resistor_admittance(double g) {
  return [g](double) { return Complex{g, 0.0}; };
}

std::function<numeric::ComplexMatrix(double)> resistor_csd(double psd) {
  return [psd](double) {
    numeric::ComplexMatrix m(1, 1);
    m(0, 0) = psd;
    return m;
  };
}

AdmittanceFn lossy_admittance(std::function<Complex(double)> impedance) {
  return [impedance = std::move(impedance)](double f) -> Complex {
    const Complex z = impedance(f);
    const double z_re = z.real(), z_im = z.imag();
    double y_re, y_im;
    lossy_admittance_lanes({&z_re, 1}, &z_im, &y_re, &y_im, 0.0, {}, 0);
    return {y_re, y_im};
  };
}

std::function<numeric::ComplexMatrix(double)> lossy_csd(
    std::function<Complex(double)> impedance, double temperature_k) {
  return [impedance = std::move(impedance), temperature_k](double f) {
    const Complex z = impedance(f);
    const double z_re = z.real(), z_im = z.imag();
    double y_re, y_im;
    CsdLane psd;
    lossy_admittance_lanes({&z_re, 1}, &z_im, &y_re, &y_im, temperature_k,
                           psd.rows(1), 1);
    return psd.matrix(1);
  };
}

GNSSLNA_LANE_CLONES
void lossy_admittance_kernel(const double* z_re, const double* z_im,
                             std::size_t lanes, double* y_re, double* y_im,
                             double psd_scale, double* csd_re, double* csd_im,
                             std::size_t noise_lanes) {
  for (std::size_t k = 0; k < lanes; ++k) {
    numeric::smith_div(1.0, 0.0, z_re[k], z_im[k], y_re[k], y_im[k]);
  }
  // Thermal noise of the dissipative part: 4 k T Re{Y}, with std::max's
  // (0 < Re y ? Re y : 0) selection.
  for (std::size_t k = 0; k < noise_lanes; ++k) {
    const double g = y_re[k];
    csd_re[k] = psd_scale * (0.0 < g ? g : 0.0);
    csd_im[k] = 0.0;
  }
}

}  // namespace

void lossy_admittance_lanes(std::span<const double> z_re, const double* z_im,
                            double* y_re, double* y_im, double temperature_k,
                            const CsdRows& csd, std::size_t noise_lanes) {
  for (std::size_t k = 0; k < z_re.size(); ++k) {
    if (rf::magnitude_below(Complex{z_re[k], z_im[k]}, 1e-12)) {
      throw std::domain_error("add_lossy_impedance: near-short element");
    }
  }
  lossy_admittance_kernel(z_re.data(), z_im, z_re.size(), y_re, y_im,
                          4.0 * rf::kBoltzmann * temperature_k, csd.re,
                          csd.im, noise_lanes);
}

numeric::ComplexMatrix CsdLane::matrix(std::size_t order) const {
  numeric::ComplexMatrix m(order, order);
  for (std::size_t i = 0; i < order; ++i) {
    for (std::size_t j = 0; j < order; ++j) {
      m(i, j) = Complex{re[i * order + j], im[i * order + j]};
    }
  }
  return m;
}

Netlist::Netlist() { node_labels_.push_back("gnd"); }

NodeId Netlist::add_node(std::string label) {
  if (label.empty()) {
    // Appended rather than "n" + to_string(...): GCC 12 at -O3 reports a
    // false -Wrestrict overlap in the operator+ form.
    label = 'n';
    label += std::to_string(node_labels_.size());
  }
  node_labels_.push_back(std::move(label));
  return node_labels_.size() - 1;
}

NodeId Netlist::find_node(const std::string& label) const {
  for (NodeId n = 0; n < node_labels_.size(); ++n) {
    if (node_labels_[n] == label) return n;
  }
  throw std::invalid_argument("Netlist::find_node: no node labelled '" +
                              label + "'");
}

void Netlist::check_node(NodeId n, const char* who) const {
  if (n >= node_labels_.size()) {
    throw std::invalid_argument(std::string(who) + ": unknown node");
  }
}

ElementId Netlist::add_admittance(NodeId a, NodeId b, AdmittanceFn y,
                                  std::string label,
                                  bool frequency_independent) {
  check_node(a, "add_admittance");
  check_node(b, "add_admittance");
  if (a == b) {
    throw std::invalid_argument("add_admittance: both terminals on same node");
  }
  if (!y) {
    throw std::invalid_argument("add_admittance: null admittance function");
  }
  stamps_.push_back({a, b, a, b, std::move(y), std::move(label),
                     frequency_independent});
  return {ElementId::Kind::kStamp, stamps_.size() - 1};
}

ElementRef Netlist::add_resistor(NodeId a, NodeId b, double ohms,
                                 double temperature_k, std::string label) {
  if (ohms <= 0.0) {
    throw std::invalid_argument("add_resistor: resistance must be positive");
  }
  const double g = 1.0 / ohms;
  ElementRef ref;
  ref.element = add_admittance(a, b, resistor_admittance(g), label,
                               /*frequency_independent=*/true);
  if (temperature_k > 0.0) {
    NoiseGroup ng;
    ng.injections = {{a, b}};
    ng.csd = resistor_csd(4.0 * rf::kBoltzmann * temperature_k * g);
    ng.label = label.empty() ? "R-thermal" : label + "-thermal";
    ref.noise_group = add_noise_group(std::move(ng));
  }
  return ref;
}

ElementRef Netlist::add_lossy_impedance(NodeId a, NodeId b,
                                        std::function<Complex(double)> impedance,
                                        double temperature_k,
                                        std::string label) {
  if (!impedance) {
    throw std::invalid_argument("add_lossy_impedance: null impedance function");
  }
  ElementRef ref;
  ref.element = add_admittance(a, b, lossy_admittance(impedance), label);
  if (temperature_k > 0.0) {
    NoiseGroup ng;
    ng.injections = {{a, b}};
    ng.csd = lossy_csd(impedance, temperature_k);
    ng.label = label.empty() ? "Z-thermal" : label + "-thermal";
    ref.noise_group = add_noise_group(std::move(ng));
  }
  return ref;
}

ElementId Netlist::add_capacitor(NodeId a, NodeId b, double farads,
                                 std::string label) {
  if (farads <= 0.0) {
    throw std::invalid_argument("add_capacitor: capacitance must be positive");
  }
  return add_admittance(a, b, capacitor_admittance(farads), std::move(label));
}

ElementId Netlist::add_inductor(NodeId a, NodeId b, double henries,
                                std::string label) {
  if (henries <= 0.0) {
    throw std::invalid_argument("add_inductor: inductance must be positive");
  }
  return add_admittance(a, b, inductor_admittance(henries), std::move(label));
}

ElementId Netlist::add_vccs(NodeId np, NodeId nn, NodeId cp, NodeId cn,
                            std::function<Complex(double)> gm,
                            std::string label) {
  check_node(np, "add_vccs");
  check_node(nn, "add_vccs");
  check_node(cp, "add_vccs");
  check_node(cn, "add_vccs");
  if (!gm) throw std::invalid_argument("add_vccs: null gm function");
  stamps_.push_back({np, nn, cp, cn, std::move(gm), std::move(label), false});
  return {ElementId::Kind::kStamp, stamps_.size() - 1};
}

ElementId Netlist::add_twoport(NodeId p1, NodeId p2, YBlockFn y,
                               std::string label) {
  return add_three_terminal(p1, p2, kGround, std::move(y), std::move(label));
}

ElementId Netlist::add_three_terminal(NodeId t1, NodeId t2, NodeId common,
                                      YBlockFn y, std::string label) {
  check_node(t1, "add_three_terminal");
  check_node(t2, "add_three_terminal");
  check_node(common, "add_three_terminal");
  if (t1 == t2 || t1 == common || t2 == common) {
    throw std::invalid_argument(
        "add_three_terminal: terminals must be distinct nodes");
  }
  if (!y) throw std::invalid_argument("add_three_terminal: null Y function");
  twoports_.push_back({t1, t2, common, std::move(y), std::move(label)});
  return {ElementId::Kind::kTwoPort, twoports_.size() - 1};
}

std::size_t Netlist::add_noise_group(NoiseGroup group) {
  for (const auto& [from, to] : group.injections) {
    check_node(from, "add_noise_group");
    check_node(to, "add_noise_group");
  }
  if (!group.csd) {
    throw std::invalid_argument("add_noise_group: null CSD function");
  }
  noise_groups_.push_back(std::move(group));
  return noise_groups_.size() - 1;
}

std::size_t Netlist::add_port(NodeId node, double z0, std::string label) {
  check_node(node, "add_port");
  if (node == kGround) {
    throw std::invalid_argument("add_port: port cannot sit on ground");
  }
  if (z0 <= 0.0) {
    throw std::invalid_argument("add_port: z0 must be positive");
  }
  ports_.push_back({node, z0, std::move(label)});
  return ports_.size() - 1;
}

numeric::ComplexMatrix Netlist::assemble(double frequency_hz) const {
  return assemble(frequency_hz, nullptr);
}

numeric::ComplexMatrix Netlist::assemble(
    double frequency_hz, std::vector<rf::YParams>* blocks) const {
  if (frequency_hz <= 0.0) {
    throw std::invalid_argument("Netlist::assemble: frequency must be > 0");
  }
  const std::size_t n = node_count() - 1;  // ground eliminated
  numeric::ComplexMatrix y(n, n);

  // Adds v to Y(row, col) if both indices are non-ground.
  const auto bump = [&](NodeId row, NodeId col, Complex v) {
    if (row == kGround || col == kGround) return;
    y(row - 1, col - 1) += v;
  };

  for (const Stamp& st : stamps_) {
    const Complex v = st.value(frequency_hz);
    bump(st.out_p, st.in_p, v);
    bump(st.out_p, st.in_n, -v);
    bump(st.out_n, st.in_p, -v);
    bump(st.out_n, st.in_n, v);
  }

  if (blocks != nullptr) blocks->resize(twoports_.size());
  for (std::size_t ti = 0; ti < twoports_.size(); ++ti) {
    const TwoPortStamp& tp = twoports_[ti];
    const rf::YParams yp = tp.y(frequency_hz);
    if (blocks != nullptr) (*blocks)[ti] = yp;
    // Indefinite 3x3 expansion of the grounded-common 2x2 block: rows and
    // columns sum to zero.
    const Complex y11 = yp.y11, y12 = yp.y12, y21 = yp.y21, y22 = yp.y22;
    const NodeId a = tp.t1, b = tp.t2, c = tp.common;
    bump(a, a, y11);
    bump(a, b, y12);
    bump(a, c, -(y11 + y12));
    bump(b, a, y21);
    bump(b, b, y22);
    bump(b, c, -(y21 + y22));
    bump(c, a, -(y11 + y21));
    bump(c, b, -(y12 + y22));
    bump(c, c, y11 + y12 + y21 + y22);
  }
  return y;
}

numeric::ComplexMatrix Netlist::assemble_terminated(double frequency_hz) const {
  numeric::ComplexMatrix y = assemble(frequency_hz);
  for (const Port& p : ports_) {
    y(p.node - 1, p.node - 1) += Complex{1.0 / p.z0, 0.0};
  }
  return y;
}

}  // namespace gnsslna::circuit
