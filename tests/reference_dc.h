// Reference nonlinear DC operating-point solver.
//
// A small MNA formulation (node voltages + one branch current per ideal
// voltage source) with FETs stamped through their Newton companion model
// (current source + gm/gds linearization).  Plain Newton with step damping,
// falling back to source stepping when cold-start Newton diverges — the
// textbook recipe, and entirely adequate for bias networks of a few nodes.
//
// The library sizes the bias network by Ohm's law at the target point
// (amplifier::design_bias); verify_bias_dc solves the actual (Vdd, gate
// bias, drain resistor, FET) circuit with this solver, an independent check
// that the network lands on that point.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "amplifier/topology.h"
#include "device/fet_model.h"
#include "device/phemt.h"
#include "numeric/matrix.h"

namespace gnsslna::reference {

using DcNodeId = std::size_t;
inline constexpr DcNodeId kDcGround = 0;

struct DcSolution {
  std::vector<double> node_voltages;   ///< index = node id (ground = 0 V)
  std::vector<double> source_currents; ///< per voltage source [A]
  int newton_iterations = 0;
  bool used_source_stepping = false;

  double voltage(DcNodeId n) const { return node_voltages.at(n); }
};

class DcCircuit {
 public:
  DcNodeId add_node() { return node_count_++; }

  void add_resistor(DcNodeId a, DcNodeId b, double ohms) {
    check_node(a, "DcCircuit::add_resistor");
    check_node(b, "DcCircuit::add_resistor");
    if (ohms <= 0.0) {
      throw std::invalid_argument(
          "DcCircuit::add_resistor: R must be positive");
    }
    if (a == b) {
      throw std::invalid_argument("DcCircuit::add_resistor: same node twice");
    }
    resistors_.push_back({a, b, 1.0 / ohms});
  }

  /// Ideal voltage source forcing v(p) - v(n) = volts.  Returns its index.
  std::size_t add_vsource(DcNodeId p, DcNodeId n, double volts) {
    check_node(p, "DcCircuit::add_vsource");
    check_node(n, "DcCircuit::add_vsource");
    if (p == n) {
      throw std::invalid_argument("DcCircuit::add_vsource: same node twice");
    }
    sources_.push_back({p, n, volts});
    return sources_.size() - 1;
  }

  /// Three-terminal FET; the gate is assumed current-free (pHEMT gate
  /// leakage is negligible at LNA bias).  The model reference must outlive
  /// the circuit.
  void add_fet(DcNodeId gate, DcNodeId drain, DcNodeId source,
               const device::FetModel& model) {
    check_node(gate, "DcCircuit::add_fet");
    check_node(drain, "DcCircuit::add_fet");
    check_node(source, "DcCircuit::add_fet");
    if (drain == source) {
      throw std::invalid_argument("DcCircuit::add_fet: drain == source");
    }
    fets_.push_back({gate, drain, source, &model});
  }

  /// Solves for the DC operating point.  Throws std::runtime_error when
  /// neither damped Newton nor source stepping converges.
  DcSolution solve(double tolerance_a = 1e-12, int max_iterations = 200) const {
    const std::size_t nn = node_count_ - 1;
    const std::size_t nb = sources_.size();

    DcSolution sol;
    std::vector<double> x(nn + nb, 0.0);
    int iters = 0;
    if (newton(1.0, x, max_iterations, tolerance_a, iters)) {
      sol.newton_iterations = iters;
    } else {
      // Source stepping: ramp all sources from 0 to full value.
      x.assign(nn + nb, 0.0);
      sol.used_source_stepping = true;
      int total = 0;
      for (int step = 1; step <= 20; ++step) {
        const double scale = static_cast<double>(step) / 20.0;
        if (!newton(scale, x, max_iterations, tolerance_a, iters)) {
          throw std::runtime_error(
              "DcCircuit::solve: source stepping failed to converge");
        }
        total += iters;
      }
      sol.newton_iterations = total;
    }

    sol.node_voltages.assign(node_count_, 0.0);
    for (std::size_t i = 0; i < nn; ++i) sol.node_voltages[i + 1] = x[i];
    sol.source_currents.assign(nb, 0.0);
    for (std::size_t s = 0; s < nb; ++s) sol.source_currents[s] = x[nn + s];
    return sol;
  }

  /// Drain current of FET `index` at a previously obtained solution.
  double fet_drain_current(std::size_t index, const DcSolution& sol) const {
    if (index >= fets_.size()) {
      throw std::out_of_range("DcCircuit::fet_drain_current: bad index");
    }
    const FetElem& f = fets_[index];
    const double vgs = sol.voltage(f.gate) - sol.voltage(f.source);
    const double vds = sol.voltage(f.drain) - sol.voltage(f.source);
    return f.model->drain_current(vgs, vds);
  }

 private:
  struct ResistorElem {
    DcNodeId a, b;
    double conductance;
  };
  struct SourceElem {
    DcNodeId p, n;
    double volts;
  };
  struct FetElem {
    DcNodeId gate, drain, source;
    const device::FetModel* model;
  };

  void check_node(DcNodeId n, const char* who) const {
    if (n >= node_count_) {
      throw std::invalid_argument(std::string(who) + ": unknown node");
    }
  }

  bool newton(double vscale, std::vector<double>& x, int max_iterations,
              double tolerance_a, int& iterations_out) const {
    const std::size_t nn = node_count_ - 1;  // node unknowns
    const std::size_t nb = sources_.size();  // branch unknowns
    const std::size_t dim = nn + nb;
    if (x.size() != dim) x.assign(dim, 0.0);

    const auto vnode = [&](DcNodeId n) {
      return n == kDcGround ? 0.0 : x[n - 1];
    };

    for (int iter = 0; iter < max_iterations; ++iter) {
      numeric::RealMatrix jac(dim, dim);
      std::vector<double> residual(dim, 0.0);

      const auto bump_res = [&](DcNodeId node, double current) {
        if (node != kDcGround) residual[node - 1] += current;
      };
      const auto bump_jac = [&](DcNodeId row, std::size_t col, double g) {
        if (row != kDcGround) jac(row - 1, col) += g;
      };
      const auto col_of = [&](DcNodeId n) { return n - 1; };

      for (const ResistorElem& r : resistors_) {
        const double i = r.conductance * (vnode(r.a) - vnode(r.b));
        bump_res(r.a, i);
        bump_res(r.b, -i);
        if (r.a != kDcGround) {
          bump_jac(r.a, col_of(r.a), r.conductance);
          bump_jac(r.b, col_of(r.a), -r.conductance);
        }
        if (r.b != kDcGround) {
          bump_jac(r.a, col_of(r.b), -r.conductance);
          bump_jac(r.b, col_of(r.b), r.conductance);
        }
      }

      for (std::size_t s = 0; s < nb; ++s) {
        const SourceElem& src = sources_[s];
        const double i_branch = x[nn + s];
        // KCL: branch current leaves p, enters n.
        bump_res(src.p, i_branch);
        bump_res(src.n, -i_branch);
        bump_jac(src.p, nn + s, 1.0);
        bump_jac(src.n, nn + s, -1.0);
        // Branch equation: v(p) - v(n) - V = 0.
        residual[nn + s] = vnode(src.p) - vnode(src.n) - vscale * src.volts;
        if (src.p != kDcGround) jac(nn + s, col_of(src.p)) += 1.0;
        if (src.n != kDcGround) jac(nn + s, col_of(src.n)) -= 1.0;
      }

      for (const FetElem& f : fets_) {
        const double vgs = vnode(f.gate) - vnode(f.source);
        const double vds = vnode(f.drain) - vnode(f.source);
        const device::Conductances c = f.model->conductances(vgs, vds);
        bump_res(f.drain, c.ids);
        bump_res(f.source, -c.ids);
        const double gm = c.gm;
        const double gds = c.gds;
        if (f.gate != kDcGround) {
          bump_jac(f.drain, col_of(f.gate), gm);
          bump_jac(f.source, col_of(f.gate), -gm);
        }
        if (f.drain != kDcGround) {
          bump_jac(f.drain, col_of(f.drain), gds);
          bump_jac(f.source, col_of(f.drain), -gds);
        }
        if (f.source != kDcGround) {
          bump_jac(f.drain, col_of(f.source), -(gm + gds));
          bump_jac(f.source, col_of(f.source), gm + gds);
        }
      }

      double norm = 0.0;
      for (const double r : residual) norm = std::max(norm, std::abs(r));
      if (norm < tolerance_a) {
        iterations_out = iter;
        return true;
      }

      // Tiny diagonal regularization keeps floating subcircuits solvable.
      for (std::size_t i = 0; i < nn; ++i) jac(i, i) += 1e-12;

      std::vector<double> dx;
      try {
        dx = numeric::solve(jac, residual);
      } catch (const std::domain_error&) {
        return false;
      }

      // Damped update: limit voltage steps to 0.5 V per iteration for the
      // strongly nonlinear tanh models.
      double dmax = 0.0;
      for (std::size_t i = 0; i < nn; ++i) {
        dmax = std::max(dmax, std::abs(dx[i]));
      }
      const double damp = dmax > 0.5 ? 0.5 / dmax : 1.0;
      for (std::size_t i = 0; i < dim; ++i) x[i] -= damp * dx[i];
    }
    return false;
  }

  std::size_t node_count_ = 1;  // ground
  std::vector<ResistorElem> resistors_;
  std::vector<SourceElem> sources_;
  std::vector<FetElem> fets_;
};

/// The realized operating point of a designed bias network.
struct DcVerification {
  double vgs = 0.0;
  double vds = 0.0;
  double id_a = 0.0;
  double vds_error = 0.0;  ///< realized - target [V]
  int newton_iterations = 0;
};

/// Builds the actual (Vdd, gate bias, drain resistor, FET) circuit of
/// amplifier::design_bias's network, solves the operating point with
/// Newton, and reports the realized (vgs, vds, id).
inline DcVerification verify_bias_dc(const device::Phemt& device,
                                     const amplifier::DesignVector& d,
                                     const amplifier::AmplifierConfig& config) {
  const amplifier::BiasNetwork nominal =
      amplifier::design_bias(device, d, config);

  // The DC topology: Vdd -> Rdrain -> (bias line + tee, both copper:
  // negligible DC resistance) -> drain; gate at vg_bias through the shunt
  // inductor (DC short) and the gate bias resistance; source to ground
  // through the degeneration inductor (DC short).
  DcCircuit dc;
  const DcNodeId vdd = dc.add_node();
  const DcNodeId drain = dc.add_node();
  const DcNodeId gate = dc.add_node();
  dc.add_vsource(vdd, kDcGround, config.vdd);
  dc.add_vsource(gate, kDcGround, nominal.vg_bias);
  dc.add_resistor(vdd, drain, nominal.r_drain);
  dc.add_fet(gate, drain, kDcGround, device.iv_model());

  const DcSolution sol = dc.solve();
  DcVerification v;
  v.vgs = sol.voltage(gate);
  v.vds = sol.voltage(drain);
  v.id_a = dc.fet_drain_current(0, sol);
  v.vds_error = v.vds - d.vds;
  v.newton_iterations = sol.newton_iterations;
  return v;
}

}  // namespace gnsslna::reference
