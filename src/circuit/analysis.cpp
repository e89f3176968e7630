#include "circuit/analysis.h"

#include <cmath>
#include <stdexcept>

#include "circuit/batched.h"
#include "circuit/noisy_twoport.h"
#include "numeric/parallel.h"
#include "rf/units.h"

namespace gnsslna::circuit {

namespace {

void require_ports(const Netlist& netlist, std::size_t at_least,
                   const char* who) {
  if (netlist.ports().size() < at_least) {
    throw std::invalid_argument(std::string(who) + ": not enough ports");
  }
}

/// Solves the terminated system for a unit current injected between the
/// given node pair; returns the node-voltage vector (ground eliminated).
std::vector<Complex> solve_injection(
    const numeric::LuDecomposition<Complex>& lu, std::size_t n, NodeId from,
    NodeId to) {
  std::vector<Complex> rhs(n, Complex{0.0, 0.0});
  if (from != kGround) rhs[from - 1] += Complex{1.0, 0.0};
  if (to != kGround) rhs[to - 1] -= Complex{1.0, 0.0};
  return lu.solve(rhs);
}

}  // namespace

numeric::ComplexMatrix s_matrix(const Netlist& netlist, double frequency_hz) {
  require_ports(netlist, 1, "s_matrix");
  const std::vector<Port>& ports = netlist.ports();
  const std::size_t n = netlist.node_count() - 1;
  const numeric::LuDecomposition<Complex> lu(
      netlist.assemble_terminated(frequency_hz));

  // Hoist sqrt(z0) out of the loops and solve every port excitation in one
  // multi-RHS call (one buffer pair for all columns, identical per-column
  // substitution arithmetic).
  std::vector<double> sqrt_z0(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    sqrt_z0[i] = std::sqrt(ports[i].z0);
  }
  numeric::ComplexMatrix rhs(n, ports.size());
  for (std::size_t k = 0; k < ports.size(); ++k) {
    // Norton excitation for a_k = 1: current 2/sqrt(z0_k) into the node.
    rhs(ports[k].node - 1, k) = Complex{2.0 / sqrt_z0[k], 0.0};
  }
  const numeric::ComplexMatrix v = lu.solve(rhs);

  numeric::ComplexMatrix s(ports.size(), ports.size());
  for (std::size_t k = 0; k < ports.size(); ++k) {
    for (std::size_t i = 0; i < ports.size(); ++i) {
      s(i, k) = v(ports[i].node - 1, k) / sqrt_z0[i] -
                (i == k ? Complex{1.0, 0.0} : Complex{0.0, 0.0});
    }
  }
  return s;
}

rf::SParams s_params(const Netlist& netlist, double frequency_hz) {
  if (netlist.ports().size() != 2) {
    throw std::invalid_argument("s_params: netlist must have exactly 2 ports");
  }
  if (netlist.ports()[0].z0 != netlist.ports()[1].z0) {
    throw std::invalid_argument("s_params: ports must share one z0");
  }
  const numeric::ComplexMatrix s = s_matrix(netlist, frequency_hz);
  rf::SParams out;
  out.frequency_hz = frequency_hz;
  out.z0 = netlist.ports()[0].z0;
  out.s11 = s(0, 0);
  out.s12 = s(0, 1);
  out.s21 = s(1, 0);
  out.s22 = s(1, 1);
  return out;
}

rf::SweepData s_sweep(const Netlist& netlist,
                      const std::vector<double>& frequencies_hz,
                      std::size_t threads) {
  // One batched plan for the whole sweep: every element is tabulated once
  // per frequency, and each thread chunk factors its contiguous lane range
  // as one blocked LU batch.  Per-lane results never depend on which chunk
  // a lane landed in (the kernels are lane-independent), so the sweep is
  // bit-identical at any thread count.
  const std::size_t nf = frequencies_hz.size();
  if (nf == 0) return {};
  const BatchedPlan plan(netlist, frequencies_hz);
  const std::size_t nchunks = std::min(numeric::resolve_threads(threads), nf);
  rf::SweepData sweep(nf);
  std::vector<EvalWorkspace> workspaces(nchunks);
  const auto run_chunk = [&](std::size_t c) {
    const ChunkRange r = chunk_range(c, nchunks, nf);
    EvalWorkspace& ws = workspaces[c];
    plan.factor(ws, r.begin, r.end);
    plan.solve_ports(ws);
    for (std::size_t fi = r.begin; fi < r.end; ++fi) {
      sweep[fi] = plan.s_params_at(ws, fi);
    }
  };
  if (nchunks == 1) {
    run_chunk(0);
  } else {
    numeric::parallel_for(threads, nchunks, run_chunk);
  }
  return sweep;
}

namespace {

/// Shared noise-analysis core: the input port is terminated in the given
/// source admittance (with thermal noise 4 k T Re{ys}); every other port
/// keeps its z0 termination.
NoiseResult noise_core(const Netlist& netlist, std::size_t input_port,
                       std::size_t output_port, Complex y_source,
                       double frequency_hz, double t_source_k) {
  const Port& in = netlist.ports()[input_port];
  const Port& out = netlist.ports()[output_port];
  const std::size_t n = netlist.node_count() - 1;

  // The assembly also returns every two-port's Y-block, from which a
  // passive two-port's Twiss CSD is computed below (twiss_csd, which its
  // closure applies to the same values, so the same bits) instead of
  // evaluating the Y-block a second time.
  std::vector<rf::YParams> blocks;
  numeric::ComplexMatrix y = netlist.assemble(frequency_hz, &blocks);
  for (std::size_t p = 0; p < netlist.ports().size(); ++p) {
    const Port& port = netlist.ports()[p];
    if (p == input_port) {
      y(port.node - 1, port.node - 1) += y_source;
    } else {
      y(port.node - 1, port.node - 1) += Complex{1.0 / port.z0, 0.0};
    }
  }
  const numeric::LuDecomposition<Complex> lu(std::move(y));

  // Reciprocity: ONE transpose solve with the output unit vector yields
  // the transfer from EVERY unit current injection to the output node
  // voltage, h = w[from] - w[to] with Y^T w = e_out — replacing one full
  // solve per injection.
  std::vector<Complex> e_out(n, Complex{0.0, 0.0});
  e_out[out.node - 1] = Complex{1.0, 0.0};
  std::vector<Complex> w, work;
  lu.solve_transposed_into(e_out, w, work);
  const auto transfer = [&](NodeId from, NodeId to) -> Complex {
    const Complex vf =
        from == kGround ? Complex{0.0, 0.0} : w[from - 1];
    const Complex vt = to == kGround ? Complex{0.0, 0.0} : w[to - 1];
    return vf - vt;
  };

  // Contribution of the netlist's registered noise groups.
  double psd_network = 0.0;
  for (const NoiseGroup& group : netlist.noise_groups()) {
    const std::size_t k = group.injections.size();
    const numeric::ComplexMatrix csd =
        group.passive_twoport < blocks.size() && k == 2
            ? twiss_csd(blocks[group.passive_twoport], group.temperature_k)
            : group.csd(frequency_hz);
    if (csd.rows() != k || csd.cols() != k) {
      throw std::invalid_argument("noise_analysis: CSD size mismatch in '" +
                                  group.label + "'");
    }
    std::vector<Complex> h(k);
    for (std::size_t j = 0; j < k; ++j) {
      h[j] = transfer(group.injections[j].first, group.injections[j].second);
    }
    // PSD of V_out = sum_i h_i j_i:  <V V*> = sum_ij h_i C_ij conj(h_j).
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        acc += h[i] * csd(i, j) * std::conj(h[j]);
      }
    }
    psd_network += acc.real();
  }

  // Source-termination thermal noise: 4 k T Re{Ys} current PSD.
  const Complex h_src = transfer(in.node, kGround);
  const double psd_source = 4.0 * rf::kBoltzmann * t_source_k *
                            std::max(y_source.real(), 0.0) *
                            std::norm(h_src);

  if (psd_source <= 0.0) {
    throw std::domain_error(
        "noise_analysis: source noise does not reach the output (no signal "
        "path, or a lossless source?)");
  }

  // The output termination is the measurement load: excluded from F by the
  // IEEE definition.
  NoiseResult r;
  r.source_noise_psd = psd_source;
  r.output_noise_psd = psd_source + psd_network;
  r.noise_factor = r.output_noise_psd / r.source_noise_psd;
  r.noise_figure_db = rf::db_from_ratio(r.noise_factor);
  return r;
}

}  // namespace

NoiseResult noise_analysis(const Netlist& netlist, std::size_t input_port,
                           std::size_t output_port, double frequency_hz,
                           double t_source_k) {
  require_ports(netlist, 2, "noise_analysis");
  if (input_port >= netlist.ports().size() ||
      output_port >= netlist.ports().size() || input_port == output_port) {
    throw std::invalid_argument("noise_analysis: bad port indices");
  }
  const double z0 = netlist.ports()[input_port].z0;
  return noise_core(netlist, input_port, output_port,
                    Complex{1.0 / z0, 0.0}, frequency_hz, t_source_k);
}

NoiseResult noise_analysis_source_pull(const Netlist& netlist,
                                       std::size_t input_port,
                                       std::size_t output_port,
                                       Complex z_source, double frequency_hz,
                                       double t_source_k) {
  require_ports(netlist, 2, "noise_analysis_source_pull");
  if (input_port >= netlist.ports().size() ||
      output_port >= netlist.ports().size() || input_port == output_port) {
    throw std::invalid_argument("noise_analysis_source_pull: bad ports");
  }
  if (z_source.real() <= 0.0) {
    throw std::invalid_argument(
        "noise_analysis_source_pull: source must have positive resistance");
  }
  return noise_core(netlist, input_port, output_port, 1.0 / z_source,
                    frequency_hz, t_source_k);
}

std::vector<double> noise_figure_sweep(
    const Netlist& netlist, std::size_t input_port, std::size_t output_port,
    const std::vector<double>& frequencies_hz) {
  // Batched plan: one blocked LU factorization for the whole grid, one
  // transposed transfer solve, then the lane-batched noise sweep.
  if (frequencies_hz.empty()) return {};
  const BatchedPlan plan(netlist, frequencies_hz);
  EvalWorkspace ws;
  plan.factor(ws, 0, frequencies_hz.size());
  plan.solve_output_transfer(ws, output_port);
  std::vector<NoiseResult> results(frequencies_hz.size());
  plan.noise_sweep(ws, input_port, output_port, results.data());
  std::vector<double> nf;
  nf.reserve(results.size());
  for (const NoiseResult& r : results) {
    nf.push_back(r.noise_figure_db);
  }
  return nf;
}

Complex voltage_transfer(const Netlist& netlist, std::size_t input_port,
                         NodeId plus, NodeId minus, double frequency_hz) {
  require_ports(netlist, 1, "voltage_transfer");
  if (input_port >= netlist.ports().size()) {
    throw std::invalid_argument("voltage_transfer: bad port index");
  }
  const Port& in = netlist.ports()[input_port];
  const std::size_t n = netlist.node_count() - 1;
  const numeric::LuDecomposition<Complex> lu(
      netlist.assemble_terminated(frequency_hz));
  // Thevenin V_s behind z0 == Norton V_s/z0 alongside the stamped 1/z0.
  std::vector<Complex> rhs(n, Complex{0.0, 0.0});
  rhs[in.node - 1] = Complex{1.0 / in.z0, 0.0};  // V_s = 1
  const std::vector<Complex> v = lu.solve(rhs);
  const Complex vp = plus == kGround ? Complex{0.0, 0.0} : v[plus - 1];
  const Complex vm = minus == kGround ? Complex{0.0, 0.0} : v[minus - 1];
  return vp - vm;
}

Complex transimpedance(const Netlist& netlist, NodeId from, NodeId to,
                       std::size_t output_port, double frequency_hz) {
  require_ports(netlist, 1, "transimpedance");
  if (output_port >= netlist.ports().size()) {
    throw std::invalid_argument("transimpedance: bad port index");
  }
  const Port& out = netlist.ports()[output_port];
  const std::size_t n = netlist.node_count() - 1;
  const numeric::LuDecomposition<Complex> lu(
      netlist.assemble_terminated(frequency_hz));
  const std::vector<Complex> v = solve_injection(lu, n, from, to);
  return v[out.node - 1];
}

}  // namespace gnsslna::circuit
