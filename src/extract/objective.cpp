#include "extract/objective.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "numeric/parallel.h"

namespace gnsslna::extract {

namespace {

/// Per-(closure, thread) scratch for extraction_residuals: one candidate
/// device re-dressed in place per call (no clone, no Phemt rebuild) and a
/// persistent residual buffer.  Each thread gets its own slot of the
/// closure's numeric::PerThreadSlots, so a shared ResidualFn can be called
/// from any number of optimizer threads concurrently — each thread mutates
/// only its own device — and the slots die with the last copy of the
/// closure.
struct CandidateState {
  std::unique_ptr<device::Phemt> dev;
  std::vector<double> iv_params;
  std::vector<double> r;
  // One bias run of RF points through the pHEMT lane kernel: its
  // frequencies and Y term rows.
  std::vector<double> freq, y_re, y_im;
};

/// Shared-parameter bounds: {cgs0, cgd0, cds, ri, tau, vbi}.
struct SharedBounds {
  double lo[kSharedParamCount] = {0.05e-12, 0.005e-12, 0.01e-12, 0.1,
                                  0.1e-12, 0.4};
  double hi[kSharedParamCount] = {2.0e-12, 0.4e-12, 0.6e-12, 10.0,
                                  10e-12, 1.2};
  double typical[kSharedParamCount] = {0.5e-12, 0.05e-12, 0.12e-12, 2.0,
                                       3e-12, 0.8};
};

double dc_scale_of(const MeasurementSet& data, double requested) {
  if (requested > 0.0) return requested;
  double m = 1e-6;
  for (const DcPoint& p : data.dc) m = std::max(m, std::abs(p.ids));
  return m;
}

}  // namespace

device::Phemt candidate_device(const device::FetModel& prototype,
                               const std::vector<double>& params,
                               const device::ExtrinsicParams& extrinsics) {
  const std::size_t n_iv = prototype.parameters().size();
  if (params.size() != n_iv + kSharedParamCount) {
    throw std::invalid_argument("candidate_device: parameter size mismatch");
  }
  std::unique_ptr<device::FetModel> iv = prototype.clone();
  iv->set_parameters(
      std::vector<double>(params.begin(),
                          params.begin() + static_cast<std::ptrdiff_t>(n_iv)));

  device::CapacitanceParams caps;
  caps.cgs0 = params[n_iv + 0];
  caps.cgd0 = params[n_iv + 1];
  caps.cds = params[n_iv + 2];
  caps.ri = params[n_iv + 3];
  caps.tau_s = params[n_iv + 4];
  caps.vbi = params[n_iv + 5];

  return device::Phemt(std::move(iv), caps, extrinsics,
                       device::NoiseTemperatures{});
}

optimize::Bounds candidate_bounds(const device::FetModel& prototype) {
  const std::vector<device::ParamSpec> specs = prototype.param_specs();
  const SharedBounds shared;
  std::vector<double> lo, hi;
  lo.reserve(specs.size() + kSharedParamCount);
  hi.reserve(specs.size() + kSharedParamCount);
  for (const device::ParamSpec& s : specs) {
    lo.push_back(s.lower);
    hi.push_back(s.upper);
  }
  for (std::size_t i = 0; i < kSharedParamCount; ++i) {
    lo.push_back(shared.lo[i]);
    hi.push_back(shared.hi[i]);
  }
  return optimize::Bounds(std::move(lo), std::move(hi));
}

std::vector<double> candidate_start(const device::FetModel& prototype) {
  const std::vector<device::ParamSpec> specs = prototype.param_specs();
  const SharedBounds shared;
  std::vector<double> x;
  x.reserve(specs.size() + kSharedParamCount);
  for (const device::ParamSpec& s : specs) x.push_back(s.typical);
  for (std::size_t i = 0; i < kSharedParamCount; ++i) {
    x.push_back(shared.typical[i]);
  }
  return x;
}

optimize::ResidualFn extraction_residuals(
    const device::FetModel& prototype, const MeasurementSet& data,
    const device::ExtrinsicParams& extrinsics, ObjectiveWeights weights) {
  if (data.dc.empty() && data.rf.empty()) {
    throw std::invalid_argument("extraction_residuals: empty measurement set");
  }
  const double dc_scale = dc_scale_of(data, weights.dc_scale_a);
  // Capture the prototype by clone so the returned closure owns its state.
  std::shared_ptr<device::FetModel> proto(prototype.clone());
  const std::size_t n_iv = proto->parameters().size();
  const auto states =
      std::make_shared<numeric::PerThreadSlots<CandidateState>>();

  return [proto, &data, extrinsics, weights, dc_scale, n_iv,
          states](const std::vector<double>& params) {
    if (params.size() != n_iv + kSharedParamCount) {
      throw std::invalid_argument(
          "candidate_device: parameter size mismatch");
    }
    CandidateState& st = states->local();
    if (!st.dev) {
      st.dev = std::make_unique<device::Phemt>(
          proto->clone(), device::CapacitanceParams{}, extrinsics,
          device::NoiseTemperatures{});
      st.iv_params.resize(n_iv);
    }
    // Re-dress the persistent device in place: exactly candidate_device's
    // parameter split, without rebuilding the Phemt per candidate.
    std::copy(params.begin(),
              params.begin() + static_cast<std::ptrdiff_t>(n_iv),
              st.iv_params.begin());
    st.dev->iv_model().set_parameters(st.iv_params);
    device::CapacitanceParams caps;
    caps.cgs0 = params[n_iv + 0];
    caps.cgd0 = params[n_iv + 1];
    caps.cds = params[n_iv + 2];
    caps.ri = params[n_iv + 3];
    caps.tau_s = params[n_iv + 4];
    caps.vbi = params[n_iv + 5];
    st.dev->set_caps(caps);
    const device::Phemt& dev = *st.dev;

    std::vector<double>& r = st.r;
    r.clear();
    r.reserve(data.residual_count());
    for (const DcPoint& p : data.dc) {
      const double model = dev.drain_current({p.vgs, p.vds});
      r.push_back(weights.dc_weight * (model - p.ids) / dc_scale);
    }
    // RF points arrive as per-bias frequency sweeps: hoist the (finite-
    // difference, hence costly) small-signal extraction out of the
    // frequency loop and redo it only when the bias actually moves, and
    // tabulate each run of points with one bias through the pHEMT lane
    // kernel.  Each lane is fet_y's one-lane value, and
    // fet_s_params(small_signal(bias), ...) = s_from_y(fet_y(...)) IS
    // Phemt::s_params, so the residuals are unchanged to the last bit.
    const device::ExtrinsicParams ex = dev.extrinsics();
    const auto push = [&](rf::Complex model, rf::Complex meas) {
      r.push_back(weights.rf_weight * (model.real() - meas.real()));
      r.push_back(weights.rf_weight * (model.imag() - meas.imag()));
    };
    for (std::size_t begin = 0, end = 0; begin < data.rf.size();
         begin = end) {
      const device::Bias bias = data.rf[begin].bias;
      end = begin + 1;
      while (end < data.rf.size() && data.rf[end].bias.vgs == bias.vgs &&
             data.rf[end].bias.vds == bias.vds) {
        ++end;
      }
      const std::size_t n = end - begin;
      st.freq.resize(n);
      st.y_re.resize(rf::YTermRows::kTerms * n);
      st.y_im.resize(rf::YTermRows::kTerms * n);
      for (std::size_t k = 0; k < n; ++k) {
        st.freq[k] = data.rf[begin + k].s.frequency_hz;
      }
      const rf::YTermRows y{st.y_re.data(), st.y_im.data(), n};
      device::fet_y(dev.small_signal(bias), ex, st.freq, y);
      for (std::size_t k = 0; k < n; ++k) {
        const RfPoint& p = data.rf[begin + k];
        const rf::SParams s = rf::s_from_y(y.y(k, st.freq[k]), p.s.z0);
        push(s.s11, p.s.s11);
        push(s.s21, p.s.s21);
        push(s.s12, p.s.s12);
        push(s.s22, p.s.s22);
      }
    }
    return r;
  };
}

optimize::ObjectiveFn robust_criterion(
    const device::FetModel& prototype, const MeasurementSet& data,
    const device::ExtrinsicParams& extrinsics, double huber_delta,
    ObjectiveWeights weights) {
  if (huber_delta <= 0.0) {
    throw std::invalid_argument("robust_criterion: delta must be positive");
  }
  optimize::ResidualFn residuals =
      extraction_residuals(prototype, data, extrinsics, weights);
  return [residuals = std::move(residuals),
          huber_delta](const std::vector<double>& x) {
    const std::vector<double> r = residuals(x);
    double loss = 0.0;
    for (const double v : r) {
      const double a = std::abs(v);
      loss += a <= huber_delta ? 0.5 * v * v
                               : huber_delta * (a - 0.5 * huber_delta);
    }
    return loss / static_cast<double>(r.size());
  };
}

FitError evaluate_fit(const device::FetModel& prototype,
                      const std::vector<double>& params,
                      const MeasurementSet& data,
                      const device::ExtrinsicParams& extrinsics) {
  const device::Phemt dev = candidate_device(prototype, params, extrinsics);
  FitError err;
  if (!data.dc.empty()) {
    const double scale = dc_scale_of(data, 0.0);
    double s = 0.0;
    for (const DcPoint& p : data.dc) {
      const double d = (dev.drain_current({p.vgs, p.vds}) - p.ids) / scale;
      s += d * d;
    }
    err.rms_dc_rel = std::sqrt(s / static_cast<double>(data.dc.size()));
  }
  if (!data.rf.empty()) {
    // Same bias-group hoisting as extraction_residuals: one small-signal
    // extraction per bias, not per (bias, frequency) point.
    const device::ExtrinsicParams ex = dev.extrinsics();
    device::IntrinsicParams ip;
    device::Bias ip_bias;
    bool ip_valid = false;
    double s = 0.0;
    for (const RfPoint& p : data.rf) {
      if (!ip_valid || p.bias.vgs != ip_bias.vgs ||
          p.bias.vds != ip_bias.vds) {
        ip = dev.small_signal(p.bias);
        ip_bias = p.bias;
        ip_valid = true;
      }
      const rf::SParams m =
          device::fet_s_params(ip, ex, p.s.frequency_hz, p.s.z0);
      s += std::norm(m.s11 - p.s.s11) + std::norm(m.s21 - p.s.s21) +
           std::norm(m.s12 - p.s.s12) + std::norm(m.s22 - p.s.s22);
    }
    err.rms_s = std::sqrt(s / (4.0 * static_cast<double>(data.rf.size())));
  }
  return err;
}

}  // namespace gnsslna::extract
