#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace gnsslna::obs {

namespace {

constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 32;
constexpr std::size_t kMaxBuckets = 64;

struct HistogramSlot {
  std::vector<double> upper_bounds;
  // counts[i] covers (bounds[i-1], bounds[i]]; the last slot is +Inf.
  std::atomic<std::uint64_t> counts[kMaxBuckets + 1] = {};
  std::atomic<std::int64_t> sum{0};
};

/// Leaked singleton, same lifetime rationale as the obs.h Registry.
struct MetricsRegistry {
  std::mutex mutex;

  std::vector<std::string> gauge_names;
  std::unordered_map<std::string, std::uint32_t> gauge_ids;
  std::atomic<std::int64_t> gauge_values[kMaxGauges] = {};

  std::vector<std::string> histogram_names;
  std::unordered_map<std::string, std::uint32_t> histogram_ids;
  HistogramSlot histograms[kMaxHistograms];

  static MetricsRegistry& get() {
    static MetricsRegistry* g = new MetricsRegistry;  // intentionally leaked
    return *g;
  }
};

/// Fixed determinism classification (see metrics.h).  Everything not
/// matched here is STABLE: a pure function of the work that ran.
constexpr const char* kObservationalPrefixes[] = {
    "service.plan_cache.",           // lease hit/miss depends on interleaving
    "circuit.batch.workspace_reuses",  // per-thread workspace reuse
    "circuit.batch.arena_bytes_hwm",   // summed per-thread high-water marks
    "amplifier.report_cache.",       // per-thread memo hit pattern
    "yield.plan_builds",             // one build per WORKER, not per sample
    "yield.resyncs",                 // per-worker re-binds
};

std::string sanitize(const std::string& name) {
  std::string out = "gnsslna_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_bound(std::string* out, double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%g", v);
  }
  out->append(buf);
}

void append_u64(std::string* out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

void append_i64(std::string* out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out->append(buf);
}

}  // namespace

Gauge::Gauge(const char* name) : id_(0) {
  MetricsRegistry& r = MetricsRegistry::get();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.gauge_ids.find(name);
  if (it != r.gauge_ids.end()) {
    id_ = it->second;
    return;
  }
  if (r.gauge_names.size() >= kMaxGauges) {
    throw std::length_error(
        "obs: too many gauge registrations (raise kMaxGauges)");
  }
  id_ = static_cast<std::uint32_t>(r.gauge_names.size());
  r.gauge_names.emplace_back(name);
  r.gauge_ids.emplace(name, id_);
}

void Gauge::set(std::int64_t v) const {
  if (!enabled()) return;
  MetricsRegistry::get().gauge_values[id_].store(v, std::memory_order_relaxed);
}

void Gauge::add(std::int64_t d) const {
  if (!enabled()) return;
  MetricsRegistry::get().gauge_values[id_].fetch_add(d,
                                                     std::memory_order_relaxed);
}

Histogram::Histogram(const char* name, std::vector<double> upper_bounds)
    : id_(0) {
  if (upper_bounds.empty() || upper_bounds.size() > kMaxBuckets ||
      !std::is_sorted(upper_bounds.begin(), upper_bounds.end())) {
    throw std::invalid_argument(
        "obs: histogram bounds must be ascending, 1..kMaxBuckets long");
  }
  MetricsRegistry& r = MetricsRegistry::get();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.histogram_ids.find(name);
  if (it != r.histogram_ids.end()) {
    id_ = it->second;
    return;
  }
  if (r.histogram_names.size() >= kMaxHistograms) {
    throw std::length_error(
        "obs: too many histogram registrations (raise kMaxHistograms)");
  }
  id_ = static_cast<std::uint32_t>(r.histogram_names.size());
  r.histogram_names.emplace_back(name);
  r.histogram_ids.emplace(name, id_);
  r.histograms[id_].upper_bounds = std::move(upper_bounds);
}

void Histogram::observe(double value) const {
  if (!enabled()) return;
  HistogramSlot& slot = MetricsRegistry::get().histograms[id_];
  // Prometheus bucket semantics: counts[i] is the first bound >= value.
  const auto it = std::lower_bound(slot.upper_bounds.begin(),
                                   slot.upper_bounds.end(), value);
  const std::size_t b =
      static_cast<std::size_t>(it - slot.upper_bounds.begin());
  slot.counts[b].fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(std::llround(value), std::memory_order_relaxed);
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot out;
  out.counters = counter_snapshot();
  std::sort(out.counters.begin(), out.counters.end(),
            [](const CounterValue& a, const CounterValue& b) {
              return a.name < b.name;
            });

  MetricsRegistry& r = MetricsRegistry::get();
  const std::lock_guard<std::mutex> lock(r.mutex);
  out.gauges.reserve(r.gauge_names.size());
  for (std::size_t i = 0; i < r.gauge_names.size(); ++i) {
    out.gauges.push_back(
        {r.gauge_names[i],
         r.gauge_values[i].load(std::memory_order_relaxed)});
  }
  std::sort(out.gauges.begin(), out.gauges.end(),
            [](const GaugeValue& a, const GaugeValue& b) {
              return a.name < b.name;
            });

  out.histograms.reserve(r.histogram_names.size());
  for (std::size_t i = 0; i < r.histogram_names.size(); ++i) {
    const HistogramSlot& slot = r.histograms[i];
    HistogramValue h;
    h.name = r.histogram_names[i];
    h.upper_bounds = slot.upper_bounds;
    h.counts.resize(slot.upper_bounds.size() + 1);
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      h.counts[b] = slot.counts[b].load(std::memory_order_relaxed);
      h.total += h.counts[b];
    }
    h.sum = slot.sum.load(std::memory_order_relaxed);
    out.histograms.push_back(std::move(h));
  }
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const HistogramValue& a, const HistogramValue& b) {
              return a.name < b.name;
            });
  return out;
}

bool metric_is_observational(std::string_view name) {
  for (const char* prefix : kObservationalPrefixes) {
    if (name.substr(0, std::string_view(prefix).size()) == prefix) {
      return true;
    }
  }
  return false;
}

std::string prometheus_text(const MetricsSnapshot& snapshot,
                            bool deterministic) {
  std::string out;
  for (const CounterValue& c : snapshot.counters) {
    const std::string p = sanitize(c.name);
    const std::uint64_t v =
        deterministic && metric_is_observational(c.name) ? 0 : c.value;
    out += "# TYPE " + p + " counter\n" + p + " ";
    append_u64(&out, v);
    out += "\n";
  }
  for (const GaugeValue& g : snapshot.gauges) {
    const std::string p = sanitize(g.name);
    const std::int64_t v =
        deterministic && metric_is_observational(g.name) ? 0 : g.value;
    out += "# TYPE " + p + " gauge\n" + p + " ";
    append_i64(&out, v);
    out += "\n";
  }
  for (const HistogramValue& h : snapshot.histograms) {
    const std::string p = sanitize(h.name);
    const bool zero = deterministic && metric_is_observational(h.name);
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      cum += zero ? 0 : h.counts[b];
      out += p + "_bucket{le=\"";
      append_bound(&out, h.upper_bounds[b]);
      out += "\"} ";
      append_u64(&out, cum);
      out += "\n";
    }
    cum += zero ? 0 : h.counts[h.upper_bounds.size()];
    out += p + "_bucket{le=\"+Inf\"} ";
    append_u64(&out, cum);
    out += "\n" + p + "_sum ";
    append_i64(&out, zero ? 0 : h.sum);
    out += "\n" + p + "_count ";
    append_u64(&out, cum);
    out += "\n";
  }
  return out;
}

double histogram_quantile(const HistogramValue& h, double q) {
  if (h.total == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const std::uint64_t k =
      static_cast<std::uint64_t>(q * static_cast<double>(h.total)) + 1;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    if (h.counts[b] == 0) continue;
    cum += h.counts[b];
    if (cum < k) continue;
    if (b >= h.upper_bounds.size()) {
      return h.upper_bounds.back();  // overflow bucket: last finite bound
    }
    const double lo = b == 0 ? 0.0 : h.upper_bounds[b - 1];
    const double hi = h.upper_bounds[b];
    const double j = static_cast<double>(k - (cum - h.counts[b]));
    return lo + (hi - lo) * (j - 0.5) / static_cast<double>(h.counts[b]);
  }
  return h.upper_bounds.back();
}

void metrics_reset() {
  MetricsRegistry& r = MetricsRegistry::get();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (std::size_t i = 0; i < kMaxGauges; ++i) {
    r.gauge_values[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxHistograms; ++i) {
    for (std::size_t b = 0; b <= kMaxBuckets; ++b) {
      r.histograms[i].counts[b].store(0, std::memory_order_relaxed);
    }
    r.histograms[i].sum.store(0, std::memory_order_relaxed);
  }
}

}  // namespace gnsslna::obs
