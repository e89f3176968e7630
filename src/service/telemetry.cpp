#include "service/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace gnsslna::service {

namespace {

Json u64(std::uint64_t v) { return Json::number(static_cast<double>(v)); }

}  // namespace

Json metrics_to_json(const obs::MetricsSnapshot& snapshot,
                     bool deterministic) {
  Json counters = Json::object();
  for (const obs::CounterValue& c : snapshot.counters) {
    const bool zero = deterministic && obs::metric_is_observational(c.name);
    counters.set(c.name, u64(zero ? 0 : c.value));
  }
  Json gauges = Json::object();
  for (const obs::GaugeValue& g : snapshot.gauges) {
    const bool zero = deterministic && obs::metric_is_observational(g.name);
    gauges.set(g.name, Json::number(
                           zero ? 0.0 : static_cast<double>(g.value)));
  }
  Json histograms = Json::object();
  for (const obs::HistogramValue& h : snapshot.histograms) {
    const bool zero = deterministic && obs::metric_is_observational(h.name);
    Json le = Json::array();
    Json counts = Json::array();
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      le.push(Json::number(h.upper_bounds[b]));
      counts.push(u64(zero ? 0 : h.counts[b]));
    }
    counts.push(u64(zero ? 0 : h.counts[h.upper_bounds.size()]));
    Json entry = Json::object();
    entry.set("le", std::move(le));
    entry.set("counts", std::move(counts));
    entry.set("sum",
              Json::number(zero ? 0.0 : static_cast<double>(h.sum)));
    entry.set("count", u64(zero ? 0 : h.total));
    histograms.set(h.name, std::move(entry));
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

Json metrics_json(bool deterministic) {
  return metrics_to_json(obs::metrics_snapshot(), deterministic);
}

std::string metrics_prometheus(bool deterministic) {
  return obs::prometheus_text(obs::metrics_snapshot(), deterministic);
}

Json flight_to_json(const std::vector<obs::FlightEvent>& events,
                    bool deterministic) {
  std::vector<obs::FlightEvent> sorted = events;
  if (deterministic) {
    std::sort(sorted.begin(), sorted.end(),
              [](const obs::FlightEvent& a, const obs::FlightEvent& b) {
                return a.job_id != b.job_id ? a.job_id < b.job_id
                                            : a.job_seq < b.job_seq;
              });
  }
  const std::vector<std::string> names = obs::counter_names();
  Json out = Json::array();
  for (const obs::FlightEvent& e : sorted) {
    Json doc = Json::object();
    doc.set("job", u64(e.job_id));
    doc.set("seq", u64(e.job_seq));
    doc.set("type", Json::string(obs::flight_type_name(e.type)));
    doc.set("job_type", Json::string(e.job_type));
    doc.set("client", Json::string(e.client));
    doc.set("order", u64(deterministic ? 0 : e.order));
    doc.set("duration_us", u64(deterministic ? 0 : e.duration_us));
    // Deltas sorted by counter NAME (ids are registration-order-dependent);
    // deterministic dumps drop observational counters, whose per-job work
    // depends on lease warmth and thread placement.
    std::map<std::string, std::uint64_t> deltas;
    for (std::uint32_t i = 0; i < e.delta_count; ++i) {
      const obs::FlightEvent::Delta& d = e.deltas[i];
      if (d.counter_id >= names.size()) continue;
      const std::string& name = names[d.counter_id];
      if (deterministic && obs::metric_is_observational(name)) continue;
      deltas[name] = d.value;
    }
    Json deltas_doc = Json::object();
    for (const auto& [name, value] : deltas) deltas_doc.set(name, u64(value));
    doc.set("deltas", std::move(deltas_doc));
    out.push(std::move(doc));
  }
  return out;
}

Json flight_json(bool deterministic) {
  return flight_to_json(obs::flight_snapshot(), deterministic);
}

Json flight_json_for_job(std::uint64_t job_id) {
  return flight_to_json(obs::flight_for_job(job_id), obs::deterministic());
}

Json span_tree_json(const obs::JobTrace& trace, bool deterministic) {
  // Fold the flat open-order record list into an aggregated tree: one node
  // per (parent, span name), children in first-open order, counts summed.
  struct Node {
    std::uint32_t span_id = 0;
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
    std::vector<std::size_t> children;
  };
  std::vector<Node> nodes(1);  // nodes[0] = synthetic root
  // stack[d] = node index currently open at depth d - 1 (stack[0] = root).
  std::vector<std::size_t> stack = {0};
  for (const obs::JobTrace::Record& rec : trace.records) {
    const std::size_t parent_depth =
        std::min<std::size_t>(rec.depth, stack.size() - 1);
    stack.resize(parent_depth + 1);
    Node& parent = nodes[stack[parent_depth]];
    std::size_t child = 0;
    for (const std::size_t c : parent.children) {
      if (nodes[c].span_id == rec.span_id) {
        child = c;
        break;
      }
    }
    if (child == 0) {
      child = nodes.size();
      nodes.push_back({rec.span_id, 0, 0, {}});
      nodes[stack[parent_depth]].children.push_back(child);
    }
    nodes[child].count += 1;
    nodes[child].ns += rec.dur_ns;
    stack.push_back(child);
  }

  const std::vector<std::string> names = obs::span_names();
  // Bottom-up assembly (children have larger indices than their parents).
  std::vector<Json> docs(nodes.size());
  for (std::size_t i = nodes.size(); i-- > 0;) {
    const Node& n = nodes[i];
    Json doc = Json::object();
    doc.set("name", Json::string(i == 0 ? "job"
                                 : n.span_id < names.size()
                                     ? names[n.span_id]
                                     : "?"));
    doc.set("count", u64(i == 0 ? 1 : n.count));
    const std::uint64_t ns = i == 0 ? [&] {
      std::uint64_t total = 0;
      for (const std::size_t c : n.children) total += nodes[c].ns;
      return total;
    }() : n.ns;
    doc.set("total_us", u64(deterministic ? 0 : ns / 1000));
    if (!n.children.empty()) {
      Json children = Json::array();
      for (const std::size_t c : n.children) {
        children.push(std::move(docs[c]));
      }
      doc.set("children", std::move(children));
    }
    docs[i] = std::move(doc);
  }
  return std::move(docs[0]);
}

const obs::HistogramValue* job_latency_histogram(
    const obs::MetricsSnapshot& snapshot) {
  for (const obs::HistogramValue& h : snapshot.histograms) {
    if (h.name == "service.job_latency_us") return &h;
  }
  return nullptr;
}

const std::vector<SloSpec>& default_slos() {
  // Generous bounds: a healthy server on any host attains them; a wedged
  // plan cache, a runaway job mix, or admission collapse misses them.
  static const std::vector<SloSpec> kSlos = {
      {"latency_p50", SloSpec::Kind::kLatencyQuantile, 0.50, 500000.0},
      {"latency_p99", SloSpec::Kind::kLatencyQuantile, 0.99, 10000000.0},
      {"rejection_rate", SloSpec::Kind::kRejectionRate, 0.0, 0.25},
      {"error_rate", SloSpec::Kind::kErrorRate, 0.0, 0.001},
  };
  return kSlos;
}

Json evaluate_slos_json(const std::vector<SloSpec>& slos,
                        const obs::MetricsSnapshot& snapshot) {
  const obs::HistogramValue* latency = job_latency_histogram(snapshot);
  const auto counter = [&](const char* name) -> std::uint64_t {
    for (const obs::CounterValue& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  const std::uint64_t submitted = counter("service.submitted");

  Json out = Json::array();
  for (const SloSpec& slo : slos) {
    double measured = 0.0;
    std::uint64_t samples = 0;
    const char* kind = "";
    switch (slo.kind) {
      case SloSpec::Kind::kLatencyQuantile:
        kind = "latency";
        samples = latency != nullptr ? latency->total : 0;
        measured = latency != nullptr
                       ? obs::histogram_quantile(*latency, slo.quantile)
                       : 0.0;
        break;
      case SloSpec::Kind::kRejectionRate:
        kind = "rejection_rate";
        samples = submitted;
        measured = submitted == 0
                       ? 0.0
                       : static_cast<double>(counter("service.rejected")) /
                             static_cast<double>(submitted);
        break;
      case SloSpec::Kind::kErrorRate:
        kind = "error_rate";
        samples = submitted;
        measured = submitted == 0
                       ? 0.0
                       : static_cast<double>(counter("service.errors")) /
                             static_cast<double>(submitted);
        break;
    }
    Json doc = Json::object();
    doc.set("name", Json::string(slo.name));
    doc.set("kind", Json::string(kind));
    if (slo.kind == SloSpec::Kind::kLatencyQuantile) {
      doc.set("quantile", Json::number(slo.quantile));
    }
    doc.set("limit", Json::number(slo.limit));
    doc.set("measured", Json::number(measured));
    doc.set("samples", u64(samples));
    // Vacuously attained with no samples (including GNSSLNA_OBS=OFF).
    doc.set("attained", Json::boolean(samples == 0 || measured <= slo.limit));
    out.push(std::move(doc));
  }
  return out;
}

}  // namespace gnsslna::service
