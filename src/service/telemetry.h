// Service-side telemetry exposition: the canonical service::Json views of
// the obs layer (metrics registry, flight recorder, per-job span trees) and
// the declarative SLO evaluation the stats op reports.
//
// This is the dependency-respecting seam: src/obs/ knows nothing about
// service::Json, so the generic snapshots (obs/metrics.h, obs/flight.h,
// obs::JobTrace) are converted here.  Every export has a deterministic
// mode — name-keyed, sorted, wall-clock zeroed, observational metrics
// zeroed/filtered (obs::metric_is_observational) — under which the bytes
// are identical across worker counts for identical completed traffic
// (pinned in tests/test_service.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/json.h"

namespace gnsslna::service {

/// True when instrumentation is compiled in AND runtime-enabled — the gate
/// every service-layer recording site uses, so GNSSLNA_OBS=OFF builds
/// never register service metrics and answer the metrics/flight ops with
/// empty payloads.
inline bool telemetry_live() {
  return obs::compiled_in() && obs::enabled();
}

/// {"counters":{...},"gauges":{...},"histograms":{name:{"le":[...],
/// "counts":[...],"sum":s,"count":n}}} — each section name-sorted
/// (snapshot order), values zeroed per the determinism class when
/// deterministic.  Empty sections when obs is off.
Json metrics_to_json(const obs::MetricsSnapshot& snapshot, bool deterministic);
Json metrics_json(bool deterministic);

/// Prometheus text of the current snapshot ("" when obs is off).
std::string metrics_prometheus(bool deterministic);

/// Array of flight events.  Deterministic: sorted by (job, seq), order and
/// duration zeroed, observational counter deltas filtered; otherwise
/// sorted by the global order stamp with real values.
Json flight_to_json(const std::vector<obs::FlightEvent>& events,
                    bool deterministic);
Json flight_json(bool deterministic);
Json flight_json_for_job(std::uint64_t job_id);

/// Aggregated span tree of one job: {"name":"job","count":1,"total_us":t,
/// "children":[...]} with children merged by (parent, span name) in
/// first-open order and counts summed — deterministic shape for a
/// deterministic job body; total_us zeroed when deterministic.
Json span_tree_json(const obs::JobTrace& trace, bool deterministic);

/// The service.job_latency_us histogram of a snapshot, the one record of
/// job latency (stats p50/p99 and the latency SLOs both read it); nullptr
/// before the first job registers it.
const obs::HistogramValue* job_latency_histogram(
    const obs::MetricsSnapshot& snapshot);

/// One declarative service-level objective.
struct SloSpec {
  enum class Kind {
    kLatencyQuantile,  ///< quantile of service.job_latency_us <= limit (µs)
    kRejectionRate,    ///< rejected / submitted <= limit
    kErrorRate,        ///< errors / submitted <= limit
  };
  std::string name;
  Kind kind = Kind::kLatencyQuantile;
  double quantile = 0.0;  ///< latency objectives only
  double limit = 0.0;     ///< µs for latency, fraction for rates
};

/// The served objectives: p50/p99 job latency, rejection rate, error rate.
const std::vector<SloSpec>& default_slos();

/// [{"name","kind","quantile","limit","measured","samples","attained"}]
/// measured on `snapshot`.  An objective with no samples yet is vacuously
/// attained; with obs off every objective is vacuous (empty
/// histograms/counters), documented behaviour for GNSSLNA_OBS=OFF builds.
Json evaluate_slos_json(const std::vector<SloSpec>& slos,
                        const obs::MetricsSnapshot& snapshot);

}  // namespace gnsslna::service
