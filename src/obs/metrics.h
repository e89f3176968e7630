// Metrics registry: gauges and fixed-bucket histograms next to the obs.h
// counters, unified into one snapshot with byte-stable exposition.
//
// Design rules (extend DESIGN.md "Observability"):
//   * Same registration discipline as obs.h — dense ids in first-
//     registration order, fixed capacities that throw when exceeded, and
//     every export keyed (and sorted) by NAME so nothing depends on which
//     thread registered first.
//   * Gauges are process-global atomics (set/add), intended for low-
//     frequency level tracking (queue depth, in-flight jobs, plan-cache
//     residency) — not for hot-path increments (use counters).
//   * Histograms have FIXED ascending bucket upper bounds declared at
//     registration plus an implicit +Inf overflow bucket; observe() is one
//     relaxed fetch_add.  Bounds are part of the exposition, so two
//     processes with the same instrumentation emit the same layout.
//   * Determinism classes — every metric is either STABLE (a pure function
//     of what work ran: job counts, evaluation counts, batched solves) or
//     OBSERVATIONAL (dependent on thread placement or cache warmth:
//     plan-cache hits, re-tabulations, workspace reuse).  The class is
//     derived from the name via a fixed prefix table
//     (metric_is_observational); deterministic exposition zeroes
//     observational values while keeping the full name layout, which is
//     what makes the output byte-identical across worker counts.
//   * Runtime gating — like counters, gauges and histograms record only
//     while obs::enabled(); with instrumentation compiled out callers are
//     expected not to register at all (guard registration behind
//     obs::compiled_in()), so snapshots and exposition are empty.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace gnsslna::obs {

/// A named level (not monotonic).  Construction registers the name
/// (idempotent); set/add are relaxed atomics on a process-global slot.
class Gauge {
 public:
  explicit Gauge(const char* name);
  void set(std::int64_t v) const;
  void add(std::int64_t d) const;
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// A named fixed-bucket histogram.  `upper_bounds` must be strictly
/// ascending; an overflow (+Inf) bucket is implicit.  Re-registering a
/// name reuses the first registration's bounds.
class Histogram {
 public:
  Histogram(const char* name, std::vector<double> upper_bounds);
  void observe(double value) const;
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> counts;  ///< size = upper_bounds.size() + 1
  std::uint64_t total = 0;            ///< sum of counts
  std::int64_t sum = 0;               ///< sum of llround(observed values)
};

/// One unified view: every registered counter, gauge, and histogram, each
/// section sorted by name.  Zero-valued entries are included (stable
/// layout).
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

MetricsSnapshot metrics_snapshot();

/// Determinism class of a metric name (fixed prefix table — see the file
/// comment).  Observational metrics are zeroed by deterministic exposition
/// and filtered from deterministic flight-recorder counter deltas.
bool metric_is_observational(std::string_view name);

/// Prometheus text exposition (text format 0.0.4): `# TYPE` line plus
/// samples per metric, names prefixed `gnsslna_` with [^a-zA-Z0-9_] mapped
/// to '_'.  Byte-stable: sections and entries follow the snapshot's
/// name-sorted order.  With deterministic = true observational values are
/// zeroed (layout unchanged).
std::string prometheus_text(const MetricsSnapshot& snapshot,
                            bool deterministic);

/// Interpolated quantile (midpoint rule): the q-quantile sample is ranked
/// k = floor(q * total) + 1 and placed at (k - 0.5)/n of its bucket's
/// width.  Returns 0 for an empty histogram; a rank landing in the
/// overflow bucket returns the last finite bound.
double histogram_quantile(const HistogramValue& h, double q);

/// Zeroes every gauge and histogram (registrations persist).  The metrics
/// counterpart of obs::reset(); tests and tools only.
void metrics_reset();

}  // namespace gnsslna::obs
