// Human-readable rendering of obs snapshots: aligned counter / span tables
// and a unicode convergence sparkline.  Pure formatting — no registry access
// — so tools can render arbitrary snapshots (e.g. deltas).
#pragma once

#include <string>
#include <vector>

#include "obs/obs.h"

namespace gnsslna::obs {

/// Aligned two-column table ("name  value"), zero-valued rows skipped unless
/// include_zeros.  Empty string when there is nothing to show.
std::string format_counter_table(const std::vector<CounterValue>& counters,
                                 bool include_zeros = false);

/// Aligned table of span name / count / total ms / mean µs, zero-count rows
/// skipped.
std::string format_span_table(const std::vector<SpanStat>& spans);

/// One-line unicode sparkline (▁▂▃▄▅▆▇█) of the values, min-max scaled.
/// NaNs render as spaces.  Empty input yields an empty string.
std::string sparkline(const std::vector<double>& values);

}  // namespace gnsslna::obs
