#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace gnsslna::obs {

namespace {

std::size_t name_width(const std::vector<std::string>& names) {
  std::size_t w = 0;
  for (const std::string& n : names) w = std::max(w, n.size());
  return w;
}

}  // namespace

std::string format_counter_table(const std::vector<CounterValue>& counters,
                                 bool include_zeros) {
  std::vector<std::string> names;
  for (const CounterValue& c : counters) {
    if (c.value != 0 || include_zeros) names.push_back(c.name);
  }
  const std::size_t w = name_width(names);
  std::string out;
  char buf[128];
  for (const CounterValue& c : counters) {
    if (c.value == 0 && !include_zeros) continue;
    std::snprintf(buf, sizeof(buf), "  %-*s %12llu\n", static_cast<int>(w),
                  c.name.c_str(), static_cast<unsigned long long>(c.value));
    out += buf;
  }
  return out;
}

std::string format_span_table(const std::vector<SpanStat>& spans) {
  std::vector<std::string> names;
  for (const SpanStat& s : spans) {
    if (s.count != 0) names.push_back(s.name);
  }
  const std::size_t w = std::max<std::size_t>(name_width(names), 4);
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-*s %10s %12s %12s\n",
                static_cast<int>(w), "span", "count", "total ms", "mean us");
  out += buf;
  for (const SpanStat& s : spans) {
    if (s.count == 0) continue;
    const double total_ms = static_cast<double>(s.total_ns) / 1e6;
    const double mean_us =
        static_cast<double>(s.total_ns) / 1e3 / static_cast<double>(s.count);
    std::snprintf(buf, sizeof(buf), "  %-*s %10llu %12.3f %12.3f\n",
                  static_cast<int>(w), s.name.c_str(),
                  static_cast<unsigned long long>(s.count), total_ms, mean_us);
    out += buf;
  }
  return out;
}

std::string sparkline(const std::vector<double>& values) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  if (!(lo <= hi)) return out;  // all NaN or empty
  const double span = hi - lo;
  for (double v : values) {
    if (std::isnan(v)) {
      out += ' ';
      continue;
    }
    int level = 0;
    if (span > 0) {
      level = static_cast<int>((v - lo) / span * 7.0 + 0.5);
      level = std::clamp(level, 0, 7);
    }
    out += kLevels[level];
  }
  return out;
}

}  // namespace gnsslna::obs
