// Arithmetic and bookkeeping shared by every workload of the end-to-end
// benchmark: timing summaries, span self time, metric-name grammar, the
// in-memory span recorder, and the per-run report e2e_bench prints.
//
// Summaries use nearest-rank quantiles: the q-quantile of n sorted samples
// is sample ceil(q * n) (1-based).  A timing is reported as its median plus
// the highest percentile of the ladder p50, p90, p99, p99.9, ... that still
// has at least kTailBeyond samples above its rank, so a tail figure always
// rests on ten or more observations.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Quantiles ---------------------------------------------------------------

/// Samples a reported tail percentile must have beyond its rank.
inline constexpr std::size_t kTailBeyond = 10;

/// 1-based nearest rank of quantile q among n samples (n >= 1).
inline std::size_t nearest_rank(double q, std::size_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

/// The highest quantile of the ladder 0.5, 0.9, 0.99, 0.999, ... with at
/// least kTailBeyond of n samples ranked above it; 0.5 when even the median
/// has fewer (n < 20), so small samples report their median as the tail.
inline double tail_quantile(std::size_t n) {
  double best = 0.5;
  for (double q = 0.9; q < 1.0; q = 1.0 - (1.0 - q) / 10.0) {
    if (n < nearest_rank(q, n) + kTailBeyond) break;
    best = q;
    if (q > 0.999999) break;
  }
  return best;
}

/// "p50", "p90", "p99", "p99.9", ... for a ladder quantile.
inline std::string quantile_label(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%.10g", std::round(q * 1e6) / 1e4);
  return buf;
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.5;
  double mean = 0.0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = v[nearest_rank(0.5, v.size()) - 1];
  s.tail_q = tail_quantile(v.size());
  s.tail = v[nearest_rank(s.tail_q, v.size()) - 1];
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  return s;
}

// --- Span self time ------------------------------------------------------------

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Length of the union of `parts` clipped to `within`.  Children may nest,
/// overlap each other (pipelined requests) or stick out of the parent
/// (a reply that lands after the phase closed); each nanosecond counts once.
inline std::uint64_t covered_ns(const Interval& within,
                                std::vector<Interval> parts) {
  for (Interval& p : parts) {
    p.start = std::max(p.start, within.start);
    p.end = std::min(p.end, within.end);
  }
  std::erase_if(parts, [](const Interval& p) { return p.end <= p.start; });
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::uint64_t covered = 0, reach = within.start;
  for (const Interval& p : parts) {
    const std::uint64_t from = std::max(p.start, reach);
    if (p.end > from) {
      covered += p.end - from;
      reach = p.end;
    }
  }
  return covered;
}

/// Self time of a span: its duration minus the part its children cover.
inline std::uint64_t self_ns(const Interval& span,
                             std::vector<Interval> children) {
  const std::uint64_t dur = span.end > span.start ? span.end - span.start : 0;
  return dur - covered_ns(span, std::move(children));
}

// --- Names -------------------------------------------------------------------

/// Metric and span names: 1-64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// --- Span recorder -------------------------------------------------------------

/// In-memory span store for the traced run: (name, start, end, parent,
/// request id) per span, written out once at exit.  Single-threaded: every
/// traced call is made from the benchmark's main thread.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
  };

  /// Opens a span under the innermost open one; returns its index.
  std::int64_t open(const char* name, std::uint64_t request = 0) {
    spans_.push_back({name, now_ns(), 0, current(), request});
    stack_.push_back(static_cast<std::int64_t>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end = now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }
  /// Records a span timed elsewhere (a pipelined request) under the
  /// innermost open span.
  void add(const char* name, std::uint64_t start, std::uint64_t end,
           std::uint64_t request = 0) {
    spans_.push_back({name, start, end, current(), request});
  }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request = 0)
        : t_(t), index_(t.open(name, request)) {}
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int64_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  /// Per-name totals: count, total and self nanoseconds.
  struct Totals {
    std::size_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  std::vector<std::pair<std::string, Totals>> totals() const;

  /// Self time of span `index` (its duration minus its children's union).
  std::uint64_t self_of(std::size_t index) const;

  /// Writes one tab-separated line per span; false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::int64_t current() const { return stack_.empty() ? -1 : stack_.back(); }

  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

// --- Heap layout -----------------------------------------------------------------

/// Holds a seeded, randomly sized set of heap blocks while one operation
/// runs, so consecutive operations place the blocks they allocate at
/// different relative addresses.  The batched kernels stream several
/// lane-major arrays side by side, so their speed can depend on how those
/// arrays alias in the caches; a fresh layout per operation makes a run's
/// median cover many layouts instead of the one its process happened to get.
class HeapShuffle {
 public:
  explicit HeapShuffle(std::uint64_t draw) {
    std::uint64_t x = draw;
    const auto next = [&x] {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      return z ^ (z >> 31);
    };
    blocks_.resize(1 + next() % 16);
    for (std::vector<char>& b : blocks_) b.resize(16 * (1 + next() % 512));
  }

 private:
  std::vector<std::vector<char>> blocks_;
};

// --- Host reference ------------------------------------------------------------

/// How one pass of the reference kernel on several threads is read: an
/// operation that splits fixed work over its threads ends with the slowest
/// one; a pipeline that hands work to whichever thread is free runs at
/// their mean speed.
enum class RefPace { kSlowest, kMean };

/// Time [ms] of the benchmark's own reference kernel — a fixed 16-lane
/// complex LU elimination on a 15x15 system, the shape of the library's
/// band evaluation but none of its code — run on each of `threads` threads
/// at the same time: the median over three passes of the per-pass time read
/// by `pace`.
///
/// On a shared virtual host the speed of cache-resident numeric code swings
/// by up to 2x over tens of seconds while a plain floating-point loop hardly
/// moves; the reference kernel swings with the workloads.  The gated
/// metrics divide each operation's time by the reference time measured
/// right before and after it, so they read in "reference units" that a
/// faster library moves and a busier host does not.  Raw times are
/// reported beside them.
double reference_ms(std::size_t threads, RefPace pace);

/// Mean of reference_ms(threads, pace) taken before and after `op`; returns
/// the op's wall time [ms] and stores the reference time in *ref_ms.
template <typename Op>
double time_against_reference(std::size_t threads, RefPace pace,
                              double* ref_ms, Op&& op) {
  const double before = reference_ms(threads, pace);
  const std::uint64_t t0 = now_ns();
  op();
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  *ref_ms = 0.5 * (before + reference_ms(threads, pace));
  return ms;
}

/// Pins the calling thread to one CPU of its allowed set (`index` modulo the
/// set's size) for one single-threaded operation and restores the set
/// afterwards.  Other tenants load the cores of a shared host unevenly, and
/// the scheduler tends to keep a busy thread on one core for a whole run;
/// rotating the core per operation makes a run's median cover every core.
/// Never hold one across code that starts threads: they would inherit it.
class PinToCpu {
 public:
  explicit PinToCpu(std::size_t index);
  ~PinToCpu();
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// --- Per-run report ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

/// Everything one run prints: host context, metrics with units and sample
/// counts, correctness verdicts and the attempted/failed tally.
class Report {
 public:
  void context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, value);
  }
  void metric(std::string name, double value, std::string unit,
              std::size_t samples, std::string note = {});
  /// A timing as median plus tail: emits <base>_p50_<unit> and the tail
  /// figure under `tail_name` (its percentile in the note).
  void timing(const std::string& p50_name, const std::string& tail_name,
              const std::vector<double>& values, const std::string& unit);
  /// Records a correctness verdict; a false one marks the run incorrect.
  void check(bool ok, const std::string& what);
  void attempt(std::size_t n, std::size_t failed_n) {
    attempted += n;
    failed += failed_n;
  }

  /// Human-readable lines, then the machine line as the LAST line.
  void print(std::FILE* out) const;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;  ///< free-form report lines (stage tables)

 private:
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> checks_;
};

/// Peak resident set size of this process [MB] (VmHWM).
double peak_rss_mb();
/// Current resident set size [kB] (VmRSS).
double current_rss_kb();

}  // namespace e2e
