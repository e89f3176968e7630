// Runtime telemetry: counters and scoped span timers with deterministic,
// near-zero-overhead semantics.
//
// Design rules (see DESIGN.md "Observability"):
//   * Counter-based IDs — counters and span categories get dense ids in
//     first-registration order; snapshots are keyed by NAME, so merged
//     totals never depend on which thread happened to register first.
//   * Thread-local shards — every thread owns a private slot array.
//     Increments are single-writer relaxed atomics (no lock prefix, no
//     contention, TSan-clean); snapshots sum the live shards plus the
//     totals retired by exited threads.  Because counter values are
//     integers and addition is commutative, totals are bit-identical for
//     any thread count whenever the instrumented work itself is
//     deterministic (the numeric/parallel.h contract).
//   * No wall-clock in any value that feeds computation — counters and
//     span COUNTS are deterministic; span DURATIONS are observational
//     diagnostics only and are never fed back into any result.
//   * Compile-time kill switch — building with -DGNSSLNA_OBS=OFF removes
//     every instrumentation macro ((void)0 expansion: zero instructions in
//     the hot paths).  The API below still links so tools compile in both
//     modes; with instrumentation compiled out, snapshots are empty.
//   * Runtime switch — instrumentation compiled in but disabled (the
//     default) costs one relaxed atomic-bool load per site.  Enable with
//     the GNSSLNA_OBS=1 environment variable or obs::set_enabled(true).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gnsslna::obs {

/// True when instrumentation macros are compiled in (GNSSLNA_OBS=ON).
constexpr bool compiled_in() {
#if defined(GNSSLNA_OBS_ENABLED)
  return true;
#else
  return false;
#endif
}

/// Runtime master switch.  Initialized once from the GNSSLNA_OBS
/// environment variable ("1"/"true"/"on" enable); overridable at any time.
bool enabled();
void set_enabled(bool on);

/// Deterministic-output mode.  When on, instrumentation that would record
/// wall-clock durations records zeros at the source (job latencies, queue
/// waits, flight-event durations) and exports zero observational values,
/// so every telemetry artifact is a pure function of WHAT ran — byte-
/// identical across worker counts.  Span shard totals keep real durations
/// (they are observational-only by contract); exporters zero them.
/// Initialized from GNSSLNA_OBS_DETERMINISTIC ("1"/"true"/"on").
bool deterministic();
void set_deterministic(bool on);

/// A named monotonic counter.  Construction registers the name (idempotent:
/// the same name always maps to the same id); add() bumps this thread's
/// shard.  Intended use is through GNSSLNA_OBS_COUNT below, which hides the
/// registration behind a function-local static.
class Counter {
 public:
  explicit Counter(const char* name);
  void add(std::uint64_t n = 1) const;
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// A named span category (one per instrumentation site).
class SpanCategory {
 public:
  explicit SpanCategory(const char* name);
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// Scoped RAII timer: on destruction adds {count += 1, total_ns += dur}
/// to this thread's shard and, while span capture is running, appends one
/// flame-trace event.  Inert (two relaxed loads) when obs is disabled.
class Span {
 public:
  explicit Span(const SpanCategory& category);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_ = 0;
  std::uint64_t start_ns_ = 0;
  std::int32_t trace_index_ = -1;  ///< slot in the installed JobTrace
  bool active_ = false;
};

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< observational; excluded from determinism
};

/// Totals in id (= first registration) order.  Zero-valued entries are
/// included so snapshot layouts are stable.
std::vector<CounterValue> counter_snapshot();
std::vector<SpanStat> span_snapshot();

/// Registered names in id order (index == id).  Ids are assigned in
/// first-registration order and therefore process-dependent; anything
/// exported for comparison must be keyed by NAME.
std::vector<std::string> counter_names();
std::vector<std::string> span_names();

/// Fixed shard slot count (kMaxCounters): the valid id range for the
/// local-shard reads below and for FlightEvent counter-delta ids.
std::size_t counter_capacity();

/// Copies the CALLING thread's shard values for ids [0, n) into out.
/// Jobs run serial inside (service contract), so a before/after pair of
/// these reads yields the exact counter work of one job.
void read_local_counters(std::uint64_t* out, std::size_t n);

/// Difference a - b by name (names missing from b count from zero).  Order
/// follows a.
std::vector<CounterValue> counter_delta(const std::vector<CounterValue>& a,
                                        const std::vector<CounterValue>& b);

/// Zeroes every live shard and the retired totals.  Must not run
/// concurrently with instrumented work (tests and tools only).
void reset();

// --- Per-job trace context -------------------------------------------------
// The service scheduler installs a JobTrace on the worker thread for the
// duration of one job (jobs run serial inside, so every span the job's body
// opens lands on this thread).  While installed, each Span additionally
// appends one record at construction — (span id, per-job sequence, nesting
// depth) — and fills the duration at destruction, and span-capture events
// are tagged with the owning job id.  Records are in open order with
// explicit depth, so the caller can rebuild the span tree; sequence and
// depth depend only on WHAT the job ran, never on scheduling, which is what
// makes exported trees byte-identical across worker counts.

struct JobTrace {
  struct Record {
    std::uint32_t span_id = 0;   ///< SpanCategory id (resolve via span_names)
    std::uint32_t seq = 0;       ///< per-job open order
    std::uint16_t depth = 0;     ///< nesting depth at open (0 = top level)
    std::uint64_t dur_ns = 0;    ///< observational; zeroed by deterministic
                                 ///  exporters (0 while the span is open)
  };

  explicit JobTrace(std::uint64_t id) : job_id(id) {}

  std::uint64_t job_id = 0;
  std::vector<Record> records;   ///< open (= seq) order
  std::uint32_t next_seq = 0;
  std::uint16_t depth = 0;
};

/// Installs `trace` as the calling thread's active job trace (restores the
/// previous one on destruction).  The trace must outlive the scope.
class ScopedJobTrace {
 public:
  explicit ScopedJobTrace(JobTrace* trace);
  ~ScopedJobTrace();

  ScopedJobTrace(const ScopedJobTrace&) = delete;
  ScopedJobTrace& operator=(const ScopedJobTrace&) = delete;

 private:
  JobTrace* prev_;
};

/// The calling thread's active job trace; nullptr outside any job.
JobTrace* current_job_trace();

/// Appends one leaf record (no nesting change) to the active job trace —
/// for point events like optimizer generation barriers and for synthetic
/// phases whose duration was measured elsewhere (queue wait).  No-op when
/// obs is disabled or no trace is installed.
void job_trace_event(const SpanCategory& category, std::uint64_t dur_ns);

// --- Flame-style span capture ---------------------------------------------
// While capture is running every Span records a begin/end event into a
// thread-local buffer.  write_span_trace() merges the buffers and writes a
// Chrome trace-event JSON ("chrome://tracing" / Perfetto loadable).  Event
// timestamps are wall-clock and therefore observational; pass
// deterministic = true to zero them (events then sort by name + sequence),
// which makes the file diffable across runs and thread counts.
void start_span_capture();
void stop_span_capture();

/// Writes the captured events; returns false on I/O error.  Capture keeps
/// running (stop it explicitly if desired).
bool write_span_trace(const std::string& path, bool deterministic = false);

/// Drops all captured events.
void clear_span_capture();

}  // namespace gnsslna::obs

// --- Instrumentation macros ------------------------------------------------
// The only way hot-path code should touch obs.  With GNSSLNA_OBS=OFF these
// expand to nothing at all.
#if defined(GNSSLNA_OBS_ENABLED)

#define GNSSLNA_OBS_CONCAT_IMPL(a, b) a##b
#define GNSSLNA_OBS_CONCAT(a, b) GNSSLNA_OBS_CONCAT_IMPL(a, b)

/// Bumps the named counter by 1.
#define GNSSLNA_OBS_COUNT(name)                         \
  do {                                                  \
    static const ::gnsslna::obs::Counter obs_c_{name};  \
    obs_c_.add(1);                                      \
  } while (0)

/// Bumps the named counter by n.
#define GNSSLNA_OBS_COUNT_N(name, n)                    \
  do {                                                  \
    static const ::gnsslna::obs::Counter obs_c_{name};  \
    obs_c_.add(static_cast<std::uint64_t>(n));          \
  } while (0)

/// Times the enclosing scope under the named span category.
#define GNSSLNA_OBS_SPAN(name)                                       \
  static const ::gnsslna::obs::SpanCategory GNSSLNA_OBS_CONCAT(      \
      obs_sc_, __LINE__){name};                                      \
  const ::gnsslna::obs::Span GNSSLNA_OBS_CONCAT(obs_span_, __LINE__)(\
      GNSSLNA_OBS_CONCAT(obs_sc_, __LINE__))

#else  // instrumentation compiled out

#define GNSSLNA_OBS_COUNT(name) ((void)0)
#define GNSSLNA_OBS_COUNT_N(name, n) ((void)0)
#define GNSSLNA_OBS_SPAN(name) ((void)0)

#endif
