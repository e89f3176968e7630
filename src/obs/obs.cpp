#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace gnsslna::obs {

namespace {

// Fixed shard capacity: registration throws past these, which surfaces at
// the new instrumentation site's first execution, never silently.
constexpr std::size_t kMaxCounters = 192;
constexpr std::size_t kMaxSpans = 64;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanEvent {
  std::uint32_t id = 0;
  std::uint32_t tid = 0;       ///< shard registration index (stable per run)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t job = 0;       ///< owning service job id; 0 = none
};

struct Shard;
struct EventBuffer;

/// Leaked singleton: worker threads (and their thread-local shards) may
/// outlive every other static, so the registry must never be destroyed.
struct Registry {
  std::mutex mutex;

  std::vector<std::string> counter_names;
  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::vector<std::string> span_names;
  std::unordered_map<std::string, std::uint32_t> span_ids;

  std::vector<Shard*> shards;
  std::uint64_t retired_counters[kMaxCounters] = {};
  std::uint64_t retired_span_count[kMaxSpans] = {};
  std::uint64_t retired_span_ns[kMaxSpans] = {};

  std::vector<EventBuffer*> event_buffers;
  std::vector<SpanEvent> retired_events;
  std::uint32_t next_shard_tid = 0;

  static Registry& get() {
    static Registry* g = new Registry;  // intentionally leaked
    return *g;
  }
};

/// Per-thread slot arrays.  Each slot is written only by its owning thread
/// (relaxed load+store, no RMW needed), and read by snapshots — atomics
/// make that pattern race-free and TSan-clean.
struct Shard {
  std::atomic<std::uint64_t> counters[kMaxCounters] = {};
  std::atomic<std::uint64_t> span_count[kMaxSpans] = {};
  std::atomic<std::uint64_t> span_ns[kMaxSpans] = {};
  std::uint32_t tid = 0;

  Shard() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    tid = r.next_shard_tid++;
    r.shards.push_back(this);
  }

  ~Shard() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      r.retired_counters[i] += counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxSpans; ++i) {
      r.retired_span_count[i] +=
          span_count[i].load(std::memory_order_relaxed);
      r.retired_span_ns[i] += span_ns[i].load(std::memory_order_relaxed);
    }
    r.shards.erase(std::find(r.shards.begin(), r.shards.end(), this));
  }

  void bump(std::atomic<std::uint64_t>& slot, std::uint64_t n) {
    // Single-writer: plain load+store instead of a locked fetch_add.
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
};

Shard& local_shard() {
  thread_local Shard shard;
  return shard;
}

/// Captured span events of one thread.  Registered like shards; retired
/// events are moved into the registry on thread exit so traces survive
/// short-lived threads.
struct EventBuffer {
  std::vector<SpanEvent> events;

  EventBuffer() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.event_buffers.push_back(this);
  }

  ~EventBuffer() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.retired_events.insert(r.retired_events.end(), events.begin(),
                            events.end());
    r.event_buffers.erase(
        std::find(r.event_buffers.begin(), r.event_buffers.end(), this));
  }
};

EventBuffer& local_events() {
  thread_local EventBuffer buffer;
  return buffer;
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "on") == 0;
}

std::atomic<bool> g_enabled{env_flag("GNSSLNA_OBS")};
std::atomic<bool> g_deterministic{env_flag("GNSSLNA_OBS_DETERMINISTIC")};
std::atomic<bool> g_capture{false};

thread_local JobTrace* t_job_trace = nullptr;

std::uint32_t register_name(std::vector<std::string>& names,
                            std::unordered_map<std::string, std::uint32_t>& ids,
                            const char* name, std::size_t capacity,
                            const char* kind) {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  if (names.size() >= capacity) {
    throw std::length_error(std::string("obs: too many ") + kind +
                            " registrations (raise kMax in obs.cpp)");
  }
  const std::uint32_t id = static_cast<std::uint32_t>(names.size());
  names.emplace_back(name);
  ids.emplace(name, id);
  return id;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool deterministic() { return g_deterministic.load(std::memory_order_relaxed); }

void set_deterministic(bool on) {
  g_deterministic.store(on, std::memory_order_relaxed);
}

Counter::Counter(const char* name)
    : id_(register_name(Registry::get().counter_names,
                        Registry::get().counter_ids, name, kMaxCounters,
                        "counter")) {}

void Counter::add(std::uint64_t n) const {
  if (!enabled()) return;
  Shard& s = local_shard();
  s.bump(s.counters[id_], n);
}

SpanCategory::SpanCategory(const char* name)
    : id_(register_name(Registry::get().span_names, Registry::get().span_ids,
                        name, kMaxSpans, "span")) {}

Span::Span(const SpanCategory& category) {
  if (!enabled()) return;
  id_ = category.id();
  start_ns_ = now_ns();
  active_ = true;
  if (JobTrace* t = t_job_trace) {
    // Record at OPEN so parents precede children in seq order; the
    // duration is filled at close.
    trace_index_ = static_cast<std::int32_t>(t->records.size());
    t->records.push_back({id_, t->next_seq++, t->depth++, 0});
  }
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  Shard& s = local_shard();
  s.bump(s.span_count[id_], 1);
  s.bump(s.span_ns[id_], end - start_ns_);
  std::uint64_t job = 0;
  if (trace_index_ >= 0) {
    if (JobTrace* t = t_job_trace) {
      t->records[static_cast<std::size_t>(trace_index_)].dur_ns =
          end - start_ns_;
      if (t->depth > 0) --t->depth;
      job = t->job_id;
    }
  }
  if (g_capture.load(std::memory_order_relaxed)) {
    local_events().events.push_back({id_, s.tid, start_ns_, end, job});
  }
}

ScopedJobTrace::ScopedJobTrace(JobTrace* trace) : prev_(t_job_trace) {
  t_job_trace = trace;
}

ScopedJobTrace::~ScopedJobTrace() { t_job_trace = prev_; }

JobTrace* current_job_trace() { return t_job_trace; }

void job_trace_event(const SpanCategory& category, std::uint64_t dur_ns) {
  if (!enabled()) return;
  JobTrace* t = t_job_trace;
  if (t == nullptr) return;
  t->records.push_back({category.id(), t->next_seq++, t->depth, dur_ns});
}

std::vector<CounterValue> counter_snapshot() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<CounterValue> out(r.counter_names.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].name = r.counter_names[i];
    out[i].value = r.retired_counters[i];
  }
  for (const Shard* s : r.shards) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].value += s->counters[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::vector<SpanStat> span_snapshot() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<SpanStat> out(r.span_names.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].name = r.span_names[i];
    out[i].count = r.retired_span_count[i];
    out[i].total_ns = r.retired_span_ns[i];
  }
  for (const Shard* s : r.shards) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].count += s->span_count[i].load(std::memory_order_relaxed);
      out[i].total_ns += s->span_ns[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::vector<std::string> counter_names() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.counter_names;
}

std::vector<std::string> span_names() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.span_names;
}

std::size_t counter_capacity() { return kMaxCounters; }

void read_local_counters(std::uint64_t* out, std::size_t n) {
  Shard& s = local_shard();
  const std::size_t m = n < kMaxCounters ? n : kMaxCounters;
  for (std::size_t i = 0; i < m; ++i) {
    out[i] = s.counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = m; i < n; ++i) out[i] = 0;
}

std::vector<CounterValue> counter_delta(const std::vector<CounterValue>& a,
                                        const std::vector<CounterValue>& b) {
  std::vector<CounterValue> out;
  out.reserve(a.size());
  for (const CounterValue& va : a) {
    std::uint64_t base = 0;
    for (const CounterValue& vb : b) {
      if (vb.name == va.name) {
        base = vb.value;
        break;
      }
    }
    out.push_back({va.name, va.value - base});
  }
  return out;
}

void reset() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::fill(std::begin(r.retired_counters), std::end(r.retired_counters),
            std::uint64_t{0});
  std::fill(std::begin(r.retired_span_count), std::end(r.retired_span_count),
            std::uint64_t{0});
  std::fill(std::begin(r.retired_span_ns), std::end(r.retired_span_ns),
            std::uint64_t{0});
  for (Shard* s : r.shards) {
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      s->counters[i].store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxSpans; ++i) {
      s->span_count[i].store(0, std::memory_order_relaxed);
      s->span_ns[i].store(0, std::memory_order_relaxed);
    }
  }
}

void start_span_capture() {
  g_capture.store(true, std::memory_order_relaxed);
}

void stop_span_capture() {
  g_capture.store(false, std::memory_order_relaxed);
}

void clear_span_capture() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.retired_events.clear();
  for (EventBuffer* b : r.event_buffers) b->events.clear();
}

bool write_span_trace(const std::string& path, bool deterministic) {
  std::vector<SpanEvent> events;
  std::vector<std::string> names;
  {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lock(r.mutex);
    events = r.retired_events;
    for (const EventBuffer* b : r.event_buffers) {
      events.insert(events.end(), b->events.begin(), b->events.end());
    }
    names = r.span_names;
  }
  if (deterministic) {
    // Strip wall-clock and thread placement; order by (name id, owning job)
    // with the original per-thread sequence collapsed by a stable sort, so
    // the file depends only on WHAT ran, not when or where.  Events that
    // agree on (id, job) serialize to identical rows, so the residual
    // interleaving order cannot leak into the bytes.
    std::stable_sort(events.begin(), events.end(),
                     [](const SpanEvent& a, const SpanEvent& b) {
                       return a.id != b.id ? a.id < b.id : a.job < b.job;
                     });
    for (SpanEvent& e : events) {
      e.tid = 0;
      e.start_ns = 0;
      e.end_ns = 0;
    }
  } else {
    std::stable_sort(events.begin(), events.end(),
                     [](const SpanEvent& a, const SpanEvent& b) {
                       return a.start_ns < b.start_ns;
                     });
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return false;
  }
  // Chrome trace-event "X" (complete) events; ts/dur are microseconds.
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::uint64_t origin = events.empty() ? 0 : events.front().start_ns;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    const double ts = static_cast<double>(e.start_ns - origin) / 1e3;
    const double dur = static_cast<double>(e.end_ns - e.start_ns) / 1e3;
    if (e.job != 0) {
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"job\": %llu}}%s\n",
                   e.id < names.size() ? names[e.id].c_str() : "?", e.tid, ts,
                   dur, static_cast<unsigned long long>(e.job),
                   i + 1 < events.size() ? "," : "");
    } else {
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                   e.id < names.size() ? names[e.id].c_str() : "?", e.tid, ts,
                   dur, i + 1 < events.size() ? "," : "");
    }
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return true;
}

}  // namespace gnsslna::obs
