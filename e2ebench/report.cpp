#include <atomic>
#include <cinttypes>
#include <cstring>
#include <map>
#include <thread>

#include "bench_core.h"

namespace e2e {

namespace {

double status_field_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const std::size_t len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      kb = std::strtod(line + len, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

std::vector<std::vector<std::size_t>> children_of(
    const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      kids[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  return kids;
}

std::uint64_t self_with(const std::vector<Tracer::Span>& spans,
                        const std::vector<std::size_t>& kids,
                        std::size_t index) {
  std::vector<Interval> parts;
  parts.reserve(kids.size());
  for (std::size_t k : kids) parts.push_back({spans[k].start, spans[k].end});
  return self_ns({spans[index].start, spans[index].end}, std::move(parts));
}

}  // namespace

namespace {

/// One pass of the reference kernel over thread-private storage.
double reference_pass() {
  constexpr int n = 15, lanes = 16, reps = 60;
  std::vector<double> re(n * n * lanes), im(n * n * lanes);
  const std::uint64_t t0 = now_ns();
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < re.size(); ++i) {
      const std::size_t row = i / (n * lanes), col = (i / lanes) % n;
      re[i] = 1.0 + static_cast<double>(i % 7) * 0.1 + (row == col ? 4.0 : 0.0);
      im[i] = 0.5 - static_cast<double>(i % 5) * 0.05;
    }
    for (int k = 0; k < n; ++k) {
      const double* pr = &re[static_cast<std::size_t>((k * n + k) * lanes)];
      const double* pi = &im[static_cast<std::size_t>((k * n + k) * lanes)];
      for (int i = k + 1; i < n; ++i) {
        double* lr = &re[static_cast<std::size_t>((i * n + k) * lanes)];
        double* li = &im[static_cast<std::size_t>((i * n + k) * lanes)];
        for (int l = 0; l < lanes; ++l) {
          const double d = pr[l] * pr[l] + pi[l] * pi[l];
          const double fr = (lr[l] * pr[l] + li[l] * pi[l]) / d;
          const double fi = (li[l] * pr[l] - lr[l] * pi[l]) / d;
          lr[l] = fr;
          li[l] = fi;
        }
        for (int j = k + 1; j < n; ++j) {
          double* ar = &re[static_cast<std::size_t>((i * n + j) * lanes)];
          double* ai = &im[static_cast<std::size_t>((i * n + j) * lanes)];
          const double* ur = &re[static_cast<std::size_t>((k * n + j) * lanes)];
          const double* ui = &im[static_cast<std::size_t>((k * n + j) * lanes)];
          for (int l = 0; l < lanes; ++l) {
            ar[l] -= lr[l] * ur[l] - li[l] * ui[l];
            ai[l] -= lr[l] * ui[l] + li[l] * ur[l];
          }
        }
      }
    }
  }
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  // Keep the result observable so the kernel cannot be folded away.
  static std::atomic<double> sink{0.0};
  sink.store(re[17] + im[33], std::memory_order_relaxed);
  return ms;
}

}  // namespace

double reference_ms(std::size_t threads, RefPace pace) {
  // One 2-3 ms pass swings by +-30 % on a busy host; the median of three
  // is steady enough to scale an operation of tens of milliseconds.
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<double> ms(threads, 0.0);
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < threads; ++t) {
      pool.emplace_back([&ms, t] { ms[t] = reference_pass(); });
    }
    ms[0] = reference_pass();
    for (std::thread& t : pool) t.join();
    passes.push_back(pace == RefPace::kSlowest
                         ? *std::max_element(ms.begin(), ms.end())
                         : summarize(ms).mean);
  }
  return summarize(passes).p50;
}

PinToCpu::PinToCpu(std::size_t index) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count <= 1) return;
  int pick = static_cast<int>(index % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || pick-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinToCpu::~PinToCpu() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double peak_rss_mb() { return status_field_kb("VmHWM:") / 1024.0; }
double current_rss_kb() { return status_field_kb("VmRSS:"); }

std::uint64_t Tracer::self_of(std::size_t index) const {
  std::vector<std::size_t> kids;
  for (std::size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<std::int64_t>(index)) kids.push_back(i);
  }
  return self_with(spans_, kids, index);
}

std::vector<std::pair<std::string, Tracer::Totals>> Tracer::totals() const {
  const auto kids = children_of(spans_);
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = by_name[spans_[i].name];
    ++t.count;
    t.total_ns += spans_[i].end - spans_[i].start;
    t.self_ns += self_with(spans_, kids[i], i);
  }
  return {by_name.begin(), by_name.end()};
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\trequest\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%" PRIu64 "\t%" PRIu64 "\t%" PRId64 "\t%" PRIu64 "\n",
                 s.name, s.start, s.end, s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

void Report::metric(std::string name, double value, std::string unit,
                    std::size_t samples, std::string note) {
  if (!valid_name(name)) {
    check(false, "metric name '" + name + "' breaks the name grammar");
  }
  if (!std::isfinite(value)) check(false, "metric " + name + " is not finite");
  metrics.push_back({std::move(name), value, std::move(unit), samples,
                     std::move(note)});
}

void Report::timing(const std::string& p50_name, const std::string& tail_name,
                    const std::vector<double>& values,
                    const std::string& unit) {
  const Summary s = summarize(values);
  metric(p50_name, s.p50, unit, s.n, "median");
  metric(tail_name, s.tail, unit, s.n, quantile_label(s.tail_q));
}

void Report::check(bool ok, const std::string& what) {
  checks_.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
  if (!ok) correct = false;
}

void Report::print(std::FILE* out) const {
  for (const auto& [k, v] : context_) {
    std::fprintf(out, "context %-24s %s\n", k.c_str(), v.c_str());
  }
  for (const std::string& l : lines) std::fprintf(out, "%s\n", l.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(out, "metric  %-40s %14.6g %-8s n=%-7zu %s\n", m.name.c_str(),
                 m.value, m.unit.c_str(), m.samples, m.note.c_str());
  }
  for (const std::string& c : checks_) {
    std::fprintf(out, "check   %s\n", c.c_str());
  }
  std::fprintf(out, "verdict %s (%zu attempted, %zu failed)\n",
               correct && failed == 0 ? "correct" : "INCORRECT", attempted,
               failed);
  // Machine line: every metric with its unit and sample count.  Names obey
  // valid_name and units are plain ASCII, so nothing needs escaping.
  std::fprintf(out, "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                    "\"metrics\": {",
               correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no spelling for non-finite numbers; metric() already failed
    // the run for them.
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                      "\"samples\": %zu}",
                 i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str(),
                 m.samples);
  }
  std::fprintf(out, "}}\n");
  std::fflush(out);
}

}  // namespace e2e
