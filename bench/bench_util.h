// Shared console-table helpers for the experiment benches, plus a tiny
// machine-readable results channel: every bench accepts `--json <path>`
// and appends its headline numbers (name, iterations, ns/op and — where
// cheap to count — heap bytes per op) to a flat JSON file.  The committed
// BENCH_kernels.json baseline and the perf_smoke regression gate both
// speak this format.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#if defined(GNSSLNA_BENCH_COUNT_ALLOCS)
#include <new>
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace gnsslna::bench {

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void subheading(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Parses `--threads N` from the command line; returns `fallback` when the
/// flag is absent.  The value follows the library-wide convention
/// (0 = hardware_concurrency, 1 = serial, k = at most k threads).
inline std::size_t parse_threads(int argc, char** argv,
                                 std::size_t fallback = 0) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      return static_cast<std::size_t>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  return fallback;
}

/// Wall-clock stopwatch for the speedup reports.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Parses `--json <path>` from the command line; empty string when absent.
inline std::string parse_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return {};
}

/// Version of the JSON results format below.  Bump when records gain or
/// change fields; tests/test_bench_schema.cpp pins every committed
/// BENCH_*.json to the current version.
///   v1: name, iterations, ns_per_op, bytes_per_op
///   v2: + allocs_per_op (heap allocation COUNT), + peak_rss_kb
inline constexpr int kBenchSchemaVersion = 2;

/// Peak resident-set size of this process so far, in kilobytes; -1 when
/// the platform cannot report it.
inline double peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // bytes on macOS
#else
  return static_cast<double>(ru.ru_maxrss);  // kilobytes on Linux
#endif
#else
  return -1.0;
#endif
}

/// One bench measurement destined for the JSON results file.
struct BenchRecord {
  std::string name;
  std::uint64_t iterations = 0;
  double ns_per_op = 0.0;
  double bytes_per_op = -1.0;   ///< heap bytes per op; -1 = not measured
  double allocs_per_op = -1.0;  ///< heap allocations per op; -1 = not measured
  double peak_rss_kb = -1.0;    ///< process peak RSS when recorded
};

/// Collects BenchRecords and writes them as
///   {"schema_version": 2,
///    "benchmarks": [{"name": ..., "iterations": ..., "ns_per_op": ...,
///                    "bytes_per_op": ..., "allocs_per_op": ...,
///                    "peak_rss_kb": ...}, ...]}
/// No-op (and no file) when constructed with an empty path.
class JsonRecorder {
 public:
  explicit JsonRecorder(std::string path = {}) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  /// Adds (or, for a name already recorded, replaces) one measurement.
  /// Peak RSS is stamped automatically at call time.
  void add(const std::string& name, std::uint64_t iterations, double ns_per_op,
           double bytes_per_op = -1.0, double allocs_per_op = -1.0) {
    const BenchRecord rec{name,         iterations,    ns_per_op,
                          bytes_per_op, allocs_per_op, peak_rss_kb()};
    for (BenchRecord& r : records_) {
      if (r.name == name) {
        r = rec;
        return;
      }
    }
    records_.push_back(rec);
  }

  /// Writes the file; returns false (with a note on stderr) on I/O error.
  bool write() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"schema_version\": %d,\n  \"benchmarks\": [\n",
                 kBenchSchemaVersion);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"iterations\": %llu, "
                   "\"ns_per_op\": %.*f, \"bytes_per_op\": %.1f, "
                   "\"allocs_per_op\": %.2f, \"peak_rss_kb\": %.0f}%s\n",
                   r.name.c_str(),
                   static_cast<unsigned long long>(r.iterations),
                   r.ns_per_op < 100.0 ? 4 : 1, r.ns_per_op,
                   r.bytes_per_op, r.allocs_per_op, r.peak_rss_kb,
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string path_;
  std::vector<BenchRecord> records_;
};

/// Schema check for a JSON results file as written by JsonRecorder (used by
/// tests/test_bench_schema.cpp on every committed BENCH_*.json).  Verifies
/// the schema_version matches kBenchSchemaVersion and that every record
/// carries all v2 keys.  On failure returns false and, when `error` is
/// non-null, stores a human-readable reason.
inline bool validate_bench_json(const std::string& text, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::size_t v = text.find("\"schema_version\"");
  if (v == std::string::npos) return fail("missing schema_version");
  const std::size_t colon = text.find(':', v);
  if (colon == std::string::npos) return fail("malformed schema_version");
  const long version = std::strtol(text.c_str() + colon + 1, nullptr, 10);
  if (version != kBenchSchemaVersion) {
    return fail("schema_version " + std::to_string(version) + ", expected " +
                std::to_string(kBenchSchemaVersion));
  }
  std::size_t pos = 0;
  std::size_t records = 0;
  while ((pos = text.find("\"name\"", pos)) != std::string::npos) {
    const std::size_t end = text.find('}', pos);
    if (end == std::string::npos) return fail("unterminated record");
    const std::string record = text.substr(pos, end - pos);
    for (const char* key : {"\"iterations\"", "\"ns_per_op\"",
                            "\"bytes_per_op\"", "\"allocs_per_op\"",
                            "\"peak_rss_kb\""}) {
      if (record.find(key) == std::string::npos) {
        return fail("record " + std::to_string(records) + " missing " + key);
      }
    }
    ++records;
    pos = end;
  }
  if (records == 0) return fail("no benchmark records");
  return true;
}

/// Forgiving reader for the JsonRecorder format (and hand-edited baselines
/// in the same shape): scans for `"name": "..."` / `"<field_key>": <num>`
/// pairs in order, ignoring everything else.  Returns name -> field value.
inline std::vector<std::pair<std::string, double>> load_bench_json_field(
    const std::string& path, const char* field_key) {
  std::vector<std::pair<std::string, double>> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);

  const std::string quoted_key = std::string("\"") + field_key + "\"";
  std::string pending_name;
  std::size_t pos = 0;
  const auto find_key = [&](const char* key, std::size_t from) {
    return text.find(key, from);
  };
  while (true) {
    const std::size_t n = find_key("\"name\"", pos);
    if (n == std::string::npos) break;
    const std::size_t q1 = text.find('"', text.find(':', n) + 1);
    if (q1 == std::string::npos) break;
    const std::size_t q2 = text.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    pending_name = text.substr(q1 + 1, q2 - q1 - 1);
    const std::size_t v = find_key(quoted_key.c_str(), q2);
    if (v == std::string::npos) break;
    const std::size_t colon = text.find(':', v);
    if (colon == std::string::npos) break;
    out.emplace_back(pending_name,
                     std::strtod(text.c_str() + colon + 1, nullptr));
    pos = colon + 1;
  }
  return out;
}

/// load_bench_json_field() for the common ns_per_op lookup.
inline std::vector<std::pair<std::string, double>> load_bench_json(
    const std::string& path) {
  return load_bench_json_field(path, "ns_per_op");
}

/// Looks up one name in a load_bench_json() result; NaN-free: returns
/// `fallback` when missing.
inline double bench_json_ns(
    const std::vector<std::pair<std::string, double>>& entries,
    const std::string& name, double fallback = -1.0) {
  for (const auto& [n, ns] : entries) {
    if (n == name) return ns;
  }
  return fallback;
}

#if defined(GNSSLNA_BENCH_COUNT_ALLOCS)
/// Heap bytes / allocation count on this thread since program start.  Only
/// meaningful in translation units compiled with
/// GNSSLNA_BENCH_COUNT_ALLOCS, which must appear in exactly ONE
/// executable's main TU (the operator new replacement below is a program-
/// wide definition).
inline thread_local std::uint64_t g_alloc_bytes = 0;
inline thread_local std::uint64_t g_alloc_count = 0;

inline std::uint64_t alloc_bytes() { return g_alloc_bytes; }
inline std::uint64_t alloc_count() { return g_alloc_count; }
#endif

}  // namespace gnsslna::bench

#if defined(GNSSLNA_BENCH_COUNT_ALLOCS)
// Counting replacements for the usual allocation entry points.  One add
// per allocation keeps the timing impact far below measurement noise.
void* operator new(std::size_t n) {
  gnsslna::bench::g_alloc_bytes += n;
  ++gnsslna::bench::g_alloc_count;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  gnsslna::bench::g_alloc_bytes += n;
  ++gnsslna::bench::g_alloc_count;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
// GCC inlines these deletes into callers whose pointer came from operator
// new and flags the free() as mismatched (-Wmismatched-new-delete).  The
// pair is malloc/free by construction (the news above are malloc), so the
// warning is silenced for exactly these definitions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif
