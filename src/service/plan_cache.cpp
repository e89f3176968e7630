#include "service/plan_cache.h"

#include <cstring>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace gnsslna::service {

namespace {

void set_residency_gauge(std::size_t idle) {
  if (!obs::compiled_in() || !obs::enabled()) return;
  static const obs::Gauge g("service.plan_cache.idle");
  g.set(static_cast<std::int64_t>(idle));
}

/// FNV-1a over raw byte images: doubles hash by bit pattern, so any value
/// change — however small — changes the revision, and equal values always
/// hash equally (there are no NaNs or signed zeros in a validated config).
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(bool v) {
    const unsigned char b = v ? 1 : 0;
    add_bytes(&b, 1);
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

std::uint64_t topology_revision(const amplifier::AmplifierConfig& config,
                                const std::vector<double>& band_hz) {
  amplifier::AmplifierConfig resolved = config;
  resolved.resolve();  // w50 synthesis: unresolved and resolved copies of
                       // the same board must map to one revision

  Fnv1a h;
  const microstrip::Substrate& sub = resolved.substrate;
  h.add(sub.epsilon_r);
  h.add(sub.height_m);
  h.add(sub.copper_thickness_m);
  h.add(sub.tan_delta);
  h.add(sub.resistivity_ohm_m);
  h.add(sub.roughness_rms_m);

  h.add(resolved.vdd);
  h.add(resolved.w50_m);
  h.add(resolved.w_bias_m);
  h.add(resolved.l_bias_m);
  h.add(resolved.c_dec_f);
  h.add(resolved.c_gate_dec_f);
  h.add(resolved.r_gate_bias);
  h.add(static_cast<std::uint64_t>(resolved.package));
  h.add(resolved.dispersive_passives);
  h.add(resolved.model_tee);
  h.add(resolved.t_ambient_k);

  h.add(static_cast<std::uint64_t>(band_hz.size()));
  for (const double f : band_hz) h.add(f);
  return h.value();
}

PlanCache::Lease PlanCache::acquire(std::uint64_t revision,
                                    const device::Phemt& device,
                                    const amplifier::AmplifierConfig& config,
                                    const std::vector<double>& band_hz) {
  GNSSLNA_OBS_SPAN("service.plan_cache.acquire");
  amplifier::BandEvaluator* evaluator = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = idle_.find(revision);
    if (it != idle_.end() && !it->second.empty()) {
      evaluator = it->second.back().release();
      it->second.pop_back();
      --idle_total_;
    }
    set_residency_gauge(idle_total_);
  }
  if (evaluator != nullptr) {
    GNSSLNA_OBS_COUNT("service.plan_cache.hits");
  } else {
    // Build outside the lock: plan construction is the expensive part and
    // concurrent misses on different revisions must not serialize.
    GNSSLNA_OBS_COUNT("service.plan_cache.misses");
    evaluator = new amplifier::BandEvaluator(device, config, band_hz);
  }
  return Lease(evaluator, [this, revision](amplifier::BandEvaluator* e) {
    release(revision, e);
  });
}

void PlanCache::release(std::uint64_t revision,
                        amplifier::BandEvaluator* evaluator) {
  std::unique_ptr<amplifier::BandEvaluator> owned(evaluator);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::unique_ptr<amplifier::BandEvaluator>>& pool =
        idle_[revision];
    if (pool.size() < max_idle_per_revision_) {
      pool.push_back(std::move(owned));
      ++idle_total_;
      set_residency_gauge(idle_total_);
      GNSSLNA_OBS_COUNT("service.plan_cache.returns");
      return;
    }
  }
  // Pool full: drop the evaluator (outside the lock — destruction frees
  // sizeable workspaces).
  GNSSLNA_OBS_COUNT("service.plan_cache.evictions");
}

std::size_t PlanCache::idle_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [revision, pool] : idle_) n += pool.size();
  return n;
}

void PlanCache::clear() {
  std::unordered_map<std::uint64_t,
                     std::vector<std::unique_ptr<amplifier::BandEvaluator>>>
      dropped;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dropped.swap(idle_);
    idle_total_ = 0;
    set_residency_gauge(0);
  }
}

PlanCache& PlanCache::process_wide() {
  static PlanCache cache;
  return cache;
}

}  // namespace gnsslna::service
