#include "service/plan_cache.h"

#include <cstring>
#include <iterator>

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
    // The most recently returned evaluator of this revision.
    for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
      if (it->revision == revision) {
        evaluator = it->evaluator.release();
        idle_.erase(std::next(it).base());
        break;
      }
    }
    set_residency_gauge(idle_.size());
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
  // An evicted evaluator is destroyed after the lock is released
  // (destruction frees sizeable workspaces).
  std::unique_ptr<amplifier::BandEvaluator> returned(evaluator);
  std::unique_ptr<amplifier::BandEvaluator> evicted;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back({revision, std::move(returned)});
    if (idle_.size() > kMaxIdle) {  // the least recently returned goes
      evicted = std::move(idle_.front().evaluator);
      idle_.erase(idle_.begin());
    }
    set_residency_gauge(idle_.size());
  }
  GNSSLNA_OBS_COUNT("service.plan_cache.returns");
  if (evicted != nullptr) GNSSLNA_OBS_COUNT("service.plan_cache.evictions");
}

std::size_t PlanCache::idle_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return idle_.size();
}

void PlanCache::clear() {
  std::vector<Idle> dropped;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dropped.swap(idle_);
    set_residency_gauge(0);
  }
}

PlanCache& PlanCache::process_wide() {
  static PlanCache cache;
  return cache;
}

}  // namespace gnsslna::service
