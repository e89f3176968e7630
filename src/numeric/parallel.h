// Deterministic parallel evaluation.
//
// Every fan-out hot path in the library (population optimizers, Monte-Carlo
// yield, corner analysis, frequency sweeps) funnels through the helpers in
// this header.  The contract is strict: parallelism changes wall-clock time,
// never answers.  Callers achieve that by doing all random-number draws and
// all order-dependent reductions on the calling thread, and handing the pool
// only pure per-index work whose results land in index-addressed slots.
//
// Thread-count semantics shared by every `threads` option in the library:
//   0  -> std::thread::hardware_concurrency()
//   1  -> serial on the calling thread (no pool is touched; the default)
//   k  -> at most k threads run concurrently (caller included)
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gnsslna::numeric {

/// Hardware thread count (always >= 1, even when the runtime reports 0).
std::size_t hardware_threads();

/// Maps the shared `threads` option convention onto a concrete count:
/// 0 -> hardware_threads(), anything else unchanged.
std::size_t resolve_threads(std::size_t requested);

/// A small fixed-size thread pool: no work stealing, one job at a time,
/// chunked index distribution over an atomic cursor.  Reusable across any
/// number of jobs; destruction joins the workers.
class ThreadPool {
 public:
  /// Spawns exactly `workers` worker threads (0 is valid: every job then
  /// runs inline on the caller).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Runs body(i) for every i in [0, n) exactly once and blocks until all
  /// are done.  The calling thread participates; at most `max_threads`
  /// threads (caller included, 0 = no cap) run concurrently.  The first
  /// exception thrown by the body is rethrown on the caller (remaining
  /// indices may be skipped).  A nested call from inside a worker runs
  /// inline serially, so helpers that use the shared pool compose without
  /// deadlocking.  With n > 1 and workers available, `body` must be safe to
  /// call concurrently from several threads.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    std::size_t max_threads = 0);

  /// The lazily-created process-wide pool used by the free helpers below:
  /// max(1, hardware_threads() - 1) workers, so the caller plus the workers
  /// saturate the machine and threads > 1 is concurrent even on one core.
  static ThreadPool& shared();

 private:
  struct Job;

  void worker_loop();
  void run_chunks(Job& job);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;  ///< workers: a job is open for joining
  std::condition_variable done_cv_;  ///< caller: all joined workers finished
  std::mutex submit_mutex_;          ///< serializes concurrent submitters
  Job* job_ = nullptr;               ///< current job, guarded by mutex_
  std::uint64_t epoch_ = 0;          ///< bumped per job (workers join once)
  bool shutdown_ = false;
};

/// Runs body(i) for i in [0, n) under the shared-pool `threads` convention
/// documented above.  threads == 1 is a plain serial loop.
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Evaluates f(i) for i in [0, n) and returns the results in index order —
/// the deterministic fan-out primitive: the output is independent of the
/// thread count by construction.  R must be default-constructible.
template <typename F>
auto parallel_map(std::size_t threads, std::size_t n, F&& f)
    -> std::vector<std::decay_t<decltype(f(std::size_t{0}))>> {
  std::vector<std::decay_t<decltype(f(std::size_t{0}))>> out(n);
  parallel_for(threads, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

namespace detail {
/// Unique, never reused PerThreadSlots instance id.
std::uint64_t next_slot_owner_id();
/// The calling thread's slot of owner `id`, or nullptr; takes no lock.
void* find_thread_slot(std::uint64_t id);
/// Indexes `slot` as the calling thread's slot of owner `id`, first
/// dropping the entries of owners whose `alive` token has expired.
void remember_thread_slot(std::uint64_t id, std::weak_ptr<void> alive,
                          void* slot);
}  // namespace detail

/// One lazily constructed Slot per calling thread, OWNED by this object:
/// the per-thread memo of an object whose closures parallel_map may run
/// concurrently (one Slot per thread, so no two threads share mutable
/// state).  Destroying the owner frees the slots of every thread that
/// touched it.  A thread finds its existing slot through a thread-local
/// index keyed by the owner's unique instance id (never by address, which
/// a later owner could reuse) without taking a lock; only a thread's first
/// touch locks, to create and register its slot.
template <typename Slot>
class PerThreadSlots {
 public:
  PerThreadSlots() = default;
  PerThreadSlots(const PerThreadSlots&) = delete;
  PerThreadSlots& operator=(const PerThreadSlots&) = delete;

  /// The calling thread's slot, default-constructed on first use.
  Slot& local() const {
    if (void* hit = detail::find_thread_slot(id_)) {
      return *static_cast<Slot*>(hit);
    }
    Slot* slot = nullptr;
    {
      const std::lock_guard<std::mutex> lock(owned_->mutex);
      slot = owned_->slots.emplace_back(std::make_unique<Slot>()).get();
    }
    detail::remember_thread_slot(id_, owned_, slot);
    return *slot;
  }

 private:
  struct Owned {
    std::mutex mutex;
    std::vector<std::unique_ptr<Slot>> slots;
  };
  std::uint64_t id_ = detail::next_slot_owner_id();
  /// Sole strong reference: the thread-local index entries hold weak ones,
  /// which is how a thread learns that an owner it touched is gone.
  std::shared_ptr<Owned> owned_ = std::make_shared<Owned>();
};

}  // namespace gnsslna::numeric
