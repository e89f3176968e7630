#include "numeric/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <unordered_map>

namespace gnsslna::numeric {

namespace {
// Set while a thread executes job bodies — for the lifetime of every pool
// worker, and on the submitting caller while it participates in its own
// job.  A parallel_for issued from inside a job body must run inline: a
// worker must not wait on the pool it is running on, and the caller already
// holds the submission lock.
thread_local bool tls_in_parallel_region = false;

/// The calling thread's PerThreadSlots index: owner id -> its slot, plus a
/// weak liveness token so entries of destroyed owners can be dropped.
struct ThreadSlotEntry {
  std::weak_ptr<void> alive;
  void* slot = nullptr;
};
thread_local std::unordered_map<std::uint64_t, ThreadSlotEntry> tls_slots;
}  // namespace

namespace detail {

std::uint64_t next_slot_owner_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void* find_thread_slot(std::uint64_t id) {
  const auto it = tls_slots.find(id);
  return it == tls_slots.end() ? nullptr : it->second.slot;
}

void remember_thread_slot(std::uint64_t id, std::weak_ptr<void> alive,
                          void* slot) {
  // Pruning on every first touch keeps the index no larger than the live
  // owners this thread touched plus those destroyed since its last first
  // touch — bounded on a long-lived worker that serves one owner per job.
  std::erase_if(tls_slots,
                [](const auto& entry) { return entry.second.alive.expired(); });
  tls_slots[id] = {std::move(alive), slot};
}

}  // namespace detail

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve_threads(std::size_t requested) {
  return requested == 0 ? hardware_threads() : requested;
}

struct ThreadPool::Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  // The fields below are guarded by the pool mutex.
  std::size_t tickets = 0;   ///< worker slots still open for joining
  std::size_t joined = 0;    ///< workers that took a ticket
  std::size_t finished = 0;  ///< joined workers that completed
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run_chunks(Job& job) {
  while (!job.abort.load(std::memory_order_relaxed)) {
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) break;
    const std::size_t end = std::min(job.n, begin + job.chunk);
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.body)(i);
    } catch (...) {
      job.abort.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
      break;
    }
  }
}

void ThreadPool::worker_loop() {
  tls_in_parallel_region = true;
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen_epoch = 0;
  for (;;) {
    wake_cv_.wait(lock, [&] {
      return shutdown_ ||
             (job_ != nullptr && epoch_ != seen_epoch && job_->tickets > 0);
    });
    if (shutdown_) return;
    Job& job = *job_;
    seen_epoch = epoch_;
    --job.tickets;
    ++job.joined;
    lock.unlock();
    run_chunks(job);
    lock.lock();
    ++job.finished;
    if (job.finished == job.joined) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              std::size_t max_threads) {
  if (n == 0) return;
  const std::size_t cap =
      max_threads == 0 ? workers() + 1 : std::max<std::size_t>(max_threads, 1);
  const std::size_t helpers = std::min({workers(), cap - 1, n - 1});
  if (helpers == 0 || tls_in_parallel_region) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::lock_guard<std::mutex> submit(submit_mutex_);
  Job job;
  job.body = &body;
  job.n = n;
  job.chunk = std::max<std::size_t>(1, n / (4 * (helpers + 1)));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.tickets = helpers;
    job_ = &job;
    ++epoch_;
  }
  wake_cv_.notify_all();
  // The caller is one of the participants; while it runs job bodies any
  // nested parallel_for must inline (it holds submit_mutex_).
  tls_in_parallel_region = true;
  run_chunks(job);  // does not throw: body exceptions land in job.error
  tls_in_parallel_region = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job.tickets = 0;  // close the joining window
    done_cv_.wait(lock, [&] { return job.finished == job.joined; });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::shared() {
  // At least one worker even on single-core machines, so that requesting
  // threads > 1 always exercises the genuinely concurrent code path (the
  // OS simply timeslices; answers are thread-count-independent anyway).
  static ThreadPool pool(std::max<std::size_t>(1, hardware_threads() - 1));
  return pool;
}

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t k = resolve_threads(threads);
  if (k <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool::shared().parallel_for(n, body, k);
}

}  // namespace gnsslna::numeric
