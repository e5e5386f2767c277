#include "sim/worker_pool.hpp"

#include <cstdlib>

#include "common/assert.hpp"

namespace flexrouter {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("FLEXROUTER_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

WorkerPool::WorkerPool(int threads)
    : threads_(threads), blocks_(static_cast<std::size_t>(threads)) {
  FR_REQUIRE(threads >= 1);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 1; w < threads; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::drain(int worker, int active, int items, Job job,
                       void* ctx) {
  // The first item of a block is its owner's alone, so no early-waking
  // worker can take every item of an epoch.
  job(ctx, worker * items / active);
  for (int k = 0; k < active; ++k) {
    Block& b = blocks_[static_cast<std::size_t>((worker + k) % active)];
    for (int i = b.next.fetch_add(1, std::memory_order_relaxed); i < b.end;
         i = b.next.fetch_add(1, std::memory_order_relaxed))
      job(ctx, i);
  }
}

void WorkerPool::run(int items, Job job, void* ctx) {
  FR_REQUIRE(items >= 0 && job != nullptr);
  const int active = threads_ < items ? threads_ : items;
  if (active <= 1) {
    for (int i = 0; i < items; ++i) job(ctx, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ctx_ = ctx;
    items_ = items;
    for (int w = 0; w < active; ++w) {
      Block& b = blocks_[static_cast<std::size_t>(w)];
      b.next.store(w * items / active + 1, std::memory_order_relaxed);
      b.end = (w + 1) * items / active;
    }
    outstanding_ = active - 1;
    ++epoch_;
  }
  cv_start_.notify_all();
  drain(0, active, items, job, ctx);
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0; });
}

void WorkerPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    void* ctx;
    int items;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
      ctx = ctx_;
      items = items_;
    }
    // Workers beyond the epoch's active count sit it out; only active ones
    // are counted in outstanding_.
    const int active = threads_ < items ? threads_ : items;
    if (worker >= active) continue;
    drain(worker, active, items, job, ctx);
    bool last;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = --outstanding_ == 0;
    }
    if (last) cv_done_.notify_one();
  }
}

}  // namespace flexrouter
