// The library's one thread pool: "run n independent items on T threads and
// wait". The sharded network step runs its shards on it every cycle, and
// the sweep engine runs grid points and certification tasks on it.
//
// The calling thread is worker 0, so `threads` workers means `threads - 1`
// spawned std::threads, and a one-worker pool runs everything on the
// caller. Each run() is one epoch of a mutex/condvar handshake. The items
// are split into one contiguous block per worker. Worker w runs the first
// item of its own block, then claims the rest of it and then what is left
// of the other blocks, each block from its own atomic cursor. With items ==
// workers, worker w runs item w on every epoch (the shard step's default);
// with more items, items of even cost still mostly stay on one worker, which
// keeps a shard's state in one core's cache, and uneven items balance. The
// handshake gives the caller a happens-before edge over every item's
// writes, and run() performs no allocation (the job is a raw function
// pointer + context, not a std::function).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace flexrouter {

/// Worker count for a requested count: `requested` if > 0, else the
/// FLEXROUTER_THREADS environment variable if set, else the core count.
int resolve_threads(int requested);

class WorkerPool {
 public:
  using Job = void (*)(void* ctx, int item);

  /// `threads` >= 1 total workers including the caller.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return threads_; }

  /// Run job(ctx, i) once for every item i in [0, items); blocks until all
  /// items completed. The job must not throw. Not reentrant.
  void run(int items, Job job, void* ctx);

 private:
  void worker_loop(int worker);
  /// Worker `worker`'s share of an epoch of `active` workers: the first
  /// item of its own block, then the unclaimed items of its block and of
  /// the blocks after it.
  void drain(int worker, int active, int items, Job job, void* ctx);

  /// Next unclaimed item of one worker's block, with its block's end. A
  /// cache line each, so claims on different blocks do not contend.
  struct alignas(64) Block {
    std::atomic<int> next{0};
    int end = 0;
  };

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  int threads_;
  std::uint64_t epoch_ = 0;
  int outstanding_ = 0;
  bool stop_ = false;
  Job job_ = nullptr;
  void* ctx_ = nullptr;
  int items_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace flexrouter
