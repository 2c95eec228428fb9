// The one parallel runtime (DESIGN.md §2.8): a persistent fork-join worker
// pool, and parallel_for on top of a process-wide instance of it.
//
// Workers park on a condition variable between jobs (ggml-threading style),
// after polling a few milliseconds for the next one, so dispatching a job
// costs at most one notify instead of a thread launch, and
// everything a worker owns through thread-local storage — its inference
// arena, its extraction scratch, its tensor buffer pools — stays warm from
// one job to the next.
//
// run() is a blocking fork-join over [0, n): items are claimed from a shared
// atomic counter (a dynamic schedule), each item writes only its own
// outputs, and failures funnel through util::WorkerErrorCollector — after
// the join the lowest failing item is rethrown as util::WorkerError with
// stage context, deterministically for any worker count.  One job runs at a
// time per pool.
//
// parallel_for() is what library loops use (dataset build, training batches,
// batched inference, heuristics, baselines); serve::Server owns a pool of its
// own because its per-worker state is keyed by the worker index.
#pragma once

#include <atomic>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel_error.h"

namespace amdgcnn::util {

/// Misuse of a pool itself (invalid size, run after shutdown, overlapping
/// runs) — distinct from util::WorkerError, which wraps failures raised by
/// the work *inside* a job.
class PoolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class WorkerPool {
 public:
  /// Worker function: invoked once per item with the claiming worker's index
  /// in [0, num_workers).  The worker index selects per-worker scratch; it
  /// must never influence output bytes (that is what keeps results identical
  /// for any worker count).
  using WorkFn = std::function<void(std::int64_t item, int worker)>;

  /// Spawns `num_workers` (>= 1) threads, parked until the first run().
  /// After a job it took part in, a worker polls (yielding its CPU) for a
  /// few milliseconds for the next one before it parks, and the caller
  /// polls as long for the join: back-to-back jobs then skip the wake-up
  /// of a parked thread.
  explicit WorkerPool(int num_workers);
  ~WorkerPool();  // implies shutdown()

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// Blocking fork-join: run fn(item, worker) for every item in [0, n) on
  /// workers [0, min(max_workers, num_workers)), plus the calling thread as
  /// worker num_workers() when `caller_claims`.  Exceptions thrown by fn
  /// are collected per item; after the join the failure with the LOWEST
  /// item index is rethrown as util::WorkerError
  /// ("<stage>: worker failed at item N: ...") with the original nested.
  /// Throws PoolError if the pool is shut down or another run() is in
  /// flight.
  void run(const char* stage, std::int64_t n, const WorkFn& fn,
           int max_workers = INT_MAX, bool caller_claims = false);

  /// Park the threads permanently and join them.  Waits for an in-flight
  /// run() to finish first (graceful); idempotent — a second call returns
  /// immediately.  After shutdown, run() throws PoolError.
  void shutdown();
  bool closed() const;

 private:
  void worker_loop(int id);
  void claim_items(const WorkFn& fn, WorkerErrorCollector& errors,
                   std::int64_t n, int worker);

  const int num_workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: new job available / stop
  std::condition_variable done_cv_;  // caller: all workers left the job
  std::vector<std::thread> threads_;

  // Current job, valid while active_ > 0.  Workers detect a new job by the
  // sequence number changing; those with id < job_workers_ claim items from
  // next_, and the last one out signals done_cv_.  job_seq_ and active_ are
  // written under mu_ and atomic only so the spin phases can poll them.
  std::atomic<std::uint64_t> job_seq_{0};
  std::int64_t job_n_ = 0;
  int job_workers_ = 0;
  const WorkFn* job_fn_ = nullptr;
  util::WorkerErrorCollector* job_errors_ = nullptr;
  std::atomic<std::int64_t> next_{0};
  std::atomic<int> active_{0};  // workers still inside the current job
  bool running_ = false;  // a run() is in flight
  bool stop_ = false;
};

/// CPU count of this process's affinity mask (>= 1).
int cpu_count();

/// Run fn(i) for every i in [0, n) on the calling thread plus the
/// process-wide pool, created on first use with cpu_count() - 1 workers and
/// joined at exit.  At most `num_threads` threads claim items, the caller
/// included (<= 0: one per CPU).  A failure surfaces after the join as
/// util::WorkerError for the lowest failing i.
///
/// The loop runs inline on the calling thread instead — same WorkerError
/// contract, same bytes — when at most one thread would take part, when the
/// call is nested inside a pool worker or another parallel_for (nested
/// loops serialise), or when another caller holds the pool.  The pool's
/// workers poll briefly for the next loop before they park, so
/// back-to-back loops (training batches) skip a wake-up.
void parallel_for(const char* stage, std::int64_t n, std::int64_t num_threads,
                  const std::function<void(std::int64_t)>& fn);

}  // namespace amdgcnn::util
