#include "util/worker_pool.h"

#include <sched.h>

#include <algorithm>
#include <chrono>

namespace amdgcnn::util {

namespace {

/// Set on every pool worker, and on a caller while it claims the items of
/// a parallel_for: a parallel_for started from such a thread runs inline.
thread_local bool tls_in_parallel = false;

/// How long a worker polls for the next job, after one it took part in,
/// before it parks; the caller polls as long for the join.  It covers the
/// serial stretch between two jobs (the trainer's gradient reduction and
/// optimiser step between batches), so no batch starts with a parked
/// thread's wake-up.  perfbench `train` on a 4-vCPU host, 10 alternated
/// pairs: 13.5% more links/s with it than without (better in 10 of 10);
/// serve-cold and serve-hot did not regress with the server's pool polling.
constexpr std::chrono::microseconds kSpin{5000};

/// Poll `done` for up to kSpin, yielding the CPU between polls.  The
/// caller still takes its blocking wait afterwards; this only lets it find
/// the condition already true.
template <typename Done>
void spin_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

}  // namespace

WorkerPool::WorkerPool(int num_workers) : num_workers_(num_workers) {
  if (num_workers < 1)
    throw PoolError("WorkerPool: num_workers must be >= 1");
  threads_.reserve(static_cast<std::size_t>(num_workers));
  for (int id = 0; id < num_workers; ++id)
    threads_.emplace_back([this, id] { worker_loop(id); });
}

WorkerPool::~WorkerPool() { shutdown(); }

bool WorkerPool::closed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

void WorkerPool::run(const char* stage, std::int64_t n, const WorkFn& fn,
                     int max_workers, bool caller_claims) {
  util::WorkerErrorCollector errors;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) throw PoolError("WorkerPool::run: pool is shut down");
    if (running_)
      throw PoolError("WorkerPool::run: a job is already in flight");
    if (n <= 0) return;
    job_seq_.fetch_add(1, std::memory_order_release);
    job_n_ = n;
    job_workers_ = std::clamp(max_workers, 1, num_workers_);
    job_fn_ = &fn;
    job_errors_ = &errors;
    next_.store(0, std::memory_order_relaxed);
    active_ = job_workers_;
    running_ = true;
  }
  work_cv_.notify_all();
  if (caller_claims) claim_items(fn, errors, n, num_workers_);
  spin_until([&] { return active_.load(std::memory_order_acquire) == 0; });
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
    running_ = false;
    job_fn_ = nullptr;
    job_errors_ = nullptr;
  }
  done_cv_.notify_all();  // unblock a shutdown() waiting for the join
  errors.rethrow(stage);
}

void WorkerPool::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    // Let an in-flight run() complete first: the caller resets running_
    // after the last worker leaves the job, then notifies done_cv_.
    done_cv_.wait(lock, [&] { return !running_; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void WorkerPool::claim_items(const WorkFn& fn, WorkerErrorCollector& errors,
                             std::int64_t n, int worker) {
  for (;;) {
    const std::int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      fn(i, worker);
    } catch (...) {
      errors.capture(i);
    }
  }
}

void WorkerPool::worker_loop(int id) {
  tls_in_parallel = true;
  std::uint64_t seen = 0;
  bool took_part = false;
  for (;;) {
    const WorkFn* fn;
    util::WorkerErrorCollector* errors;
    std::int64_t n;
    // Only a worker that took part in the last job polls for the next one;
    // one left out of it parks at once, so a job capped at k workers keeps
    // at most k of them busy.
    if (took_part)
      spin_until([&] {
        return job_seq_.load(std::memory_order_acquire) != seen;
      });
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || job_seq_ != seen; });
      if (job_seq_ == seen) return;  // stop_ with no new job
      seen = job_seq_;
      took_part = id < job_workers_;
      if (!took_part) continue;  // not counted in active_
      fn = job_fn_;
      errors = job_errors_;
      n = job_n_;
    }
    claim_items(*fn, *errors, n, id);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        done_cv_.notify_all();
    }
  }
}

int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void parallel_for(const char* stage, std::int64_t n, std::int64_t num_threads,
                  const std::function<void(std::int64_t)>& fn) {
  static const int cpus = cpu_count();
  const std::int64_t threads =
      std::min<std::int64_t>({num_threads <= 0 ? cpus : num_threads, cpus, n});
  if (threads > 1 && !tls_in_parallel) {
    // The caller claims items too, so the pool holds one thread fewer than
    // there are CPUs (a caller that only waited on a pool of one per CPU
    // cost perfbench `train` 5.5% of its links/s and added 5% peak RSS on a
    // 4-vCPU host, worse in 10 of 10 alternated pairs).  Constructed on
    // first use, so destroyed (threads joined, their thread-local state
    // released) before anything constructed earlier.
    static WorkerPool pool(cpus - 1);
    static std::mutex owner;  // one parallel_for on the pool at a time
    const std::unique_lock<std::mutex> hold(owner, std::try_to_lock);
    if (hold.owns_lock()) {
      tls_in_parallel = true;
      struct Reset {
        ~Reset() { tls_in_parallel = false; }
      } reset;
      pool.run(stage, n, [&](std::int64_t i, int) { fn(i); },
               static_cast<int>(threads - 1), /*caller_claims=*/true);
      return;
    }
  }
  // Inline: items in order, so the first failure is the lowest one.
  util::WorkerErrorCollector errors;
  for (std::int64_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      errors.capture(i);
      break;
    }
  }
  errors.rethrow(stage);
}

}  // namespace amdgcnn::util
