#include "common/parallel.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace lfbs {

namespace {

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// One parallel_for call. It lives on the caller's stack, and the caller
/// returns only once no helper holds it.
struct Job {
  Job(std::size_t n_, const std::function<void(std::size_t)>& task_)
      : n(n_), task(task_), errors(n_) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& task;
  std::atomic<std::size_t> next{0};  ///< the lowest unclaimed index
  std::size_t helpers = 0;  ///< helpers running its tasks; under Pool::mu_
  /// Per index; written only by the thread that ran that task.
  std::vector<std::exception_ptr> errors;
};

/// Claims and runs the job's tasks until none is left unclaimed.
void run_tasks(Job& job) {
  for (std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
       i < job.n; i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      job.task(i);
    } catch (...) {
      job.errors[i] = std::current_exception();
    }
  }
}

class Pool {
 public:
  /// `forked_from` is the parent process's pool when a forked child makes
  /// its own. Its mutex may have been copied held and its condition
  /// variables with waiters that do not exist here, so it is never touched,
  /// only kept reachable.
  Pool(std::size_t helpers, Pool* forked_from)
      : forked_from_(forked_from), wanted_(helpers) {}

  /// Only a pool that lost the race to become its process's pool is
  /// destroyed; the installed one lives until the process exits.
  ~Pool() { park(); }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  pid_t owner() const { return owner_; }

  void run(std::size_t n, const std::function<void(std::size_t)>& task) {
    Job job(n, task);
    std::size_t wake = 0;
    if (n > 1) {
      std::lock_guard<std::mutex> lock(mu_);
      start_helpers();
      if (!helpers_.empty()) {
        queue_.push_back(&job);
        // The caller takes a task too: one helper per other task at most.
        wake = std::min(n - 1, helpers_.size());
      }
    }
    for (std::size_t w = 0; w < wake; ++w) work_.notify_one();
    run_tasks(job);
    if (wake > 0) {
      std::unique_lock<std::mutex> lock(mu_);
      std::erase(queue_, &job);
      idle_.wait(lock, [&] { return job.helpers == 0; });
    }
    for (const std::exception_ptr& error : job.errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  /// Stops and joins the helpers, which first finish the job they hold.
  /// Until resume(), run() starts none and runs every task on its caller.
  /// Before a fork this leaves no thread of the pool to be copied, so the
  /// child is as single-threaded as its parent was without the pool.
  void park() {
    std::vector<std::thread> stopping;
    {
      std::lock_guard<std::mutex> lock(mu_);
      parked_ = true;
      stopping.swap(helpers_);
    }
    work_.notify_all();
    for (std::thread& t : stopping) t.join();
  }

  void resume() {
    std::lock_guard<std::mutex> lock(mu_);
    parked_ = false;
  }

 private:
  /// Under mu_. A helper that fails to start is not asked for again.
  void start_helpers() {
    if (parked_) return;
    while (helpers_.size() < wanted_) {
      try {
        helpers_.emplace_back([this] { helper_loop(); });
      } catch (const std::system_error&) {
        wanted_ = helpers_.size();
      }
    }
  }

  void helper_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_.wait(lock, [&] { return parked_ || !queue_.empty(); });
      if (parked_) return;
      Job& job = *queue_.front();
      ++job.helpers;
      lock.unlock();
      run_tasks(job);
      lock.lock();
      // Every task of the job is claimed: no other helper need join it.
      std::erase(queue_, &job);
      if (--job.helpers == 0) idle_.notify_all();
    }
  }

  const pid_t owner_ = getpid();
  [[maybe_unused]] Pool* const forked_from_;
  std::condition_variable work_;  ///< helpers wait here for a job
  std::condition_variable idle_;  ///< callers wait here for helpers to leave
  std::mutex mu_;  ///< guards the members below and every Job::helpers
  std::size_t wanted_;       ///< helpers to keep running
  std::vector<Job*> queue_;  ///< jobs that may have unclaimed tasks
  bool parked_ = false;
  std::vector<std::thread> helpers_;
};

/// This process's pool, or the pool a forked child inherited from its
/// parent, which the child replaces.
std::atomic<Pool*> g_pool{nullptr};

/// The process's own pool, if it has made one.
Pool* own_pool() {
  Pool* pool = g_pool.load(std::memory_order_acquire);
  return pool != nullptr && pool->owner() == getpid() ? pool : nullptr;
}

void park_before_fork() {
  if (Pool* pool = own_pool()) pool->park();
}

void resume_after_fork() {
  if (Pool* pool = own_pool()) pool->resume();
}

Pool& process_pool() {
  // Registered once; a forked child inherits the registration.
  static const bool fork_handlers =
      pthread_atfork(park_before_fork, resume_after_fork, nullptr) == 0;
  (void)fork_handlers;
  const pid_t self = getpid();
  Pool* pool = g_pool.load(std::memory_order_acquire);
  while (pool == nullptr || pool->owner() != self) {
    auto* made = new Pool(affinity_cpus() - 1, pool);
    if (g_pool.compare_exchange_strong(pool, made, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return *made;
    }
    delete made;  // another thread of this process installed one first
  }
  return *pool;
}

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  process_pool().run(n, task);
}

}  // namespace lfbs
