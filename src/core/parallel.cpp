#include "hbn/core/parallel.h"

#include <pthread.h>

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace hbn::core {
namespace {

/// True while this thread runs a parallelRun body: a nested call then
/// runs inline instead of waiting on a pool whose workers it occupies.
thread_local bool insideTask = false;

class TaskScope {
 public:
  TaskScope() : previous_(insideTask) { insideTask = true; }
  ~TaskScope() { insideTask = previous_; }
  /// Whether the scope opened inside another task's body.
  [[nodiscard]] bool nested() const noexcept { return previous_; }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  bool previous_;
};

void runBody(detail::PoolCall call, void* context, int worker,
             std::exception_ptr& error) {
  try {
    call(context, worker);
  } catch (...) {
    error = std::current_exception();
  }
}

void rethrowLowest(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// The process-wide pool: persistent helper threads 1..n (worker 0 is
/// always the caller), grown on demand and never torn down. One call at
/// a time owns it; each call bumps `generation_`, wakes the helpers, and
/// waits until every participating helper has reported back.
class WorkerPool {
 public:
  /// Claims the pool for one call; false when another thread holds it.
  bool tryClaim() { return callMutex_.try_lock(); }

  /// Runs one call on a claimed pool and releases it.
  void run(int workers, detail::PoolCall call, void* context) {
    std::unique_lock<std::mutex> claim(callMutex_, std::adopt_lock);
    errors_.assign(static_cast<std::size_t>(workers), nullptr);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // A new helper starts from the generation before this call's, so
      // it joins this call.
      while (static_cast<int>(helpers_.size()) < workers - 1) {
        const int index = static_cast<int>(helpers_.size()) + 1;
        helpers_.emplace_back(
            [this, index, seen = generation_] { helperLoop(index, seen); });
      }
      call_ = call;
      context_ = context;
      workers_ = workers;
      pending_ = workers - 1;
      ++generation_;
    }
    wake_.notify_all();
    runBody(call, context, 0, errors_[0]);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [this] { return pending_ == 0; });
    }
    rethrowLowest(errors_);
  }

 private:
  void helperLoop(int index, std::uint64_t seen) {
    insideTask = true;
    for (;;) {
      detail::PoolCall call;
      void* context;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (index >= workers_) continue;
        call = call_;
        context = context_;
      }
      runBody(call, context, index,
              errors_[static_cast<std::size_t>(index)]);
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex callMutex_;  ///< held by the one call owning the pool
  std::mutex mutex_;      ///< guards everything below
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> helpers_;
  std::uint64_t generation_ = 0;
  detail::PoolCall call_ = nullptr;
  void* context_ = nullptr;
  int workers_ = 0;
  int pending_ = 0;
  std::vector<std::exception_ptr> errors_;
};

// The pool is created on first use and deliberately never destroyed:
// its helpers block on it until the process exits. A forked child
// inherits the pointer but not the threads, so it starts over.
std::mutex poolMutex;
WorkerPool* pool = nullptr;

WorkerPool& processPool() {
  std::lock_guard<std::mutex> lock(poolMutex);
  if (pool == nullptr) {
    static const int registered = pthread_atfork(
        [] { poolMutex.lock(); }, [] { poolMutex.unlock(); },
        [] {
          pool = nullptr;
          poolMutex.unlock();
        });
    (void)registered;
    pool = new WorkerPool();
  }
  return *pool;
}

}  // namespace

int resolveWorkerCount(int requested, int items) {
  if (requested == 0) {
    requested = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::clamp(requested, 1, std::max(1, items));
}

namespace detail {

void runOnPool(int workers, PoolCall call, void* context) {
  const TaskScope scope;
  if (workers <= 1) {
    call(context, 0);
    return;
  }
  if (!scope.nested()) {
    WorkerPool& shared = processPool();
    if (shared.tryClaim()) {
      shared.run(workers, call, context);
      return;
    }
  }
  // Nested inside a task, or another thread's call holds the pool: run
  // every body here, in worker order.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    runBody(call, context, w, errors[static_cast<std::size_t>(w)]);
  }
  rethrowLowest(errors);
}

}  // namespace detail
}  // namespace hbn::core
