#pragma once

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "sns/util/mutex.hpp"
#include "sns/util/thread_annotations.hpp"

namespace sns::util {

/// Fixed-size worker pool for embarrassingly parallel harness work — e.g.
/// replaying the (cluster-size x ratio x policy) grid of bench_fig20, where
/// every ClusterSimulator instance is self-contained and only shares
/// immutable inputs (estimator, program library, profile database).
///
/// Tasks run in submission order when workers are free; submit() returns a
/// future for the task's result. Exceptions propagate through the future.
/// The destructor drains the queue (all submitted tasks run) and joins.
///
/// Concurrency contract (machine-checked by clang -Wthread-safety): the
/// task queue and the stop flag are guarded by mu_; workers block on cv_.
/// workers_ is written only before any worker can observe the pool
/// (constructor) and joined in the destructor, so it needs no capability.
class ThreadPool {
 public:
  /// `threads` == 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      MutexLock lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notifyOne();
    return result;
  }

 private:
  void workerLoop() SNS_EXCLUDES(mu_);

  std::vector<std::thread> workers_;  ///< construction/join only, see above
  Mutex mu_;
  std::deque<std::function<void()>> queue_ SNS_GUARDED_BY(mu_);
  CondVar cv_;
  bool stopping_ SNS_GUARDED_BY(mu_) = false;
};

}  // namespace sns::util
