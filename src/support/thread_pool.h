// Fixed-size worker pool for the serving path.
//
// The suggest pipeline parallelizes the per-source CPU work (lexing, parsing,
// loop extraction, aug-AST construction, clause analysis) across a pool and
// funnels the results into one batched model forward. The pool is
// deliberately minimal: a locked queue, std::packaged_task for result/
// exception transport, and join-on-destruction. Sized to the hardware by
// default; a single-threaded pool degrades to eager inline execution order
// without special-casing.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace g2p {

class ThreadPool {
 public:
  /// Hardware concurrency, never 0.
  static unsigned default_thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  explicit ThreadPool(unsigned threads = default_thread_count()) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t size() const { return workers_.size(); }

  /// Whether the calling thread is one of this pool's workers. Blocking on
  /// pool futures from a worker can deadlock (the waited-on tasks may sit
  /// behind the waiter in the queue), so re-entrant helpers check this and
  /// fall back to inline execution.
  bool on_worker_thread() const { return current_pool() == this; }

  /// Enqueue `fn` and return a future for its result. Exceptions thrown by
  /// `fn` surface from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for every i in [0, n), blocking until all complete. Indices
  /// are dispatched as contiguous chunks (a few per worker) so the per-task
  /// queue/future overhead is paid O(workers) times, not O(n). The first
  /// exception (lowest chunk) is rethrown after every task has finished.
  ///
  /// Re-entrant: called from one of this pool's own workers, the loop runs
  /// inline on the calling thread instead of enqueueing. Enqueue-and-wait
  /// from a worker deadlocks at saturation — every worker blocks in
  /// future::get() on chunks that sit behind the waiters in the queue.
  /// A single index also runs inline: there is nothing to overlap, so a
  /// worker hand-off would only add latency.
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    if (n == 0) return;
    if (n == 1 || on_worker_thread()) {
      // Inline, but with the same drain-then-rethrow contract as the pooled
      // path: every index runs; the first exception surfaces at the end.
      std::exception_ptr first_error;
      for (std::size_t i = 0; i < n; ++i) {
        try {
          fn(i);
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (first_error) std::rethrow_exception(first_error);
      return;
    }
    const std::size_t chunks = std::min(n, workers_.size() * 4);
    const std::size_t per_chunk = (n + chunks - 1) / chunks;
    std::vector<std::future<void>> pending;
    pending.reserve(chunks);
    for (std::size_t begin = 0; begin < n; begin += per_chunk) {
      const std::size_t end = std::min(n, begin + per_chunk);
      pending.push_back(submit([&fn, begin, end] {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      }));
    }
    std::exception_ptr first_error;
    for (auto& f : pending) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  /// Which pool (if any) the calling thread works for. One marker suffices:
  /// pool workers are dedicated threads, never shared between pools.
  static ThreadPool*& current_pool() {
    thread_local ThreadPool* pool = nullptr;
    return pool;
  }

  void worker_loop() {
    current_pool() = this;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace g2p
