// Fixed-size worker pool for the serving path.
//
// The suggest pipeline parallelizes the per-source CPU work (lexing, parsing,
// loop extraction, aug-AST construction, clause analysis) across a pool and
// funnels the results into one batched model forward. The pool is
// deliberately minimal: a locked queue, join-on-destruction, and two entry
// points. `submit` carries a result or exception back through a
// std::packaged_task. `parallel_for` is an OpenMP-style fork-join in which
// the calling thread joins the team and every thread claims indices from one
// shared counter. Sized to the hardware by default; a single-threaded pool
// runs parallel_for entirely on the caller.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/function_ref.h"

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

  /// Run fn(i) for every i in [0, n), blocking until all complete. Fork-join
  /// with the caller in the team: the calling thread runs indices too, next
  /// to at most min(n, size()) - 1 queued helpers, so a loop occupies at
  /// most size() threads and a ThreadPool(1) runs every index on the caller.
  /// Indices are claimed one at a time from a shared counter, so a helper
  /// that starts late (its worker was busy) just finds nothing left: the
  /// caller waits only for indices already claimed, never for a helper to
  /// be scheduled. Every index runs; the exception of the lowest throwing
  /// index is rethrown once all have finished.
  ///
  /// Re-entrant: a nested call from inside a loop body — on one of this
  /// pool's workers or on the participating caller — runs inline on the
  /// calling thread. Its enclosing loop already spreads over the pool, so
  /// fanning out again would only queue helpers behind busy workers. A
  /// single index also runs inline: there is nothing to overlap.
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    if (n == 0) return;
    const std::size_t helpers = std::min(n, workers_.size()) - 1;
    if (helpers == 0 || on_worker_thread() || loop_caller() == this) {
      Loop loop(n, fn);
      loop.run();
      loop.rethrow();
      return;
    }
    // Heap-held and shared with the helpers: one that starts after the loop
    // is over still owns live state, claims an index >= n and never calls fn.
    auto loop = std::make_shared<Loop>(n, fn);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: parallel_for after shutdown");
      for (std::size_t h = 0; h < helpers; ++h) queue_.push([loop] { loop->run(); });
    }
    if (helpers == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
    ThreadPool* const outer = std::exchange(loop_caller(), this);
    loop->run();
    loop_caller() = outer;
    loop->wait();
    loop->rethrow();
  }

 private:
  /// One parallel_for's shared state. Indices are claimed from `next_`; fn
  /// is reached only through a claimed index, and the caller does not return
  /// before every claimed index has finished, so the borrowed fn outlives
  /// every call made to it.
  class Loop {
   public:
    Loop(std::size_t n, FunctionRef<void(std::size_t)> fn) : n_(n), fn_(fn), error_index_(n) {}

    /// Claim and run indices until none are left.
    void run() {
      for (std::size_t i; (i = next_.fetch_add(1, std::memory_order_relaxed)) < n_;) {
        try {
          fn_(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex_);
          if (i < error_index_) {
            error_index_ = i;
            error_ = std::current_exception();
          }
        }
        if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
          std::lock_guard<std::mutex> lock(mutex_);
          all_done_ = true;
          done_cv_.notify_one();
        }
      }
    }

    /// Block until every index has finished.
    void wait() {
      if (finished_.load(std::memory_order_acquire) == n_) return;
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [this] { return all_done_; });
    }

    void rethrow() {
      if (error_) std::rethrow_exception(error_);
    }

   private:
    const std::size_t n_;
    const FunctionRef<void(std::size_t)> fn_;
    std::atomic<std::size_t> next_{0};
    std::atomic<std::size_t> finished_{0};
    std::mutex mutex_;
    std::condition_variable done_cv_;
    bool all_done_ = false;
    std::size_t error_index_;  // guarded by mutex_
    std::exception_ptr error_;  // guarded by mutex_
  };

  /// The pool whose parallel_for loop the calling thread is running as the
  /// participating caller, if any; nested calls into that pool run inline.
  static ThreadPool*& loop_caller() {
    thread_local ThreadPool* pool = nullptr;
    return pool;
  }

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
