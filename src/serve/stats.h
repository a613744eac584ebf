// Serving counters for the async micro-batching server.
//
// The scheduler thread and submitters update ServerStats concurrently with
// relaxed atomics (each counter is an independent monotonic tally; nothing
// synchronizes-with these loads), and `snapshot()` hands callers a plain
// struct to print or assert on. Latency here is end-to-end per request:
// enqueue (submit) to future completion, measured by the scheduler.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "core/suggestion.h"
#include "serve/errors.h"

namespace g2p {

/// Serving mode the scheduler is in. Cache-only trades result coverage for
/// queue survival. The scheduler recomputes the mode from queue depth at
/// every batch boundary, so the server returns to normal as soon as
/// pressure relents.
enum class DegradeMode : int {
  kNormal = 0,     // full forward over everything popped
  kCacheOnly = 1,  // serve full-result cache hits only; misses are shed
};

/// Point-in-time copy of the server counters (plain values, safe to pass
/// around). Derived means return 0 when the denominator is empty.
struct ServerStatsSnapshot {
  std::uint64_t submitted = 0;        // requests accepted into the queue
  std::uint64_t completed = 0;        // futures completed with a value
  std::uint64_t failed = 0;           // futures completed with an exception
  std::uint64_t batches = 0;          // suggest_batch_results calls issued
  std::uint64_t batched_requests = 0; // sum of batch sizes
  std::uint64_t max_batch = 0;        // largest batch served
  std::uint64_t deduped = 0;          // in-flight duplicates a batch computed
                                      // once (pipeline stage 0 collapses them)
  std::uint64_t queue_depth = 0;      // requests waiting right now
  std::uint64_t latency_sum_us = 0;   // enqueue -> completion, all requests
  std::uint64_t latency_max_us = 0;

  // Fault-tolerance counters (serve/errors.h has the error taxonomy).
  std::uint64_t expired = 0;            // futures failed DeadlineExceeded
  std::uint64_t shed = 0;               // Overloaded: cache-only-mode misses
  std::uint64_t cache_only_served = 0;  // hits served without a forward (cache-only)
  std::uint64_t retries = 0;            // batch attempts re-run after transient faults
  std::uint64_t retry_recovered = 0;    // requests that succeeded after >= 1 retry
  std::uint64_t scheduler_faults = 0;   // exceptions the scheduler's top-level catch ate
  std::uint64_t stopped_unserved = 0;   // futures failed ServerStopped in the
                                        // shutdown drain (cache-only-mode misses)

  // The mode the scheduler is in now plus how often cache-only was entered
  // (kNormal re-entries count as recoveries).
  int mode = 0;  // DegradeMode as int
  std::uint64_t mode_cache_only_entered = 0;
  std::uint64_t mode_recovered = 0;

  // Content-addressed serving cache (filled by SuggestServer::stats() from
  // the pipeline's SuggestCache counters; zero when caching is disabled).
  std::uint64_t cache_full_hits = 0;      // whole result served from cache
  std::uint64_t cache_frontend_hits = 0;  // frontend skipped, model re-run
  std::uint64_t cache_misses = 0;         // cold sources (frontend built)
  std::uint64_t cache_frontend_saved_us = 0;  // frontend time not spent

  // Static race-verifier verdict tallies over every suggestion in the
  // unique (non-duplicate) slots of every batch served.
  std::uint64_t verdict_verified = 0;
  std::uint64_t verdict_repaired = 0;
  std::uint64_t verdict_vetoed = 0;
  std::uint64_t verdict_unknown = 0;

  // Resource-governor rejections (futures failed ResourceExhausted), total
  // and per limit — indexed by ResourceLimit, named by resource_limit_name.
  // Request-scoped by contract: none of these triggered a retry or failed a
  // batch-mate.
  std::uint64_t resource_exhausted = 0;
  std::array<std::uint64_t, kNumResourceLimits> resource_exhausted_by_limit{};

  double mean_batch_size() const {
    return batches == 0 ? 0.0 : static_cast<double>(batched_requests) / static_cast<double>(batches);
  }
  double mean_latency_us() const {
    const std::uint64_t done = completed + failed;
    return done == 0 ? 0.0 : static_cast<double>(latency_sum_us) / static_cast<double>(done);
  }
  double cache_hit_rate() const {
    const std::uint64_t total = cache_full_hits + cache_frontend_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_full_hits + cache_frontend_hits) /
                            static_cast<double>(total);
  }
};

class ServerStats {
 public:
  void on_submit() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void on_queue_depth(std::uint64_t depth) {
    queue_depth_.store(depth, std::memory_order_relaxed);
  }
  void on_batch(std::uint64_t size) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_requests_.fetch_add(size, std::memory_order_relaxed);
    std::uint64_t seen = max_batch_.load(std::memory_order_relaxed);
    while (size > seen &&
           !max_batch_.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
    }
  }
  void on_dedup(std::uint64_t count) {
    deduped_.fetch_add(count, std::memory_order_relaxed);
  }
  void on_done(bool ok, std::uint64_t latency_us) {
    (ok ? completed_ : failed_).fetch_add(1, std::memory_order_relaxed);
    latency_sum_us_.fetch_add(latency_us, std::memory_order_relaxed);
    std::uint64_t seen = latency_max_us_.load(std::memory_order_relaxed);
    while (latency_us > seen &&
           !latency_max_us_.compare_exchange_weak(seen, latency_us, std::memory_order_relaxed)) {
    }
  }
  void on_expired() { expired_.fetch_add(1, std::memory_order_relaxed); }
  void on_shed() { shed_.fetch_add(1, std::memory_order_relaxed); }
  void on_cache_only() { cache_only_served_.fetch_add(1, std::memory_order_relaxed); }
  void on_retry() { retries_.fetch_add(1, std::memory_order_relaxed); }
  void on_retry_recovered() { retry_recovered_.fetch_add(1, std::memory_order_relaxed); }
  void on_scheduler_fault() { scheduler_faults_.fetch_add(1, std::memory_order_relaxed); }
  void on_stopped_unserved() { stopped_unserved_.fetch_add(1, std::memory_order_relaxed); }
  /// The scheduler entered a new mode (called on change only).
  void on_mode(DegradeMode m) {
    mode_.store(static_cast<int>(m), std::memory_order_relaxed);
    (m == DegradeMode::kNormal ? mode_recovered_ : mode_cache_only_entered_)
        .fetch_add(1, std::memory_order_relaxed);
  }

  /// One suggestion's verifier verdict (kUnchecked, which serving never
  /// produces, is not tallied).
  void on_verdict(Verdict v) {
    switch (v) {
      case Verdict::kVerified: verdict_verified_.fetch_add(1, std::memory_order_relaxed); break;
      case Verdict::kRepaired: verdict_repaired_.fetch_add(1, std::memory_order_relaxed); break;
      case Verdict::kVetoed: verdict_vetoed_.fetch_add(1, std::memory_order_relaxed); break;
      case Verdict::kUnknown: verdict_unknown_.fetch_add(1, std::memory_order_relaxed); break;
      case Verdict::kUnchecked: break;
    }
  }

  /// One request rejected by the per-request resource governor (tallied by
  /// admission control and by the scheduler when a slot fails typed).
  void on_resource_exhausted(ResourceLimit limit) {
    resource_exhausted_.fetch_add(1, std::memory_order_relaxed);
    resource_exhausted_by_limit_[static_cast<std::size_t>(limit)].fetch_add(
        1, std::memory_order_relaxed);
  }

  ServerStatsSnapshot snapshot() const {
    ServerStatsSnapshot s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
    s.max_batch = max_batch_.load(std::memory_order_relaxed);
    s.deduped = deduped_.load(std::memory_order_relaxed);
    s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
    s.latency_sum_us = latency_sum_us_.load(std::memory_order_relaxed);
    s.latency_max_us = latency_max_us_.load(std::memory_order_relaxed);
    s.expired = expired_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.cache_only_served = cache_only_served_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.retry_recovered = retry_recovered_.load(std::memory_order_relaxed);
    s.scheduler_faults = scheduler_faults_.load(std::memory_order_relaxed);
    s.stopped_unserved = stopped_unserved_.load(std::memory_order_relaxed);
    s.mode = mode_.load(std::memory_order_relaxed);
    s.mode_cache_only_entered = mode_cache_only_entered_.load(std::memory_order_relaxed);
    s.mode_recovered = mode_recovered_.load(std::memory_order_relaxed);
    s.verdict_verified = verdict_verified_.load(std::memory_order_relaxed);
    s.verdict_repaired = verdict_repaired_.load(std::memory_order_relaxed);
    s.verdict_vetoed = verdict_vetoed_.load(std::memory_order_relaxed);
    s.verdict_unknown = verdict_unknown_.load(std::memory_order_relaxed);
    s.resource_exhausted = resource_exhausted_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < s.resource_exhausted_by_limit.size(); ++i) {
      s.resource_exhausted_by_limit[i] =
          resource_exhausted_by_limit_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::atomic<std::uint64_t> deduped_{0};
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> latency_sum_us_{0};
  std::atomic<std::uint64_t> latency_max_us_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> cache_only_served_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> retry_recovered_{0};
  std::atomic<std::uint64_t> scheduler_faults_{0};
  std::atomic<std::uint64_t> stopped_unserved_{0};
  std::atomic<int> mode_{0};
  std::atomic<std::uint64_t> mode_cache_only_entered_{0};
  std::atomic<std::uint64_t> mode_recovered_{0};
  std::atomic<std::uint64_t> verdict_verified_{0};
  std::atomic<std::uint64_t> verdict_repaired_{0};
  std::atomic<std::uint64_t> verdict_vetoed_{0};
  std::atomic<std::uint64_t> verdict_unknown_{0};
  std::atomic<std::uint64_t> resource_exhausted_{0};
  std::array<std::atomic<std::uint64_t>, kNumResourceLimits> resource_exhausted_by_limit_{};
};

}  // namespace g2p
