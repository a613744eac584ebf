// Asynchronous micro-batching front end over the batched suggestion engine.
//
// `Pipeline::suggest_batch_results` makes one synchronous batched call
// fast; this turns it into a server loop. Callers `submit` C sources and get a
// `std::future` per request; a scheduler thread waits for work, pops
// everything queued (up to `max_batch_requests` requests), merges it into one
// `suggest_batch_results` call, and completes every future — a request that
// fails to parse completes *its* future exceptionally without poisoning its
// batch-mates. There is no batching window: a lone request is served at
// once as a batch of 1, and requests that arrive while a batch runs queue up
// and form the next batch, so under load batches fill by themselves and the
// model forward is amortized across the whole batch.
//
// Backpressure: the queue is bounded by `max_queue_depth`. `submit` blocks
// until space frees up (so producers are throttled to the service rate);
// `try_submit` refuses instead, for callers that would rather shed load.
//
// Identical in-flight sources batched together are computed once: the
// batched pipeline call collapses duplicate keys onto one slot (see
// Pipeline::suggest_batch_results) and reports which slots were copies, so
// a thundering herd of one hot source costs one frontend + forward instead
// of N. Collapses are counted in ServerStats::deduped.
//
// The scheduler thread serves each batch itself (cache-only or the full
// batched call) before it collects the next. Nothing on that path can
// wedge: the per-request ResourceBudget caps bound frontend, forward and
// verify work by the size of the input, and parallel_for finishes even when
// every pool worker is busy. A client that needs a bound on its own wait
// uses `future::wait_for`.
//
// Fault tolerance (docs/serving.md):
//  - Requests may carry a deadline; the scheduler expels expired requests
//    before the expensive forward and completes them with DeadlineExceeded.
//  - Transient faults (failpoint-injected errors, see support/failpoint.h)
//    are retried with doubled backoff up to `max_retries`, capped by the
//    requests' deadlines.
//  - Overload: besides the queue bound, one degraded mode (DegradeMode in
//    stats.h). At queue depth >= `cache_only_at` of the bound the scheduler
//    serves cache hits only and fails misses with Overloaded. Every error
//    is typed (serve/errors.h); every future always completes.
//
// Shutdown is graceful: `shutdown()` (and the destructor) stops accepting
// new work, serves everything already queued, then joins the scheduler.
// Submitters blocked on backpressure wake and observe ServerStopped. A
// server that is *degraded* while draining still completes every queued
// future: cache hits are served, misses fail typed with ServerStopped —
// never silently counted as shed.
//
// In-process serving is one SuggestServer over one Pipeline; a checkpoint
// hot swap is `Pipeline::load_weights` on the shared pipeline.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/errors.h"
#include "serve/stats.h"
#include "support/thread_pool.h"

namespace g2p {

class SuggestServer {
 public:
  struct Options {
    /// Largest batch: one scheduler pop serves at most this many queued
    /// requests (each request is one translation unit whose loops join the
    /// batched forward).
    std::size_t max_batch_requests = 32;
    /// Queue bound. `submit` blocks (backpressure) when this many requests
    /// are already waiting; `try_submit` returns nullopt instead.
    std::size_t max_queue_depth = 1024;

    /// Transient-fault retry ladder: a batch attempt that fails with a
    /// transient error (failpoint::FailpointError) is re-run up to this many
    /// times, sleeping a backoff (1 ms, doubled per attempt) between runs.
    /// Retries never extend past a request's deadline.
    int max_retries = 2;

    /// Cache-only threshold, as a fraction of max_queue_depth. Queue depth
    /// >= cache_only_at * max_queue_depth serves full-result cache hits
    /// only (misses are shed with Overloaded, no forward runs). A value
    /// > 1.0 disables the mode.
    double cache_only_at = 0.75;
  };

  /// Takes shared ownership of the pipeline and injects the server's worker
  /// pool into it (serving concurrency belongs to the server, not a global;
  /// the pool has ThreadPool::default_thread_count() workers).
  /// The pipeline stays usable for read-only calls (`suggest`) from other
  /// threads. Throws std::invalid_argument on a null pipeline.
  SuggestServer(std::shared_ptr<Pipeline> pipeline, Options options);
  explicit SuggestServer(std::shared_ptr<Pipeline> pipeline)
      : SuggestServer(std::move(pipeline), Options{}) {}

  /// Convenience: take the pipeline by value.
  SuggestServer(Pipeline pipeline, Options options)
      : SuggestServer(std::make_shared<Pipeline>(std::move(pipeline)), options) {}
  explicit SuggestServer(Pipeline pipeline)
      : SuggestServer(std::make_shared<Pipeline>(std::move(pipeline)), Options{}) {}

  SuggestServer(const SuggestServer&) = delete;
  SuggestServer& operator=(const SuggestServer&) = delete;

  /// Drains the queue, completes every outstanding future, joins.
  ~SuggestServer();

  /// Enqueue one translation unit. Blocks while the queue is full; throws
  /// ServerStopped once the server is shutting down (futures already
  /// obtained remain valid and will complete). `deadline` is measured from
  /// now; <= 0 (the default) means none, and so does any deadline past the
  /// clock's range (e.g. milliseconds::max()). A request whose deadline
  /// passes before it is served completes with DeadlineExceeded instead of
  /// waiting forever.
  std::future<std::vector<LoopSuggestion>> submit(std::string source,
                                                  std::chrono::milliseconds deadline = {});

  /// Non-blocking submit: nullopt when the queue is full or the server is
  /// shutting down (load shedding, never blocks).
  std::optional<std::future<std::vector<LoopSuggestion>>> try_submit(
      std::string source, std::chrono::milliseconds deadline = {});

  /// Stop accepting requests, serve everything queued, join the scheduler.
  /// Idempotent and safe to call concurrently with submitters (their
  /// blocked `submit` calls wake and throw ServerStopped).
  void shutdown();

  /// Queue/batch/latency counters plus the pipeline's serving-cache
  /// counters (hit tiers, frontend time saved), merged into one snapshot.
  ServerStatsSnapshot stats() const;
  const Pipeline& pipeline() const { return *pipeline_; }
  const std::shared_ptr<Pipeline>& shared_pipeline() const { return pipeline_; }
  const Options& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::string source;
    std::promise<std::vector<LoopSuggestion>> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // Clock::time_point::max() = none
  };

  // Defined in server.cpp. Batch items carry a per-request completion flag
  // so the scheduler's top-level catch fails only the futures a fault left
  // pending.
  struct Batch;

  /// Admission-time resource-governor check: rejects the statically
  /// checkable dimension (source bytes) with ResourceExhausted before the
  /// request ever occupies queue space or a batch slot. Request-scoped —
  /// tallied in stats but never retried.
  void admission_check(const std::string& source);
  std::future<std::vector<LoopSuggestion>> enqueue_locked(std::string source,
                                                          Clock::time_point deadline);

  void scheduler_loop();
  /// Wait for work, then pop up to max_batch_requests of the queued requests
  /// under the mode the queue depth selects. Empty return: stopping and
  /// fully drained.
  std::optional<Batch> collect_batch();
  /// Complete expired requests with DeadlineExceeded; keep the rest.
  void expel_expired(Batch& batch);
  /// Cache-only serving on the scheduler thread: hits complete, misses fail.
  void serve_cache_only(Batch& batch);
  /// Full serving: the batched pipeline call plus the retry ladder.
  void run(Batch& batch);
  DegradeMode mode_for(std::size_t depth) const;
  void note_mode(DegradeMode mode);

  std::shared_ptr<Pipeline> pipeline_;
  Options options_;
  std::shared_ptr<ThreadPool> pool_;
  ServerStats stats_;

  std::mutex mutex_;
  std::condition_variable queue_cv_;  // scheduler waits: work available / stop
  std::condition_variable space_cv_;  // submitters wait: queue below bound
  std::deque<Request> queue_;
  bool stopping_ = false;
  std::once_flag joined_;  // shutdown may race with itself; join exactly once

  // Scheduler-thread-only state (no locking needed).
  DegradeMode mode_ = DegradeMode::kNormal;

  std::thread scheduler_;  // last member: joined before the rest tears down
};

}  // namespace g2p
