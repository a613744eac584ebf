#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "support/failpoint.h"

namespace g2p {

namespace {

/// First backoff of the transient-fault retry ladder; doubled per attempt.
constexpr std::chrono::milliseconds kRetryBackoff{1};

std::uint64_t latency_us(std::chrono::steady_clock::time_point enqueued,
                         std::chrono::steady_clock::time_point now) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - enqueued).count());
}

/// Absolute deadline for a relative one. <= 0 means none, and so does a
/// deadline past the clock's range: `now + deadline` in nanoseconds would
/// overflow, so the comparison runs in milliseconds and saturates.
std::chrono::steady_clock::time_point absolute_deadline(std::chrono::milliseconds deadline) {
  using Clock = std::chrono::steady_clock;
  if (deadline.count() <= 0) return Clock::time_point::max();
  const auto now = Clock::now();
  const auto headroom =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::time_point::max() - now);
  return deadline >= headroom ? Clock::time_point::max() : now + deadline;
}

/// The retry ladder only re-runs faults that came from the injection layer
/// (or anything else that models a passing condition rather than a
/// property of the request): a parse error is deterministic and retrying it
/// would just burn the batch budget.
bool is_transient(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const failpoint::FailpointError&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// Attribute a slot failure to the resource governor's per-limit counters
/// when it is a ResourceExhausted (non-governor errors tally nothing).
void note_resource_exhausted(const std::exception_ptr& error, ServerStats& stats) {
  try {
    std::rethrow_exception(error);
  } catch (const ResourceExhausted& e) {
    stats.on_resource_exhausted(e.limit());
  } catch (...) {
  }
}

}  // namespace

/// One popped batch. Each item carries a completion flag: the first
/// completion owns the promise and the stats tally, later ones are no-ops,
/// so the scheduler's top-level catch can fail whatever a fault left pending.
struct SuggestServer::Batch {
  struct Item {
    Request req;
    bool completed = false;
  };

  std::vector<Item> items;
  DegradeMode mode = DegradeMode::kNormal;
  /// Popped while the server was draining for shutdown: cache-only-mode
  /// misses in this batch fail with ServerStopped, not Overloaded — the
  /// request is being dropped because the server is going away, not to
  /// protect it from load.
  bool stopping = false;

  static void complete_value(Item& item, std::vector<LoopSuggestion> value,
                             ServerStats& stats,
                             void (ServerStats::*extra)() = nullptr) {
    if (item.completed) return;
    item.completed = true;
    // Count first, complete second: a client that sees its future ready
    // must also see the stats already include it. That covers `extra` too —
    // outcome-specific counters (shed, expired, retry_recovered, ...) land
    // before the promise, or a test reading stats right after .get()
    // observes the future resolved but the tally still in flight.
    stats.on_done(true, latency_us(item.req.enqueued, Clock::now()));
    if (extra) (stats.*extra)();
    item.req.promise.set_value(std::move(value));
  }

  static void complete_error(Item& item, const std::exception_ptr& error,
                             ServerStats& stats,
                             void (ServerStats::*extra)() = nullptr) {
    if (item.completed) return;
    item.completed = true;
    stats.on_done(false, latency_us(item.req.enqueued, Clock::now()));
    if (extra) (stats.*extra)();
    item.req.promise.set_exception(error);
  }
};

/// Serve one batch: run the batched pipeline call, complete every future
/// from its slot, and retry transient faults (whole-batch or per-slot) with
/// doubled backoff — never past a request's deadline, never more than
/// max_retries times. Every item's promise is completed exactly once by the
/// time this returns.
void SuggestServer::run(Batch& batch) {
  std::vector<Batch::Item*> active;
  active.reserve(batch.items.size());
  for (auto& item : batch.items) {
    if (!item.completed) active.push_back(&item);
  }
  if (active.empty()) return;
  stats_.on_batch(active.size());

  auto backoff = kRetryBackoff;
  int attempt = 0;
  bool retried = false;

  // Sleep out one backoff, dropping items that cannot make it: an item
  // whose deadline passes mid-backoff is completed with its fault now
  // (retrying it would serve a corpse). Returns the items still worth
  // retrying.
  const auto backoff_survivors = [&](std::vector<std::pair<Batch::Item*, std::exception_ptr>>&
                                         faulted) {
    const auto wake = Clock::now() + backoff;
    std::vector<Batch::Item*> next;
    next.reserve(faulted.size());
    for (auto& [item, error] : faulted) {
      if (item->req.deadline <= wake) {
        Batch::complete_error(*item, error, stats_);
      } else {
        next.push_back(item);
      }
    }
    if (!next.empty()) {
      stats_.on_retry();
      retried = true;
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    return next;
  };

  while (!active.empty()) {
    // Per-attempt deadline sweep: the previous attempt's backoff may have
    // consumed a budget.
    expel_expired(batch);
    std::erase_if(active, [](const Batch::Item* item) { return item->completed; });
    if (active.empty()) return;

    std::vector<std::string_view> views;
    views.reserve(active.size());
    for (const Batch::Item* item : active) views.emplace_back(item->req.source);

    std::vector<Pipeline::SourceResult> results;
    std::exception_ptr batch_error;
    try {
      results = pipeline_->suggest_batch_results(views);
    } catch (...) {
      // Whole-batch failure (resource exhaustion, injected fault — not a
      // per-source parse error, those come back in their own slots).
      batch_error = std::current_exception();
    }

    if (batch_error) {
      if (attempt < options_.max_retries && is_transient(batch_error)) {
        std::vector<std::pair<Batch::Item*, std::exception_ptr>> faulted;
        faulted.reserve(active.size());
        for (Batch::Item* item : active) faulted.emplace_back(item, batch_error);
        active = backoff_survivors(faulted);
        ++attempt;
        continue;
      }
      for (Batch::Item* item : active) Batch::complete_error(*item, batch_error, stats_);
      return;
    }

    // Duplicate slots (identical in-flight sources the pipeline computed
    // once) are counted on the first attempt, and per-verdict serving
    // counters tally unique slots only: the histogram is a property of the
    // content served, not of request fan-in. Identical bytes fail
    // identically, so duplicates of a failed slot share its fate —
    // including being retried together when the fault is transient.
    std::vector<std::pair<Batch::Item*, std::exception_ptr>> faulted;
    std::uint64_t duplicates = 0;
    const bool can_retry = attempt < options_.max_retries;
    for (std::size_t i = 0; i < active.size(); ++i) {
      Pipeline::SourceResult& result = results[i];
      if (result.duplicate) ++duplicates;
      if (result.ok()) {
        if (!result.duplicate) {
          for (const LoopSuggestion& s : result.suggestions) stats_.on_verdict(s.verdict);
        }
        Batch::complete_value(*active[i], std::move(result.suggestions), stats_,
                              retried ? &ServerStats::on_retry_recovered : nullptr);
      } else if (can_retry && is_transient(result.error)) {
        faulted.emplace_back(active[i], result.error);
      } else {
        // Terminal slot failure. Governor rejections land here by design:
        // ResourceExhausted is not transient, so it is never retried.
        note_resource_exhausted(result.error, stats_);
        Batch::complete_error(*active[i], result.error, stats_);
      }
    }
    if (attempt == 0 && duplicates > 0) stats_.on_dedup(duplicates);
    if (faulted.empty()) return;
    active = backoff_survivors(faulted);
    ++attempt;
  }
}

SuggestServer::SuggestServer(std::shared_ptr<Pipeline> pipeline, Options options)
    : pipeline_(std::move(pipeline)), options_(options) {
  if (!pipeline_) throw std::invalid_argument("SuggestServer: null pipeline");
  if (options_.max_batch_requests == 0) options_.max_batch_requests = 1;
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;
  if (options_.max_retries < 0) options_.max_retries = 0;
  pool_ = std::make_shared<ThreadPool>(
      options_.pool_threads != 0 ? options_.pool_threads : ThreadPool::default_thread_count());
  pipeline_->set_thread_pool(pool_);
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

SuggestServer::~SuggestServer() { shutdown(); }

ServerStatsSnapshot SuggestServer::stats() const {
  ServerStatsSnapshot snapshot = stats_.snapshot();
  snapshot.verify = pipeline_->verify_active();
  const SuggestCache::Stats cache = pipeline_->cache_stats();
  snapshot.cache_full_hits = cache.full_hits;
  snapshot.cache_frontend_hits = cache.frontend_hits;
  snapshot.cache_misses = cache.misses;
  snapshot.cache_frontend_saved_us = cache.frontend_saved_ns / 1000;
  return snapshot;
}

std::future<std::vector<LoopSuggestion>> SuggestServer::enqueue_locked(
    std::string source, Clock::time_point deadline) {
  Request req;
  req.source = std::move(source);
  req.enqueued = Clock::now();
  req.deadline = deadline;
  auto future = req.promise.get_future();
  queue_.push_back(std::move(req));
  stats_.on_submit();
  stats_.on_queue_depth(queue_.size());
  return future;
}

void SuggestServer::admission_check(const std::string& source) {
  const std::uint64_t cap = pipeline_->active_budget().max_source_bytes;
  if (cap != 0 && source.size() > cap) {
    stats_.on_resource_exhausted(ResourceLimit::kSourceBytes);
    throw ResourceExhausted(ResourceLimit::kSourceBytes, source.size(), cap);
  }
}

std::future<std::vector<LoopSuggestion>> SuggestServer::submit(
    std::string source, std::chrono::milliseconds deadline) {
  admission_check(source);
  const auto absolute = absolute_deadline(deadline);
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock,
                 [this] { return stopping_ || queue_.size() < options_.max_queue_depth; });
  if (stopping_) throw ServerStopped("SuggestServer: submit after shutdown");
  auto future = enqueue_locked(std::move(source), absolute);
  lock.unlock();
  queue_cv_.notify_one();
  return future;
}

std::optional<std::future<std::vector<LoopSuggestion>>> SuggestServer::try_submit(
    std::string source, std::chrono::milliseconds deadline) {
  // A governor rejection must stay distinguishable from "no capacity"
  // (nullopt): the caller gets a ready future carrying the typed error.
  try {
    admission_check(source);
  } catch (const ResourceExhausted&) {
    std::promise<std::vector<LoopSuggestion>> rejected;
    rejected.set_exception(std::current_exception());
    return rejected.get_future();
  }
  const auto absolute = absolute_deadline(deadline);
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_ || queue_.size() >= options_.max_queue_depth) return std::nullopt;
  auto future = enqueue_locked(std::move(source), absolute);
  lock.unlock();
  queue_cv_.notify_one();
  return future;
}

void SuggestServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  std::call_once(joined_, [this] { scheduler_.join(); });
}

DegradeMode SuggestServer::mode_for(std::size_t depth) const {
  const double f =
      static_cast<double>(depth) / static_cast<double>(options_.max_queue_depth);
  return f >= options_.cache_only_at ? DegradeMode::kCacheOnly : DegradeMode::kNormal;
}

void SuggestServer::note_mode(DegradeMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  stats_.on_mode(mode);
}

std::optional<SuggestServer::Batch> SuggestServer::collect_batch() {
  // Close-on-empty: serve whatever is queued, no window. Requests that
  // arrive while this batch runs (the scheduler serves it) form the next.
  std::unique_lock<std::mutex> lock(mutex_);
  queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;  // stopping and fully drained

  note_mode(mode_for(queue_.size()));
  const std::size_t take = std::min(queue_.size(), options_.max_batch_requests);
  Batch batch;
  batch.mode = mode_;
  batch.stopping = stopping_;
  batch.items.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.items.push_back(Batch::Item{std::move(queue_.front())});
    queue_.pop_front();
  }
  stats_.on_queue_depth(queue_.size());
  return batch;
}

void SuggestServer::expel_expired(Batch& batch) {
  const auto now = Clock::now();
  std::exception_ptr expired_error;
  for (auto& item : batch.items) {
    if (item.completed) continue;
    if (item.req.deadline > now) continue;
    if (!expired_error) expired_error = std::make_exception_ptr(DeadlineExceeded());
    Batch::complete_error(item, expired_error, stats_, &ServerStats::on_expired);
  }
}

void SuggestServer::serve_cache_only(Batch& batch) {
  // Shutdown drain: a degraded server going away is not shedding for load
  // protection — misses complete typed with ServerStopped and are counted
  // stopped, not shed. Outside shutdown the Overloaded/shed contract holds.
  const auto unserved =
      batch.stopping
          ? std::make_exception_ptr(
                ServerStopped("SuggestServer: stopped while degraded; request not served"))
          : std::make_exception_ptr(Overloaded());
  for (auto& item : batch.items) {
    if (item.completed) continue;
    // Full-result cache probe, no forward: hits cost microseconds and drain
    // the queue; misses are shed rather than queued behind a saturated
    // model.
    if (auto hit = pipeline_->try_cached(item.req.source)) {
      Batch::complete_value(item, std::move(*hit), stats_, &ServerStats::on_cache_only);
      continue;
    }
    Batch::complete_error(item, unserved, stats_,
                          batch.stopping ? &ServerStats::on_stopped_unserved
                                         : &ServerStats::on_shed);
  }
}

void SuggestServer::scheduler_loop() {
  for (;;) {
    std::optional<Batch> batch;
    try {
      batch = collect_batch();
      if (!batch) break;
      space_cv_.notify_all();  // backpressure: freed queue slots

      // Failpoint: a fault between batch assembly and serving. The
      // `error`/`throw` actions both surface as an exception here, which
      // the top-level catch below converts into per-future failures.
      if (failpoint::triggered("scheduler.batch")) {
        throw failpoint::FailpointError("scheduler.batch");
      }

      expel_expired(*batch);
      if (batch->mode == DegradeMode::kCacheOnly) {
        serve_cache_only(*batch);
      } else {
        run(*batch);
      }
    } catch (...) {
      // Top-level catch: nothing escaping one batch may kill the scheduler
      // (an escaped exception would std::terminate the process and strand
      // every queued future). Fail this batch's futures, keep serving.
      stats_.on_scheduler_fault();
      if (batch) {
        const auto error = std::current_exception();
        for (auto& item : batch->items) Batch::complete_error(item, error, stats_);
      }
    }
  }
}

}  // namespace g2p
