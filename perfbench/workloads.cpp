#include "workloads.h"

#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "serve/errors.h"
#include "support/rng.h"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Length of the windows end-to-end metrics are taken over (see
/// end_to_end_metrics).
constexpr double kWindowSeconds = 1.0;
/// Training epochs of the pipeline under test (corpus at the Options default
/// scale and seed, which the input seeds never equal).
constexpr int kTrainEpochs = 2;
/// Warm-up requests in flight at once on a stream server (below the
/// degradation ladder), and a bound on the sources warm-up sends.
constexpr std::size_t kWarmupChunk = 128;
constexpr std::uint64_t kMaxWarmupSources = 50000;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void tally_verdicts(const std::vector<g2p::LoopSuggestion>& result, RunResult& run) {
  for (const auto& s : result) ++run.verdicts[static_cast<std::size_t>(s.verdict)];
}

bool is_governor_rejection(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const g2p::ResourceExhausted&) {
    return true;
  } catch (...) {
    return false;
  }
}

g2p::SuggestCache::Stats cache_delta(const g2p::SuggestCache::Stats& before,
                                     const g2p::SuggestCache::Stats& after) {
  g2p::SuggestCache::Stats d = after;
  d.full_hits -= before.full_hits;
  d.frontend_hits -= before.frontend_hits;
  d.misses -= before.misses;
  d.evictions -= before.evictions;
  d.frontend_saved_ns -= before.frontend_saved_ns;
  return d;
}

/// Server counters accumulated over the window (the snapshot minus the
/// warm-up's share).
g2p::ServerStatsSnapshot serve_delta(const g2p::ServerStatsSnapshot& before,
                                     const g2p::ServerStatsSnapshot& after) {
  g2p::ServerStatsSnapshot d = after;
  d.submitted -= before.submitted;
  d.completed -= before.completed;
  d.failed -= before.failed;
  d.batches -= before.batches;
  d.batched_requests -= before.batched_requests;
  d.deduped -= before.deduped;
  d.latency_sum_us -= before.latency_sum_us;
  d.expired -= before.expired;
  d.shed -= before.shed;
  d.resource_exhausted -= before.resource_exhausted;
  return d;
}

RunResult run_closed_batch(const WorkloadSpec& spec, System& system,
                           const WorkloadInputs& inputs, double seconds, OutputCheck& check) {
  RunResult run;
  g2p::Pipeline& pipeline = *system.pipeline;
  const auto cache_before = pipeline.cache_stats();
  const auto begin = Clock::now();
  const auto end = begin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::string> texts(spec.units_per_call);
  std::vector<std::string_view> views(spec.units_per_call);
  while (Clock::now() < end) {
    const std::uint64_t first = run.next_request;
    for (std::size_t k = 0; k < texts.size(); ++k) {
      texts[k] = inputs.request_text(first + k);
      views[k] = texts[k];
    }
    const auto start = Clock::now();
    const auto results = pipeline.suggest_batch_results(views);
    const auto done = Clock::now();
    run.latency_ms.push_back(ms_between(start, done));
    run.window_of.push_back(std::floor(seconds_between(begin, start) / kWindowSeconds));
    const std::uint64_t loops_before = run.loops, completed_before = run.completed;
    for (std::size_t k = 0; k < results.size(); ++k) {
      ++run.attempted;
      if (!results[k].ok()) {
        ++run.failed;
        if (is_governor_rejection(results[k].error)) ++run.governor_rejected;
        check.note_missing();
        continue;
      }
      ++run.completed;
      run.loops += results[k].suggestions.size();
      tally_verdicts(results[k].suggestions, run);
      check.compare(results[k].suggestions, inputs.expected[inputs.base_of(first + k)]);
    }
    run.call_loops.push_back(static_cast<double>(run.loops - loops_before));
    run.call_units.push_back(static_cast<double>(run.completed - completed_before));
    run.next_request += texts.size();
  }
  run.mean_batch = static_cast<double>(spec.units_per_call);
  run.cache = cache_delta(cache_before, pipeline.cache_stats());
  return run;
}

RunResult run_open_stream(const WorkloadSpec& spec, System& system,
                          const WorkloadInputs& inputs, double seconds, OutputCheck& check) {
  using Future = std::future<std::vector<g2p::LoopSuggestion>>;
  RunResult run;
  g2p::SuggestServer& server = *system.server;
  const auto n = static_cast<std::uint64_t>(seconds * spec.offered_rps);
  const double interval_s = 1.0 / spec.offered_rps;
  std::vector<std::optional<Future>> slots(n);
  run.late_ms.assign(n, 0.0);
  std::atomic<std::uint64_t> published{0};
  const auto cache_before = system.pipeline->cache_stats();
  const auto serve_before = server.stats();
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::uint64_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) * interval_s));
  };

  // Producer: sends request i at its due time whatever the server does,
  // never blocking on it (a refused request is a failure, not a delay).
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string text = inputs.request_text(i);
      std::this_thread::sleep_until(due(i));
      run.late_ms[i] = ms_between(due(i), Clock::now());
      try {
        slots[i] = server.try_submit(std::move(text));
      } catch (const std::exception&) {
        slots[i].reset();  // rejected at admission
      }
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
  });

  // Collector (this thread): completions are timestamped as they are taken,
  // in submission order, and checked on the spot.
  Clock::time_point last_done = t0;
  run.latency_ms.reserve(n);
  run.window_of.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t seen = published.load(std::memory_order_acquire);
    while (seen <= i) {
      published.wait(seen, std::memory_order_acquire);
      seen = published.load(std::memory_order_acquire);
    }
    ++run.attempted;
    if (inputs.is_hot(i)) ++run.repeated;
    run.window_of.push_back(std::floor(static_cast<double>(i) * interval_s / kWindowSeconds));
    double latency = kInf;
    if (slots[i]) {
      try {
        const auto result = slots[i]->get();
        last_done = Clock::now();
        latency = ms_between(due(i), last_done);
        ++run.completed;
        run.loops += result.size();
        tally_verdicts(result, run);
        check.compare(result, inputs.expected[inputs.base_of(i)]);
      } catch (const std::exception&) {
        last_done = Clock::now();
      }
    }
    if (latency == kInf) {
      ++run.failed;
      check.note_missing();
    }
    slots[i].reset();
    run.latency_ms.push_back(latency);
  }
  producer.join();
  run.next_request = n;
  run.elapsed_s = seconds_between(t0, last_done);
  run.serve = serve_delta(serve_before, server.stats());
  run.mean_batch = run.serve.mean_batch_size();
  run.governor_rejected = run.serve.resource_exhausted;
  run.cache = cache_delta(cache_before, system.pipeline->cache_stats());
  return run;
}

/// Serve warm-up sources the way the workload does: one batch call, or
/// server submissions awaited together.
void serve_warmup(System& system, const std::vector<std::string>& texts) {
  if (!system.server) {
    const std::vector<std::string_view> views(texts.begin(), texts.end());
    (void)system.pipeline->suggest_batch_results(views);
    return;
  }
  std::vector<std::future<std::vector<g2p::LoopSuggestion>>> futures;
  for (const auto& text : texts) futures.push_back(system.server->submit(text));
  for (auto& f : futures) (void)f.get();
}

}  // namespace

// Each workload's reason to exist is written next to its definition; the
// `why` strings are what BENCHMARK.json records.
const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      // Offline whole-file analysis: a closed loop of fixed-size
      // suggest_batch_results calls over distinct multi-loop units with the
      // default cache, which never hits. Frontend, aug-AST, graph, the model
      // at large N and the clause analysis do all the work; the server is
      // bypassed.
      {.name = "cold_batch",
       .why = "closed-loop whole-file batches of distinct multi-loop units: frontend, "
              "aug-AST, graph, nn at large N and analysis do the work, cache never hits",
       .load = LoadKind::kClosedBatch,
       .file_pool = 8192,
       .files_per_unit = 32,
       .unit_pool = 256,
       .units_per_call = 4},
      // Interactive re-submission: Zipf repeats over a hot set that fits the
      // cache plus cold misses. Cache probes and server dispatch do the
      // work; the frontend and the encoder do little.
      {.name = "warm_stream",
       .why = "open-loop Zipf repeats over a cached hot set plus cold misses: cache read "
              "side and server dispatch, little frontend or encoder work",
       .load = LoadKind::kOpenStream,
       .file_pool = 8192,
       .offered_rps = 6000.0,
       .hot_set = 256,
       .hot_share = 0.9,
       .zipf_s = 1.0},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& spec : workload_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

WorkloadInputs::WorkloadInputs(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed), zipf_(std::max<std::size_t>(spec.hot_set, 1), spec.zipf_s) {
  std::vector<RenamableSource> files = generate_files(seed, spec.file_pool);
  if (spec.load == LoadKind::kClosedBatch) {
    bases_ = generate_units(files, seed, spec.unit_pool, spec.files_per_unit);
  } else {
    bases_ = std::move(files);
  }
}

double WorkloadInputs::uniform(std::uint64_t request, std::uint64_t lane) const {
  g2p::Rng rng(seed_ ^ (request * 0x9E3779B97F4A7C15ull + lane * 0xD1B54A32D192ED03ull));
  return rng.uniform();
}

bool WorkloadInputs::is_hot(std::uint64_t request) const {
  return spec_.hot_set > 0 && uniform(request, 0) < spec_.hot_share;
}

std::size_t WorkloadInputs::base_of(std::uint64_t request) const {
  if (is_hot(request)) return zipf_(uniform(request, 1));
  const auto n = static_cast<double>(bases_.size());
  return std::min(bases_.size() - 1, static_cast<std::size_t>(uniform(request, 1) * n));
}

std::string WorkloadInputs::request_text(std::uint64_t request) const {
  const RenamableSource& base = bases_[base_of(request)];
  return base.render(is_hot(request) ? hot_suffix() : request_suffix(request));
}

System set_up(const WorkloadSpec& spec, const WorkloadInputs& inputs) {
  System system;
  g2p::Pipeline::Options options;
  options.train.epochs = kTrainEpochs;
  system.pipeline = std::make_shared<g2p::Pipeline>(g2p::Pipeline::train(options));
  if (spec.load == LoadKind::kOpenStream) {
    system.server = std::make_unique<g2p::SuggestServer>(system.pipeline);
  }
  const auto& bases = inputs.bases();
  const std::size_t chunk =
      spec.load == LoadKind::kClosedBatch ? spec.units_per_call : kWarmupChunk;
  std::vector<std::string> texts;
  // Fresh copies until the cache is full and evicting: the steady state the
  // measured window runs in. This also primes the allocator and the fused
  // weight cache.
  for (std::uint64_t k = 0;
       system.pipeline->cache_stats().evictions == 0 && k < kMaxWarmupSources;) {
    texts.clear();
    for (std::size_t i = 0; i < chunk; ++i, ++k) {
      texts.push_back(bases[k % bases.size()].render(warmup_suffix(k)));
    }
    serve_warmup(system, texts);
  }
  // Then the hot set, most recently used, so every hot request repeats a
  // cached source.
  for (std::size_t from = 0; from < spec.hot_set; from += chunk) {
    texts.clear();
    for (std::size_t h = from; h < std::min(spec.hot_set, from + chunk); ++h) {
      texts.push_back(bases[h].render(hot_suffix()));
    }
    serve_warmup(system, texts);
  }
  return system;
}

RunResult run_measured(const WorkloadSpec& spec, System& system, const WorkloadInputs& inputs,
                       double seconds, OutputCheck& check) {
  return spec.load == LoadKind::kClosedBatch
             ? run_closed_batch(spec, system, inputs, seconds, check)
             : run_open_stream(spec, system, inputs, seconds, check);
}

Metrics end_to_end_metrics(const RunResult& run, double setup_s, double peak_rss_mb) {
  // Every number is taken per window and reported for the least disturbed
  // window: other work on a shared machine only ever adds latency and takes
  // throughput, so the best window tracks the program rather than its
  // neighbours, while a change to the program moves every window.
  struct Window {
    std::vector<double> latency_ms;
    double busy_s = 0.0, loops = 0.0, units = 0.0;
  };
  std::map<double, Window> windows;
  for (std::size_t i = 0; i < run.latency_ms.size(); ++i) {
    Window& w = windows[run.window_of[i]];
    w.latency_ms.push_back(run.latency_ms[i]);
    if (!run.call_loops.empty()) {
      w.busy_s += run.latency_ms[i] / 1e3;
      w.loops += run.call_loops[i];
      w.units += run.call_units[i];
    }
  }
  std::vector<double> p50, loops_per_s, units_per_s;
  for (const auto& [index, w] : windows) {
    p50.push_back(percentile(w.latency_ms, 0.50));
    if (w.busy_s > 0.0) {
      loops_per_s.push_back(w.loops / w.busy_s);
      units_per_s.push_back(w.units / w.busy_s);
    }
  }
  // An open loop's throughput is the completions over the whole window: at
  // a fixed offered rate it only drops when a backlog grows.
  if (run.call_loops.empty()) {
    const double elapsed = std::max(run.elapsed_s, 1e-9);
    loops_per_s = {static_cast<double>(run.loops) / elapsed};
    units_per_s = {static_cast<double>(run.completed) / elapsed};
  }
  return {
      {"setup_s", setup_s, "s"},
      {"loops_per_s", percentile(loops_per_s, 1.0), "loops/s"},
      {"completed_rps", percentile(units_per_s, 1.0), "req/s"},
      {"latency_p50_ms", percentile(p50, 0.0), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

}  // namespace perfbench
