// Chaos bench: availability and tail latency of the fault-tolerant server
// under an injected fault schedule at ~1x sequential capacity.
//
// Trains a small pipeline, measures a sequential worker's mean service time
// (cache off), then fires an open-loop stream at that capacity through a
// SuggestServer with the default cache-only threshold and the
// transient-retry ladder armed — while failpoints (support/failpoint.h)
// inject faults into the frontend, the cache, the forward, the tensor pool,
// and the scheduler. Every future must complete (value or typed error);
// the headline gate is *non-shed availability*: of the requests not shed
// by cache-only mode, the fraction that completed with a value must be at
// least G2P_CHAOS_FLOOR (default 0.99 — CI pins a lenient floor on shared
// runners). p50/p99 latency under chaos and every fault-tolerance counter
// are reported and written to --json. The percentiles run over every
// request, a failed one counting as infinitely late: a mechanism that turns
// slow requests into failures cannot read faster. A percentile that falls
// on a failure prints `inf` (the JSON string "inf").
//
// The fault schedule: G2P_FAILPOINTS, when set, is used as-is (the chaos CI
// job randomizes the seeds this way); otherwise a default low-probability
// schedule covering all five serving-path sites is used. Either way it is
// armed only for the measured open loop: training and the cache-off
// capacity calibration run fault-free, so injected delays cannot inflate
// the service time the arrival interval is sized by, and the per-site hit
// counts cover the served requests alone. Decisions are deterministic per
// (seed, hit-index), so a fixed schedule replays.
//
// Knobs: G2P_SCALE / G2P_EPOCHS / G2P_SEED as in bench_common.h, plus
// G2P_CHAOS_REQUESTS (stream length, default 384) and G2P_CHAOS_FLOOR.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "dataset/generator.h"
#include "serve/errors.h"
#include "serve/server.h"
#include "support/failpoint.h"
#include "support/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Default chaos schedule: every serving-path site armed at a probability
/// low enough that the retry ladder should absorb nearly all of it. The
/// scheduler site stalls instead of throwing — a thrown scheduler fault
/// kills a whole batch with no retry, which is the harsh case the chaos
/// *test* covers; the bench models background infrastructure flakiness.
constexpr const char* kDefaultSchedule =
    "frontend.parse=throw@0.05,101;"
    "cache.insert=error@0.05,102;"
    "encode.forward=delay(2)@0.02,103;"
    "pool.acquire=throw@0.005,104;"
    "scheduler.batch=delay(1)@0.01,105";

}  // namespace

int main(int argc, char** argv) {
  using namespace g2p;
  const auto env = bench::BenchEnv::from_env();
  const std::string json_path = bench::json_path_from_args(argc, argv);

  // The schedule G2P_FAILPOINTS armed at process start (or the default),
  // held back until the open loop.
  const std::string schedule = failpoint::armed() ? failpoint::active_spec() : kDefaultSchedule;
  failpoint::disarm();

  Pipeline::Options options;
  options.corpus = env.generator_config();
  options.corpus.scale = std::max(env.scale, 0.01);
  options.train.epochs = std::min(env.epochs, 2);
  options.train.seed = env.seed;
  std::printf("training pipeline (scale %.3f, %d epochs)...\n", options.corpus.scale,
              options.train.epochs);
  auto pipeline = std::make_shared<Pipeline>(Pipeline::train(options));

  // Fresh distinct files, as in bench_latency_server.
  GeneratorConfig fresh = env.generator_config();
  fresh.scale = std::max(env.scale * 2.0, 0.04);
  fresh.seed = env.seed + 1;
  const Corpus corpus = CorpusGenerator(fresh).generate();
  std::vector<std::string> sources;
  std::set<std::string_view> seen;
  constexpr std::size_t kDistinct = 32;
  for (const auto& sample : corpus.samples) {
    if (seen.insert(sample.file_source).second) sources.push_back(sample.file_source);
    if (sources.size() == kDistinct) break;
  }
  if (sources.size() < kDistinct) {
    std::printf("FAIL: only %zu distinct files generated (need %zu); raise G2P_SCALE\n",
                sources.size(), kDistinct);
    return 1;
  }

  std::size_t num_requests = 384;
  if (const char* env_n = std::getenv("G2P_CHAOS_REQUESTS")) {
    num_requests = static_cast<std::size_t>(std::strtoull(env_n, nullptr, 10));
  }
  double floor = 0.99;
  if (const char* env_floor = std::getenv("G2P_CHAOS_FLOOR")) floor = std::atof(env_floor);

  // Capacity calibration: mean per-request sequential service time with the
  // cache off (the no-batching worker the arrival rate is sized against).
  pipeline->set_cache_bytes(0);
  for (const auto& src : sources) (void)pipeline->suggest(src);  // warmup
  double total_service = 0.0;
  {
    const auto start = Clock::now();
    for (const auto& src : sources) (void)pipeline->suggest(src);
    total_service = seconds_since(start);
  }
  const double mean_service = total_service / static_cast<double>(sources.size());
  pipeline->set_cache_bytes(64u << 20);
  pipeline->clear_cache();  // chaos traffic warms its own cache under faults

  std::printf("fault schedule: %s\n", schedule.c_str());

  SuggestServer::Options server_options;
  server_options.max_batch_requests = 32;
  server_options.max_queue_depth = 256;
  server_options.max_retries = 3;
  // Cache-only mode at its default 75% depth — at 1x capacity it should
  // never leave kNormal.
  SuggestServer server(pipeline, server_options);

  // Open-loop arrivals at 1x the sequential worker's capacity.
  const double interval_s = mean_service;
  std::printf("mean sequential service: %.3f ms | open-loop interval: %.3f ms | %zu requests\n",
              mean_service * 1e3, interval_s * 1e3, num_requests);
  const auto source_of = [&](std::size_t i) { return i % sources.size(); };

  std::vector<std::future<std::vector<LoopSuggestion>>> futures(num_requests);
  std::atomic<std::size_t> submitted{0};
  failpoint::configure(schedule);  // the measured phase starts here
  const auto t0 = Clock::now();
  std::thread producer([&] {
    for (std::size_t i = 0; i < num_requests; ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) * interval_s)));
      futures[i] = server.submit(sources[source_of(i)]);
      submitted.store(i + 1, std::memory_order_release);
    }
  });

  // Invariant: every future completes — a value or a typed error.
  // A hang here is a harness failure by construction.
  // A request that fails keeps its infinite latency.
  std::size_t completed = 0, injected_faults = 0, typed_errors = 0, untyped_errors = 0;
  std::vector<double> latency_s(num_requests, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < num_requests; ++i) {
    while (submitted.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    try {
      (void)futures[i].get();
      ++completed;
      latency_s[i] = seconds_since(t0) - static_cast<double>(i) * interval_s;
    } catch (const failpoint::FailpointError&) {
      ++injected_faults;
    } catch (const ServeError&) {
      ++typed_errors;
    } catch (const std::exception& e) {
      ++untyped_errors;
      std::printf("UNTYPED error on request %zu: %s\n", i, e.what());
    }
  }
  producer.join();
  server.shutdown();
  const auto stats = server.stats();
  // Snapshot what the measured phase injected, then disarm.
  bench::JsonMetrics json;
  bench::set_common_header(json, "chaos");
  const auto site_counters = failpoint::counters();
  failpoint::disarm();
  const double p50_ms = bench::percentile(latency_s, 0.50) * 1e3;
  const double p99_ms = bench::percentile(latency_s, 0.99) * 1e3;

  // Non-shed availability: of the requests cache-only mode did not shed,
  // how many produced a value. (Overloaded completions are deliberate
  // load-shedding, not failures — counted separately.)
  const std::size_t shed = stats.shed;
  const std::size_t not_shed = num_requests - std::min(num_requests, shed);
  const double availability =
      not_shed == 0 ? 0.0
                    : static_cast<double>(completed) / static_cast<double>(not_shed);

  TextTable table({"metric", "value"});
  table.add_row({"requests", std::to_string(num_requests)});
  table.add_row({"completed", std::to_string(completed)});
  table.add_row({"injected faults surfaced", std::to_string(injected_faults)});
  table.add_row({"typed serve errors", std::to_string(typed_errors)});
  table.add_row({"shed (cache-only misses)", std::to_string(shed)});
  table.add_row({"availability (non-shed)", fmt_fixed(availability * 100.0, 2) + "%"});
  table.add_row({"p50 (ms)", fmt_fixed(p50_ms, 2)});
  table.add_row({"p99 (ms)", fmt_fixed(p99_ms, 2)});
  table.add_row({"retries / recovered", std::to_string(stats.retries) + " / " +
                                            std::to_string(stats.retry_recovered)});
  table.add_row({"expired", std::to_string(stats.expired)});
  table.add_row({"scheduler faults", std::to_string(stats.scheduler_faults)});
  std::printf("%s", table.render().c_str());
  for (const auto& site : site_counters) {
    std::printf("site %-18s hits %8llu  injected %6llu\n", site.site.c_str(),
                static_cast<unsigned long long>(site.hits),
                static_cast<unsigned long long>(site.injected));
  }

  bool ok = true;
  if (untyped_errors != 0) {
    std::printf("FAIL: %zu untyped errors escaped to clients\n", untyped_errors);
    ok = false;
  }
  if (availability < floor) {
    std::printf("FAIL: availability %.4f below the %.4f floor\n", availability, floor);
    ok = false;
  }
  std::printf("availability %.4f (floor %.4f)\n", availability, floor);

  json.set("requests", static_cast<std::int64_t>(num_requests));
  json.set("completed", static_cast<std::int64_t>(completed));
  json.set("injected_faults_surfaced", static_cast<std::int64_t>(injected_faults));
  json.set("typed_errors", static_cast<std::int64_t>(typed_errors));
  json.set("untyped_errors", static_cast<std::int64_t>(untyped_errors));
  json.set("shed", static_cast<std::int64_t>(shed));
  json.set("availability", availability);
  json.set("availability_floor", floor);
  json.set("p50_ms", p50_ms);
  json.set("p99_ms", p99_ms);
  json.set("retries", static_cast<std::int64_t>(stats.retries));
  json.set("retry_recovered", static_cast<std::int64_t>(stats.retry_recovered));
  json.set("expired", static_cast<std::int64_t>(stats.expired));
  json.set("scheduler_faults", static_cast<std::int64_t>(stats.scheduler_faults));
  json.set("mode_cache_only_entered",
           static_cast<std::int64_t>(stats.mode_cache_only_entered));
  json.set("mode_recovered", static_cast<std::int64_t>(stats.mode_recovered));
  // Resolved degradation config, mirroring bench_latency_server.
  json.set("degrade_cache_only_at", server_options.cache_only_at);
  json.set("max_retries", server_options.max_retries);
  json.set("pass", ok);
  if (!json.write(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
