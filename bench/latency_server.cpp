// Open-loop serving comparison: async micro-batching server vs per-request
// sequential serving.
//
// Trains a small pipeline, generates fresh C files, then fires an open-loop
// request stream (arrivals on a fixed schedule, independent of completions —
// the regime a server actually faces) at ~1.7x the measured capacity of a
// single sequential worker:
//   * sequential: a FIFO single-server queue simulated from per-request
//     service times measured on this machine (one Pipeline::suggest call per
//     request, no batching), and
//   * async server: real SuggestServer, scheduler popping whatever is
//     queued (up to max_batch_requests) and serving each batch with one
//     batched forward.
// Reports per-mode throughput and p50/p99 latency against the arrival
// schedule, plus the server's mean achieved batch size. Fails (exit 1) if
// server outputs are not equivalent to per-source suggest (same tolerance
// as bench_throughput_batched) or if server throughput falls below
// G2P_SERVE_FLOOR x sequential throughput (default 1.0; shared CI runners
// are noisy, so CI pins a lenient floor and keeps equivalence as the hard
// gate).
//
// Since PR 4 the async server serves through the content-addressed
// SuggestCache (the sequential baseline is measured with the cache off, so
// it still models a no-batching, no-caching per-request worker); the report
// and --json output include cache hit-rate and frontend-time-saved. The
// dedicated cache floors (>=2x frontend, >=5x cached suggest) live in
// bench_frontend.
//
// Knobs: G2P_SCALE / G2P_EPOCHS / G2P_SEED as in bench_common.h, plus
// G2P_SERVE_FLOOR and G2P_SERVE_REQUESTS (stream length, default 512).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "dataset/generator.h"
#include "serve/server.h"
#include "support/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g2p;
  const auto env = bench::BenchEnv::from_env();
  const std::string json_path = bench::json_path_from_args(argc, argv);

  Pipeline::Options options;
  options.corpus = env.generator_config();
  options.corpus.scale = std::max(env.scale, 0.01);
  options.train.epochs = std::min(env.epochs, 2);
  options.train.seed = env.seed;
  std::printf("training pipeline (scale %.3f, %d epochs)...\n", options.corpus.scale,
              options.train.epochs);
  auto pipeline = std::make_shared<Pipeline>(Pipeline::train(options));

  // Fresh (unseen) distinct files, as in bench_throughput_batched.
  GeneratorConfig fresh = env.generator_config();
  fresh.scale = std::max(env.scale * 2.0, 0.04);
  fresh.seed = env.seed + 1;
  const Corpus corpus = CorpusGenerator(fresh).generate();
  std::vector<std::string> sources;
  std::set<std::string_view> seen;
  constexpr std::size_t kDistinct = 64;
  for (const auto& sample : corpus.samples) {
    if (seen.insert(sample.file_source).second) sources.push_back(sample.file_source);
    if (sources.size() == kDistinct) break;
  }
  if (sources.size() < kDistinct) {
    std::printf("FAIL: only %zu distinct files generated (need %zu); raise G2P_SCALE\n",
                sources.size(), kDistinct);
    return 1;
  }

  std::size_t num_requests = 512;
  if (const char* env_n = std::getenv("G2P_SERVE_REQUESTS")) {
    num_requests = static_cast<std::size_t>(std::strtoull(env_n, nullptr, 10));
  }

  // Reference outputs + measured per-source sequential service times
  // (warmup pass first, then the measured pass — steady-state allocator and
  // branch-predictor state, as a long-running server would see). The
  // serving cache is disabled here: the sequential baseline models a
  // no-batching, no-caching per-request worker, and the expected outputs
  // double as the oracle that cached serving must still match.
  pipeline->set_cache_bytes(0);
  std::vector<std::vector<LoopSuggestion>> expected(sources.size());
  std::vector<double> service_s(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) expected[s] = pipeline->suggest(sources[s]);
  double total_service = 0.0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto start = Clock::now();
    expected[s] = pipeline->suggest(sources[s]);
    service_s[s] = seconds_since(start);
    total_service += service_s[s];
  }
  const double mean_service = total_service / static_cast<double>(sources.size());
  pipeline->set_cache_bytes(64u << 20);  // the async server serves cached

  // Open-loop arrival schedule at ~1.7x a sequential worker's capacity: the
  // sequential queue falls behind and latency grows; batching must absorb it.
  const double interval_s = 0.6 * mean_service;
  std::printf("mean sequential service: %.3f ms/request | open-loop interval: %.3f ms | %zu"
              " requests\n",
              mean_service * 1e3, interval_s * 1e3, num_requests);
  const auto source_of = [&](std::size_t i) { return i % sources.size(); };

  // ---- sequential per-request baseline (FIFO single-server queue) ----------
  // Simulated from the measured service times: arrivals on the schedule,
  // one worker serving in order. Deterministic given the measurements, and
  // exactly what "no batching, one suggest per request" costs.
  std::vector<double> seq_latency_s;
  seq_latency_s.reserve(num_requests);
  double worker_free_at = 0.0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    const double arrival = static_cast<double>(i) * interval_s;
    const double begin = std::max(worker_free_at, arrival);
    worker_free_at = begin + service_s[source_of(i)];
    seq_latency_s.push_back(worker_free_at - arrival);
  }
  const double seq_makespan = worker_free_at;  // first arrival is t=0
  const double seq_throughput = static_cast<double>(num_requests) / seq_makespan;

  // ---- async micro-batching server (real run) ------------------------------
  SuggestServer::Options server_options;
  server_options.max_batch_requests = 32;
  server_options.max_queue_depth = num_requests + 1;  // pure open loop: never block
  // This bench measures the undegraded serving path (every future must hold
  // a value for the equivalence gate): cache-only mode is disabled here and
  // exercised by bench_chaos instead.
  server_options.cache_only_at = 1.5;
  SuggestServer server(pipeline, server_options);

  // Warmup pass through every distinct source.
  {
    std::vector<std::future<std::vector<LoopSuggestion>>> warmup;
    for (const auto& src : sources) warmup.push_back(server.submit(src));
    for (auto& f : warmup) (void)f.get();
  }

  // Producer thread fires the open-loop schedule; the main thread collects
  // completions concurrently so each request's completion is timestamped
  // when it happens, not after the whole submission phase. Completion order
  // is FIFO (the scheduler pops in arrival order), so waiting in submission
  // order is accurate.
  std::vector<std::future<std::vector<LoopSuggestion>>> futures(num_requests);
  std::atomic<std::size_t> submitted{0};
  const auto t0 = Clock::now();
  std::thread producer([&] {
    for (std::size_t i = 0; i < num_requests; ++i) {
      // Absolute deadlines: if submission falls behind schedule it fires
      // immediately, preserving open-loop arrivals instead of shifting them.
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) * interval_s)));
      futures[i] = server.submit(sources[source_of(i)]);
      submitted.store(i + 1, std::memory_order_release);
    }
  });
  std::vector<double> srv_latency_s;
  srv_latency_s.reserve(num_requests);
  std::vector<std::vector<LoopSuggestion>> served(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    while (submitted.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    served[i] = futures[i].get();
    srv_latency_s.push_back(seconds_since(t0) - static_cast<double>(i) * interval_s);
  }
  producer.join();
  const double srv_makespan = seconds_since(t0);
  const double srv_throughput = static_cast<double>(num_requests) / srv_makespan;
  const auto stats = server.stats();

  // ---- report --------------------------------------------------------------
  TextTable table({"mode", "throughput (req/s)", "p50 (ms)", "p99 (ms)"});
  table.add_row({"sequential", fmt_fixed(seq_throughput, 1),
                 fmt_fixed(bench::percentile(seq_latency_s, 0.50) * 1e3, 2),
                 fmt_fixed(bench::percentile(seq_latency_s, 0.99) * 1e3, 2)});
  table.add_row({"async server", fmt_fixed(srv_throughput, 1),
                 fmt_fixed(bench::percentile(srv_latency_s, 0.50) * 1e3, 2),
                 fmt_fixed(bench::percentile(srv_latency_s, 0.99) * 1e3, 2)});
  std::printf("%s", table.render().c_str());
  std::printf("mean achieved batch size: %.2f (max %llu over %llu batches)\n",
              stats.mean_batch_size(), static_cast<unsigned long long>(stats.max_batch),
              static_cast<unsigned long long>(stats.batches));
  std::printf("serving cache: %.1f%% hit rate (%llu full / %llu frontend / %llu miss), "
              "%.1f ms frontend time saved\n",
              stats.cache_hit_rate() * 100.0,
              static_cast<unsigned long long>(stats.cache_full_hits),
              static_cast<unsigned long long>(stats.cache_frontend_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<double>(stats.cache_frontend_saved_us) / 1e3);
  std::printf("race verifier: %s (%llu verified / %llu repaired / %llu vetoed / %llu unknown)\n",
              stats.verify ? "on" : "off",
              static_cast<unsigned long long>(stats.verdict_verified),
              static_cast<unsigned long long>(stats.verdict_repaired),
              static_cast<unsigned long long>(stats.verdict_vetoed),
              static_cast<unsigned long long>(stats.verdict_unknown));
  std::printf("resource governor: %llu rejected\n",
              static_cast<unsigned long long>(stats.resource_exhausted));

  // ---- equivalence gate ----------------------------------------------------
  std::size_t mismatches = 0;
  double max_conf_delta = 0.0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    const auto& want = expected[source_of(i)];
    if (served[i].size() != want.size()) {
      ++mismatches;
      continue;
    }
    for (std::size_t k = 0; k < want.size(); ++k) {
      max_conf_delta =
          std::max(max_conf_delta, std::fabs(served[i][k].confidence - want[k].confidence));
      if (served[i][k].parallel != want[k].parallel ||
          served[i][k].category != want[k].category ||
          served[i][k].suggested_pragma != want[k].suggested_pragma) {
        ++mismatches;
      }
    }
  }
  std::printf("max |Δconfidence| vs per-request suggest: %.2e   mismatches: %zu\n",
              max_conf_delta, mismatches);

  double floor = 1.0;
  if (const char* env_floor = std::getenv("G2P_SERVE_FLOOR")) floor = std::atof(env_floor);
  const double ratio = srv_throughput / seq_throughput;
  std::printf("server/sequential throughput: %.2fx (floor %.2fx)\n", ratio, floor);

  bool ok = true;
  if (mismatches != 0 || max_conf_delta > 1e-5) {
    std::printf("FAIL: server outputs are not equivalent to per-request suggest\n");
    ok = false;
  }
  if (ratio < floor) {
    std::printf("FAIL: server throughput %.2fx below the %.2fx floor\n", ratio, floor);
    ok = false;
  }

  bench::JsonMetrics json;
  bench::set_common_header(json, "latency_server");
  json.set("requests", static_cast<std::int64_t>(num_requests));
  json.set("sequential_rps", seq_throughput);
  json.set("server_rps", srv_throughput);
  json.set("server_p50_ms", bench::percentile(srv_latency_s, 0.50) * 1e3);
  json.set("server_p99_ms", bench::percentile(srv_latency_s, 0.99) * 1e3);
  json.set("sequential_p50_ms", bench::percentile(seq_latency_s, 0.50) * 1e3);
  json.set("mean_batch_size", stats.mean_batch_size());
  json.set("deduped", static_cast<std::int64_t>(stats.deduped));
  json.set("cache_hit_rate", stats.cache_hit_rate());
  json.set("cache_full_hits", static_cast<std::int64_t>(stats.cache_full_hits));
  json.set("cache_frontend_hits", static_cast<std::int64_t>(stats.cache_frontend_hits));
  json.set("cache_misses", static_cast<std::int64_t>(stats.cache_misses));
  json.set("cache_frontend_saved_ms",
           static_cast<double>(stats.cache_frontend_saved_us) / 1e3);
  json.set("verify", stats.verify);
  json.set("verdict_verified", static_cast<std::int64_t>(stats.verdict_verified));
  json.set("verdict_repaired", static_cast<std::int64_t>(stats.verdict_repaired));
  json.set("verdict_vetoed", static_cast<std::int64_t>(stats.verdict_vetoed));
  json.set("verdict_unknown", static_cast<std::int64_t>(stats.verdict_unknown));
  json.set("resource_exhausted", static_cast<std::int64_t>(stats.resource_exhausted));
  for (std::size_t i = 0; i < stats.resource_exhausted_by_limit.size(); ++i) {
    json.set(std::string("resource_exhausted_") +
                 resource_limit_name(static_cast<ResourceLimit>(i)),
             static_cast<std::int64_t>(stats.resource_exhausted_by_limit[i]));
  }
  // Resolved cache-only threshold (this bench pins it off; a value > 1.0
  // means the mode is disabled) and the fault-tolerance counters — all zero
  // in a clean run, and loud in the json when they are not.
  json.set("degrade_cache_only_at", server_options.cache_only_at);
  json.set("expired", static_cast<std::int64_t>(stats.expired));
  json.set("shed", static_cast<std::int64_t>(stats.shed));
  json.set("retries", static_cast<std::int64_t>(stats.retries));
  json.set("scheduler_faults", static_cast<std::int64_t>(stats.scheduler_faults));
  json.set("throughput_ratio", ratio);
  json.set("floor", floor);
  json.set("max_conf_delta", max_conf_delta);
  json.set("mismatches", static_cast<std::int64_t>(mismatches));
  json.set("pass", ok);
  if (!json.write(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
