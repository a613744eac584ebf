// Adversarial bench: clean-request availability and tail latency when a
// fraction of the stream is hostile.
//
// Trains a small pipeline, measures a sequential worker's mean service time
// (cache off), then fires two open-loop streams at that capacity through a
// SuggestServer with the default per-request ResourceBudget armed:
//
//   phase 1 (baseline)     100% clean traffic — reference p99
//   phase 2 (adversarial)  the same stream with every 10th request replaced
//                          by a pathological source (deep nesting, token
//                          bombs, unterminated comments, non-advancing
//                          shapes, oversize admission rejects)
//
// Gates (exit 1 on violation):
//   * every poison request fails with a *typed* error (ResourceExhausted /
//     ParseError / LexError) — a poison success or an untyped escape fails
//   * clean availability under attack >= kAvailabilityFloor (0.99)
//   * clean p99 under attack <= baseline p99 * kP99Factor (3.0) +
//     kP99SlackMs (25 ms absolute slack, so sub-millisecond baselines don't
//     gate on scheduler noise)
//
// Knobs: G2P_SCALE / G2P_EPOCHS / G2P_SEED as in bench_common.h, plus
// G2P_ADV_REQUESTS (per-phase stream length, default 320). Results go to
// --json (BENCH_adversarial.json in CI).
#include <algorithm>
#include <atomic>
#include <chrono>
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
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "serve/errors.h"
#include "serve/server.h"
#include "support/table.h"

namespace {

using Clock = std::chrono::steady_clock;

// Gates (see the header comment).
constexpr double kAvailabilityFloor = 0.99;
constexpr double kP99Factor = 3.0;
constexpr double kP99SlackMs = 25.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The poison set: one of each adversarial family the governor and the
/// frontend guards exist for. All are cheap to reject — the whole point is
/// that a poison slot dies in microseconds-to-milliseconds, not seconds.
std::vector<std::string> poison_sources() {
  std::vector<std::string> out;
  {  // recursion bomb: blows the parse-depth budget mid-parse
    std::string s = "int f(void) { return ";
    for (int i = 0; i < 2000; ++i) s += '(';
    s += '1';
    for (int i = 0; i < 2000; ++i) s += ')';
    s += "; }";
    out.push_back(std::move(s));
  }
  {  // block-nesting bomb
    std::string s = "void f(void) { ";
    for (int i = 0; i < 2000; ++i) s += "{ ";
    for (int i = 0; i < 2000; ++i) s += "} ";
    s += "}";
    out.push_back(std::move(s));
  }
  out.push_back("int g(void) { /* never closed");    // LexError at EOF
  out.push_back("struct s { int a[");                // non-advancing shape
  {  // unary-operator bomb
    std::string s = "int h(void) { return ";
    for (int i = 0; i < 3000; ++i) s += '!';
    s += "1; }";
    out.push_back(std::move(s));
  }
  return out;
}

struct PhaseResult {
  std::size_t clean_total = 0;
  std::size_t clean_completed = 0;
  std::size_t clean_typed_errors = 0;
  std::size_t poison_total = 0;
  std::size_t poison_typed = 0;    // rejected with a typed error (required)
  std::size_t poison_accepted = 0; // produced a value (a gate failure)
  std::size_t untyped_errors = 0;
  std::vector<double> clean_latency_s;

  double clean_availability() const {
    return clean_total == 0 ? 0.0
                            : static_cast<double>(clean_completed) /
                                  static_cast<double>(clean_total);
  }
};

/// One open-loop stream at `interval_s` spacing. `poison_every` == 0 means
/// all-clean; otherwise every poison_every-th request draws from the poison
/// set (round-robin) instead of the clean set.
PhaseResult run_phase(g2p::SuggestServer& server, const std::vector<std::string>& clean,
                      const std::vector<std::string>& poison, std::size_t poison_every,
                      std::size_t num_requests, double interval_s) {
  using namespace g2p;
  PhaseResult r;
  std::vector<std::future<std::vector<LoopSuggestion>>> futures(num_requests);
  // 1 = admitted clean, 2 = admitted poison, 3 = poison rejected
  // synchronously at admission (already typed).
  std::vector<char> slot(num_requests, 0);
  std::atomic<std::size_t> submitted{0};
  const auto t0 = Clock::now();
  std::thread producer([&] {
    std::size_t poison_i = 0;
    for (std::size_t i = 0; i < num_requests; ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) * interval_s)));
      const bool is_poison = poison_every != 0 && (i % poison_every) == poison_every - 1;
      try {
        if (is_poison) {
          futures[i] = server.submit(poison[poison_i++ % poison.size()]);
          slot[i] = 2;
        } else {
          futures[i] = server.submit(clean[i % clean.size()]);
          slot[i] = 1;
        }
      } catch (const ResourceExhausted&) {
        slot[i] = 3;  // admission governor said no: typed, synchronous
      }
      submitted.store(i + 1, std::memory_order_release);
    }
  });

  for (std::size_t i = 0; i < num_requests; ++i) {
    while (submitted.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    const bool is_poison = slot[i] >= 2;
    if (is_poison) ++r.poison_total; else ++r.clean_total;
    if (slot[i] == 3) {
      ++r.poison_typed;
      continue;
    }
    try {
      (void)futures[i].get();
      if (is_poison) {
        ++r.poison_accepted;
      } else {
        ++r.clean_completed;
        r.clean_latency_s.push_back(seconds_since(t0) -
                                    static_cast<double>(i) * interval_s);
      }
    } catch (const LexError&) {
      if (is_poison) ++r.poison_typed; else ++r.clean_typed_errors;
    } catch (const ParseError&) {
      if (is_poison) ++r.poison_typed; else ++r.clean_typed_errors;
    } catch (const ServeError&) {  // ResourceExhausted and kin
      if (is_poison) ++r.poison_typed; else ++r.clean_typed_errors;
    } catch (const std::exception& e) {
      ++r.untyped_errors;
      std::printf("UNTYPED error on request %zu: %s\n", i, e.what());
    }
  }
  producer.join();
  return r;
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

  GeneratorConfig fresh = env.generator_config();
  fresh.scale = std::max(env.scale * 2.0, 0.04);
  fresh.seed = env.seed + 1;
  const Corpus corpus = CorpusGenerator(fresh).generate();
  std::vector<std::string> clean;
  std::set<std::string_view> seen;
  constexpr std::size_t kDistinct = 32;
  for (const auto& sample : corpus.samples) {
    if (seen.insert(sample.file_source).second) clean.push_back(sample.file_source);
    if (clean.size() == kDistinct) break;
  }
  if (clean.size() < kDistinct) {
    std::printf("FAIL: only %zu distinct files generated (need %zu); raise G2P_SCALE\n",
                clean.size(), kDistinct);
    return 1;
  }
  std::vector<std::string> poison = poison_sources();
  // One oversize source past the default 2 MiB admission cap: exercises the
  // synchronous static reject alongside the mid-parse ones.
  poison.push_back(std::string((2u << 20) + 4096, 'x'));

  std::size_t num_requests = 320;
  if (const char* env_n = std::getenv("G2P_ADV_REQUESTS")) {
    num_requests = static_cast<std::size_t>(std::strtoull(env_n, nullptr, 10));
  }

  // Capacity calibration (cache off), as in bench_chaos.
  pipeline->set_cache_bytes(0);
  for (const auto& src : clean) (void)pipeline->suggest(src);  // warmup
  double total_service = 0.0;
  {
    const auto start = Clock::now();
    for (const auto& src : clean) (void)pipeline->suggest(src);
    total_service = seconds_since(start);
  }
  const double mean_service = total_service / static_cast<double>(clean.size());
  const double interval_s = mean_service;
  std::printf("mean sequential service: %.3f ms | open-loop interval: %.3f ms | %zu requests/phase\n",
              mean_service * 1e3, interval_s * 1e3, num_requests);

  SuggestServer::Options server_options;
  server_options.max_batch_requests = 32;
  server_options.max_queue_depth = 256;

  // Phase 1: clean-only baseline.
  pipeline->set_cache_bytes(64u << 20);
  pipeline->clear_cache();
  PhaseResult baseline;
  {
    SuggestServer server(pipeline, server_options);
    baseline = run_phase(server, clean, poison, 0, num_requests, interval_s);
    server.shutdown();
  }
  const double baseline_p99_ms = bench::percentile(baseline.clean_latency_s, 0.99) * 1e3;

  // Phase 2: every 10th request is poison (a 10% hostile stream).
  pipeline->clear_cache();
  PhaseResult adv;
  ServerStatsSnapshot adv_stats;
  {
    SuggestServer server(pipeline, server_options);
    adv = run_phase(server, clean, poison, 10, num_requests, interval_s);
    server.shutdown();
    adv_stats = server.stats();
  }
  const double adv_p99_ms = bench::percentile(adv.clean_latency_s, 0.99) * 1e3;
  const double p99_budget_ms = baseline_p99_ms * kP99Factor + kP99SlackMs;
  const double availability = adv.clean_availability();

  TextTable table({"metric", "baseline", "adversarial"});
  table.add_row({"clean requests", std::to_string(baseline.clean_total),
                 std::to_string(adv.clean_total)});
  table.add_row({"clean completed", std::to_string(baseline.clean_completed),
                 std::to_string(adv.clean_completed)});
  table.add_row({"poison requests", "0", std::to_string(adv.poison_total)});
  table.add_row({"poison rejected typed", "-", std::to_string(adv.poison_typed)});
  table.add_row({"poison accepted", "-", std::to_string(adv.poison_accepted)});
  table.add_row({"clean p50 (ms)",
                 fmt_fixed(bench::percentile(baseline.clean_latency_s, 0.50) * 1e3, 2),
                 fmt_fixed(bench::percentile(adv.clean_latency_s, 0.50) * 1e3, 2)});
  table.add_row({"clean p99 (ms)", fmt_fixed(baseline_p99_ms, 2), fmt_fixed(adv_p99_ms, 2)});
  table.add_row({"clean availability", fmt_fixed(baseline.clean_availability() * 100, 2) + "%",
                 fmt_fixed(availability * 100, 2) + "%"});
  std::printf("%s", table.render().c_str());
  std::printf("governor rejections: %llu total",
              static_cast<unsigned long long>(adv_stats.resource_exhausted));
  for (int i = 0; i < kNumResourceLimits; ++i) {
    if (adv_stats.resource_exhausted_by_limit[static_cast<std::size_t>(i)] == 0) continue;
    std::printf(" | %s %llu", resource_limit_name(static_cast<ResourceLimit>(i)),
                static_cast<unsigned long long>(
                    adv_stats.resource_exhausted_by_limit[static_cast<std::size_t>(i)]));
  }
  std::printf("\n");

  bool ok = true;
  if (adv.untyped_errors != 0 || baseline.untyped_errors != 0) {
    std::printf("FAIL: untyped errors escaped to clients (baseline %zu, adversarial %zu)\n",
                baseline.untyped_errors, adv.untyped_errors);
    ok = false;
  }
  if (adv.poison_accepted != 0) {
    std::printf("FAIL: %zu poison requests were accepted\n", adv.poison_accepted);
    ok = false;
  }
  if (adv.poison_typed != adv.poison_total) {
    std::printf("FAIL: only %zu of %zu poison requests failed typed\n", adv.poison_typed,
                adv.poison_total);
    ok = false;
  }
  if (availability < kAvailabilityFloor) {
    std::printf("FAIL: clean availability %.4f below the %.4f floor\n", availability,
                kAvailabilityFloor);
    ok = false;
  }
  if (adv_p99_ms > p99_budget_ms) {
    std::printf("FAIL: clean p99 %.2f ms exceeds budget %.2f ms (baseline %.2f ms x %.1f + %.0f ms)\n",
                adv_p99_ms, p99_budget_ms, baseline_p99_ms, kP99Factor, kP99SlackMs);
    ok = false;
  }
  std::printf("clean availability %.4f (floor %.4f) | clean p99 %.2f ms (budget %.2f ms)\n",
              availability, kAvailabilityFloor, adv_p99_ms, p99_budget_ms);

  bench::JsonMetrics json;
  bench::set_common_header(json, "adversarial");
  json.set("requests_per_phase", static_cast<std::int64_t>(num_requests));
  json.set("poison_fraction", 0.1);
  json.set("baseline_clean_completed", static_cast<std::int64_t>(baseline.clean_completed));
  json.set("baseline_p50_ms", bench::percentile(baseline.clean_latency_s, 0.50) * 1e3);
  json.set("baseline_p99_ms", baseline_p99_ms);
  json.set("adv_clean_total", static_cast<std::int64_t>(adv.clean_total));
  json.set("adv_clean_completed", static_cast<std::int64_t>(adv.clean_completed));
  json.set("adv_poison_total", static_cast<std::int64_t>(adv.poison_total));
  json.set("adv_poison_typed", static_cast<std::int64_t>(adv.poison_typed));
  json.set("adv_poison_accepted", static_cast<std::int64_t>(adv.poison_accepted));
  json.set("adv_untyped_errors", static_cast<std::int64_t>(adv.untyped_errors));
  json.set("adv_p50_ms", bench::percentile(adv.clean_latency_s, 0.50) * 1e3);
  json.set("adv_p99_ms", adv_p99_ms);
  json.set("clean_availability", availability);
  json.set("availability_floor", kAvailabilityFloor);
  json.set("p99_budget_ms", p99_budget_ms);
  json.set("p99_factor", kP99Factor);
  json.set("p99_slack_ms", kP99SlackMs);
  json.set("resource_exhausted", static_cast<std::int64_t>(adv_stats.resource_exhausted));
  for (int i = 0; i < kNumResourceLimits; ++i) {
    json.set(std::string("resource_exhausted_") +
                 resource_limit_name(static_cast<ResourceLimit>(i)),
             static_cast<std::int64_t>(
                 adv_stats.resource_exhausted_by_limit[static_cast<std::size_t>(i)]));
  }
  json.set("pass", ok);
  if (!json.write(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
