// Serving load bench: the async micro-batching SuggestServer under four
// open-loop traffic phases, driven by one trained pipeline and one driver.
//
// Trains a small pipeline, picks 64 distinct fresh files and serves each of
// them twice with the cache off: the first pass warms up, the second gives
// every file's sequential service time and its reference output. Each phase
// then fires G2P_SERVE_REQUESTS (default 384) requests on a fixed arrival
// schedule, independent of completions, through its own SuggestServer. The
// arrival interval is a multiple of the mean sequential service time:
//
//   capacity  clean at 1/0.6x sequential capacity, cache warmed by one pass,
//             cache-only mode off, queue bound n+1 (never blocks). Gate:
//             server throughput >= G2P_SERVE_FLOOR (default 1.0) x that of a
//             FIFO sequential worker simulated from the measured service
//             times on the same schedule.
//   baseline  clean at 1x, cold cache, default server: the reference p99 of
//             the poison phase.
//   poison    as baseline, but every 10th request is a pathological source
//             (nesting bombs, an unterminated comment, a non-advancing shape,
//             an oversize source rejected at admission). Gates: every poison
//             request fails with a typed error and none is accepted; clean
//             availability >= 0.99; clean p99 <= 3x baseline p99 + 25 ms (the
//             slack keeps sub-millisecond baselines from gating on scheduler
//             noise).
//   chaos     clean at 1x with three retries, under the fault schedule of
//             G2P_FAILPOINTS or else kDefaultSchedule. Gate: clean
//             availability (completed / clean requests, the poison phase's
//             formula, so a request cache-only mode sheds counts as a
//             failure) >= G2P_CHAOS_FLOOR (default 0.99).
//
// The fault schedule is held back until the chaos phase: it is armed with
// failpoint::configure for that phase alone and disarmed after it, so
// training, calibration and the clean phases run fault-free, an injected
// delay cannot stretch the arrival interval, and the per-site hit counts
// cover the chaos phase's requests alone. Decisions are deterministic per
// (seed, hit index), so a fixed schedule replays.
//
// In every phase, no error may be untyped and every completed clean request
// must equal its reference: the same loops, parallel flag, category and
// pragma, with confidence within 1e-5. Each request is timed from when it
// was due, and p50/p99 count a failed request as infinitely late (`inf`), so
// a mechanism that turns slow requests into failures cannot read faster.
// Each phase also reports its window (first arrival to last completion) and
// the producer's worst lateness against the schedule; together they say how
// far a phase's p99 can be trusted. `--json <path>` writes every number.
//
// Knobs: G2P_SCALE / G2P_EPOCHS / G2P_SEED as in bench_common.h, plus
// G2P_SERVE_REQUESTS, G2P_SERVE_FLOOR and G2P_CHAOS_FLOOR.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "serve/errors.h"
#include "serve/server.h"
#include "support/failpoint.h"
#include "support/table.h"

using namespace g2p;

namespace {

using bench::Clock;
using bench::seconds_since;

constexpr std::size_t kDistinct = 64;
constexpr double kConfTolerance = 1e-5;
// Poison-phase gates (see the header comment).
constexpr double kCleanAvailabilityFloor = 0.99;
constexpr double kP99Factor = 3.0;
constexpr double kP99SlackMs = 25.0;

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
  // Past the default 2 MiB admission cap: `submit` rejects it synchronously.
  out.push_back(std::string((2u << 20) + 4096, 'x'));
  return out;
}

/// How a request ended. Typed errors are the ones a client can branch on:
/// the serving taxonomy (serve/errors.h) and the frontend's content errors.
enum class Outcome : char { kValue, kInjected, kTyped, kUntyped };

Outcome classify(const std::exception_ptr& error, std::size_t request) {
  try {
    std::rethrow_exception(error);
  } catch (const failpoint::FailpointError&) {
    return Outcome::kInjected;
  } catch (const ServeError&) {
    return Outcome::kTyped;
  } catch (const LexError&) {
    return Outcome::kTyped;
  } catch (const ParseError&) {
    return Outcome::kTyped;
  } catch (const std::exception& e) {
    std::printf("UNTYPED error on request %zu: %s\n", request, e.what());
  } catch (...) {
    std::printf("UNTYPED non-std exception on request %zu\n", request);
  }
  return Outcome::kUntyped;
}

struct Served {
  double latency_s = std::numeric_limits<double>::infinity();  // from due time; inf unless served
  Outcome outcome = Outcome::kUntyped;
  std::vector<LoopSuggestion> value;
};

struct OpenLoop {
  std::vector<Served> served;
  double window_s = 0.0;    // first arrival to last completion
  double max_late_s = 0.0;  // the producer's worst lateness against the schedule
};

/// Submits request i, `pick(i)`, at t0 + i * interval_s from a producer
/// thread while the calling thread collects completions in submission order
/// (the scheduler pops FIFO) and timestamps each as it lands. The deadlines
/// are absolute: a producer that falls behind (a blocking submit) fires at
/// once instead of shifting later arrivals. Never throws: a failed submit or
/// future is classified, and its request stays infinitely late.
template <typename Pick>
OpenLoop run_open_loop(SuggestServer& server, std::size_t n, double interval_s,
                       const Pick& pick) {
  OpenLoop run;
  run.served.resize(n);
  std::vector<std::future<std::vector<LoopSuggestion>>> futures(n);
  std::vector<std::exception_ptr> submit_error(n);
  // Each request's text is built before the clock starts and moved into
  // `submit`: copying the 2 MiB oversize poison on schedule made the
  // producer ~2 ms late.
  std::vector<std::string> requests(n);
  for (std::size_t i = 0; i < n; ++i) requests[i] = pick(i);
  std::atomic<std::size_t> submitted{0};
  const auto due_s = [&](std::size_t i) { return static_cast<double>(i) * interval_s; };
  const auto t0 = Clock::now();
  std::thread producer([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(due_s(i))));
      run.max_late_s = std::max(run.max_late_s, seconds_since(t0) - due_s(i));
      try {
        futures[i] = server.submit(std::move(requests[i]));
      } catch (...) {
        submit_error[i] = std::current_exception();
      }
      submitted.store(i + 1, std::memory_order_release);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    while (submitted.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    Served& s = run.served[i];
    try {
      if (submit_error[i]) std::rethrow_exception(submit_error[i]);
      s.value = futures[i].get();
      s.latency_s = seconds_since(t0) - due_s(i);
      s.outcome = Outcome::kValue;
    } catch (...) {
      s.outcome = classify(std::current_exception(), i);
    }
  }
  producer.join();
  run.window_s = seconds_since(t0);
  return run;
}

/// One row of the load plan.
struct Phase {
  const char* name;
  double interval;               // arrival interval, in mean sequential service times
  std::size_t poison_every = 0;  // every poison_every-th request is poison; 0 = none
  bool warm = false;             // serve every source once before the loop; else a cold cache
  bool chaos = false;            // arm the fault schedule for this phase alone
  SuggestServer::Options server;

  bool is_poison(std::size_t i) const {
    return poison_every != 0 && i % poison_every == poison_every - 1;
  }
};

struct PhaseResult {
  std::size_t clean = 0, completed = 0, typed = 0, injected = 0, untyped = 0;
  std::size_t poison = 0, poison_typed = 0, poison_accepted = 0;
  std::vector<double> clean_latency_s;  // every clean request; inf when it failed
  bench::Equivalence equivalence;
  double window_s = 0.0, max_late_s = 0.0;
  ServerStatsSnapshot stats;

  double p50_ms() const { return bench::percentile(clean_latency_s, 0.50) * 1e3; }
  double p99_ms() const { return bench::percentile(clean_latency_s, 0.99) * 1e3; }
  double clean_availability() const {
    return clean == 0 ? 0.0 : static_cast<double>(completed) / static_cast<double>(clean);
  }
};

PhaseResult summarize(const Phase& phase, const OpenLoop& run,
                      const std::vector<std::vector<LoopSuggestion>>& expected) {
  PhaseResult r;
  r.window_s = run.window_s;
  r.max_late_s = run.max_late_s;
  for (std::size_t i = 0; i < run.served.size(); ++i) {
    const Served& s = run.served[i];
    if (s.outcome == Outcome::kUntyped) ++r.untyped;
    if (phase.is_poison(i)) {
      ++r.poison;
      if (s.outcome == Outcome::kTyped) ++r.poison_typed;
      if (s.outcome == Outcome::kValue) ++r.poison_accepted;
      continue;
    }
    ++r.clean;
    r.clean_latency_s.push_back(s.latency_s);
    if (s.outcome == Outcome::kValue) {
      ++r.completed;
      r.equivalence.compare(s.value, expected[i % expected.size()]);
    }
    if (s.outcome == Outcome::kTyped) ++r.typed;
    if (s.outcome == Outcome::kInjected) ++r.injected;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto env = bench::BenchEnv::from_env();
  const std::string json_path = bench::json_path_from_args(argc, argv);

  // The schedule G2P_FAILPOINTS armed at process start (or the default),
  // held back until the chaos phase.
  const std::string schedule = failpoint::armed() ? failpoint::active_spec() : kDefaultSchedule;
  failpoint::disarm();

  std::size_t num_requests = 384;
  if (const char* s = std::getenv("G2P_SERVE_REQUESTS")) {
    num_requests = static_cast<std::size_t>(std::strtoull(s, nullptr, 10));
  }
  double serve_floor = 1.0;
  if (const char* s = std::getenv("G2P_SERVE_FLOOR")) serve_floor = std::atof(s);
  double chaos_floor = 0.99;
  if (const char* s = std::getenv("G2P_CHAOS_FLOOR")) chaos_floor = std::atof(s);

  auto pipeline = std::make_shared<Pipeline>(bench::train_serving_pipeline(env));
  const std::vector<std::string> sources =
      bench::fresh_sources(env, kDistinct, std::max(env.scale * 2.0, 0.04));
  const std::vector<std::string> poison = poison_sources();

  // Calibration with the cache off: a warmup pass, then the measured pass
  // gives each source's sequential service time (the no-batching, no-caching
  // per-request worker the arrival rates are sized against) and the
  // reference output every served result must match.
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
  pipeline->set_cache_bytes(64u << 20);
  std::printf("mean sequential service: %.3f ms/request | %zu requests/phase | "
              "fault schedule: %s\n",
              mean_service * 1e3, num_requests, schedule.c_str());

  SuggestServer::Options capacity_server;
  capacity_server.max_queue_depth = num_requests + 1;  // pure open loop: never block
  capacity_server.cache_only_at = 1.5;  // off: the undegraded path, every future a value
  SuggestServer::Options default_server;
  default_server.max_queue_depth = 256;
  SuggestServer::Options chaos_server = default_server;
  chaos_server.max_retries = 3;
  const std::vector<Phase> phases = {
      {.name = "capacity", .interval = 0.6, .warm = true, .server = capacity_server},
      {.name = "baseline", .interval = 1.0, .server = default_server},
      {.name = "poison", .interval = 1.0, .poison_every = 10, .server = default_server},
      {.name = "chaos", .interval = 1.0, .chaos = true, .server = chaos_server},
  };
  enum { kCapacity, kBaseline, kPoison, kChaos };

  std::vector<PhaseResult> results;
  std::vector<failpoint::SiteCounters> site_counters;
  for (const Phase& phase : phases) {
    if (!phase.warm) pipeline->clear_cache();
    SuggestServer server(pipeline, phase.server);
    if (phase.warm) {
      std::vector<std::future<std::vector<LoopSuggestion>>> warmup;
      for (const auto& src : sources) warmup.push_back(server.submit(src));
      for (auto& f : warmup) f.wait();
    }
    const auto pick = [&](std::size_t i) -> const std::string& {
      return phase.is_poison(i) ? poison[(i / phase.poison_every) % poison.size()]
                                : sources[i % sources.size()];
    };
    if (phase.chaos) failpoint::configure(schedule);
    const OpenLoop run = run_open_loop(server, num_requests, phase.interval * mean_service, pick);
    server.shutdown();
    if (phase.chaos) {
      site_counters = failpoint::counters();
      failpoint::disarm();
    }
    results.push_back(summarize(phase, run, expected));
    results.back().stats = server.stats();
  }

  TextTable table({"phase", "load", "clean", "ok", "typed", "injected", "untyped", "shed",
                   "batch", "p50 (ms)", "p99 (ms)", "window (ms)", "late max (ms)"});
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& r = results[p];
    table.add_row({phases[p].name, fmt_fixed(1.0 / phases[p].interval, 2) + "x",
                   std::to_string(r.clean), std::to_string(r.completed), std::to_string(r.typed),
                   std::to_string(r.injected), std::to_string(r.untyped),
                   std::to_string(r.stats.shed), fmt_fixed(r.stats.mean_batch_size(), 2),
                   fmt_fixed(r.p50_ms(), 2), fmt_fixed(r.p99_ms(), 2),
                   fmt_fixed(r.window_s * 1e3, 1), fmt_fixed(r.max_late_s * 1e3, 2)});
  }
  std::printf("%s", table.render().c_str());

  bool ok = true;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& r = results[p];
    if (r.untyped != 0) {
      std::printf("FAIL: %s: %zu untyped errors escaped to clients\n", phases[p].name, r.untyped);
      ok = false;
    }
    if (!r.equivalence.holds(kConfTolerance)) {
      std::printf("FAIL: %s: %zu served results differ from the cache-off reference "
                  "(max |Δconfidence| %.2e)\n",
                  phases[p].name, r.equivalence.mismatches, r.equivalence.max_conf_delta);
      ok = false;
    }
  }

  // ---- capacity: server vs a simulated FIFO sequential worker --------------
  // Arrivals on the same schedule, one worker serving in order with the
  // measured service times: exactly what "no batching, one suggest per
  // request" costs, deterministic given the measurements.
  const PhaseResult& cap = results[kCapacity];
  const double cap_interval_s = phases[kCapacity].interval * mean_service;
  std::vector<double> seq_latency_s;
  double worker_free_at = 0.0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    const double arrival = static_cast<double>(i) * cap_interval_s;
    worker_free_at = std::max(worker_free_at, arrival) + service_s[i % sources.size()];
    seq_latency_s.push_back(worker_free_at - arrival);
  }
  const double seq_rps = static_cast<double>(num_requests) / worker_free_at;
  const double server_rps = static_cast<double>(cap.completed) / cap.window_s;
  const double ratio = server_rps / seq_rps;
  std::printf("capacity: server %.1f req/s vs sequential %.1f req/s (p50 %.2f / p99 %.2f ms)"
              " = %.2fx (floor %.2fx)\n",
              server_rps, seq_rps, bench::percentile(seq_latency_s, 0.50) * 1e3,
              bench::percentile(seq_latency_s, 0.99) * 1e3, ratio, serve_floor);
  std::printf("capacity: serving cache %.1f%% hit rate | race verifier: %llu verified / "
              "%llu repaired / %llu vetoed / %llu unknown\n",
              cap.stats.cache_hit_rate() * 100.0,
              static_cast<unsigned long long>(cap.stats.verdict_verified),
              static_cast<unsigned long long>(cap.stats.verdict_repaired),
              static_cast<unsigned long long>(cap.stats.verdict_vetoed),
              static_cast<unsigned long long>(cap.stats.verdict_unknown));
  if (ratio < serve_floor) {
    std::printf("FAIL: server throughput %.2fx below the %.2fx floor\n", ratio, serve_floor);
    ok = false;
  }

  // ---- poison: isolation from a 10% hostile stream -------------------------
  const PhaseResult& adv = results[kPoison];
  const double baseline_p99_ms = results[kBaseline].p99_ms();
  const double p99_budget_ms = baseline_p99_ms * kP99Factor + kP99SlackMs;
  std::printf("poison: %zu of %zu rejected typed, %zu accepted | governor rejections %llu",
              adv.poison_typed, adv.poison, adv.poison_accepted,
              static_cast<unsigned long long>(adv.stats.resource_exhausted));
  for (int i = 0; i < kNumResourceLimits; ++i) {
    const auto count = adv.stats.resource_exhausted_by_limit[static_cast<std::size_t>(i)];
    if (count != 0) {
      std::printf(" | %s %llu", resource_limit_name(static_cast<ResourceLimit>(i)),
                  static_cast<unsigned long long>(count));
    }
  }
  std::printf("\npoison: clean availability %.4f (floor %.4f) | clean p99 %.2f ms (budget %.2f ms"
              " = baseline %.2f ms x %.1f + %.0f ms)\n",
              adv.clean_availability(), kCleanAvailabilityFloor, adv.p99_ms(), p99_budget_ms,
              baseline_p99_ms, kP99Factor, kP99SlackMs);
  if (adv.poison_accepted != 0) {
    std::printf("FAIL: %zu poison requests were accepted\n", adv.poison_accepted);
    ok = false;
  }
  if (adv.poison_typed != adv.poison) {
    std::printf("FAIL: only %zu of %zu poison requests failed typed\n", adv.poison_typed,
                adv.poison);
    ok = false;
  }
  if (adv.clean_availability() < kCleanAvailabilityFloor) {
    std::printf("FAIL: clean availability %.4f below the %.4f floor\n", adv.clean_availability(),
                kCleanAvailabilityFloor);
    ok = false;
  }
  if (!std::isfinite(p99_budget_ms)) {
    std::printf("FAIL: baseline p99 is inf (failed baseline requests), so the poison phase's"
                " p99 has no budget\n");
    ok = false;
  } else if (adv.p99_ms() > p99_budget_ms) {
    std::printf("FAIL: clean p99 %.2f ms exceeds the %.2f ms budget\n", adv.p99_ms(),
                p99_budget_ms);
    ok = false;
  }

  // ---- chaos: availability under the fault schedule ------------------------
  const PhaseResult& chaos = results[kChaos];
  const double availability = chaos.clean_availability();
  for (const auto& site : site_counters) {
    std::printf("chaos: site %-18s hits %8llu  injected %6llu\n", site.site.c_str(),
                static_cast<unsigned long long>(site.hits),
                static_cast<unsigned long long>(site.injected));
  }
  std::printf("chaos: retries %llu / recovered %llu | expired %llu | scheduler faults %llu\n",
              static_cast<unsigned long long>(chaos.stats.retries),
              static_cast<unsigned long long>(chaos.stats.retry_recovered),
              static_cast<unsigned long long>(chaos.stats.expired),
              static_cast<unsigned long long>(chaos.stats.scheduler_faults));
  std::printf("chaos: availability %.4f (floor %.4f)\n", availability, chaos_floor);
  if (availability < chaos_floor) {
    std::printf("FAIL: availability %.4f below the %.4f floor\n", availability, chaos_floor);
    ok = false;
  }

  bench::JsonMetrics json;
  bench::set_common_header(json, "serve", schedule);
  json.set("requests_per_phase", static_cast<std::int64_t>(num_requests));
  json.set("distinct_sources", static_cast<std::int64_t>(sources.size()));
  json.set("mean_service_ms", mean_service * 1e3);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& r = results[p];
    const std::string k = std::string(phases[p].name) + "_";
    json.set(k + "load", 1.0 / phases[p].interval);
    json.set(k + "clean", static_cast<std::int64_t>(r.clean));
    json.set(k + "completed", static_cast<std::int64_t>(r.completed));
    json.set(k + "typed_errors", static_cast<std::int64_t>(r.typed));
    json.set(k + "injected_faults_surfaced", static_cast<std::int64_t>(r.injected));
    json.set(k + "untyped_errors", static_cast<std::int64_t>(r.untyped));
    json.set(k + "shed", static_cast<std::int64_t>(r.stats.shed));
    json.set(k + "mean_batch_size", r.stats.mean_batch_size());
    json.set(k + "p50_ms", r.p50_ms());
    json.set(k + "p99_ms", r.p99_ms());
    json.set(k + "window_ms", r.window_s * 1e3);
    json.set(k + "gen_late_max_ms", r.max_late_s * 1e3);
    json.set(k + "mismatches", static_cast<std::int64_t>(r.equivalence.mismatches));
    json.set(k + "max_conf_delta", r.equivalence.max_conf_delta);
  }
  json.set("capacity_sequential_rps", seq_rps);
  json.set("capacity_server_rps", server_rps);
  json.set("capacity_sequential_p50_ms", bench::percentile(seq_latency_s, 0.50) * 1e3);
  json.set("capacity_throughput_ratio", ratio);
  json.set("capacity_floor", serve_floor);
  json.set("capacity_cache_hit_rate", cap.stats.cache_hit_rate());
  json.set("capacity_verdict_verified", static_cast<std::int64_t>(cap.stats.verdict_verified));
  json.set("capacity_verdict_repaired", static_cast<std::int64_t>(cap.stats.verdict_repaired));
  json.set("capacity_verdict_vetoed", static_cast<std::int64_t>(cap.stats.verdict_vetoed));
  json.set("capacity_verdict_unknown", static_cast<std::int64_t>(cap.stats.verdict_unknown));
  json.set("poison_total", static_cast<std::int64_t>(adv.poison));
  json.set("poison_typed", static_cast<std::int64_t>(adv.poison_typed));
  json.set("poison_accepted", static_cast<std::int64_t>(adv.poison_accepted));
  json.set("poison_clean_availability", adv.clean_availability());
  json.set("poison_availability_floor", kCleanAvailabilityFloor);
  json.set("poison_p99_budget_ms", p99_budget_ms);
  json.set("poison_p99_factor", kP99Factor);
  json.set("poison_p99_slack_ms", kP99SlackMs);
  json.set("poison_resource_exhausted", static_cast<std::int64_t>(adv.stats.resource_exhausted));
  for (int i = 0; i < kNumResourceLimits; ++i) {
    json.set(std::string("poison_resource_exhausted_") +
                 resource_limit_name(static_cast<ResourceLimit>(i)),
             static_cast<std::int64_t>(
                 adv.stats.resource_exhausted_by_limit[static_cast<std::size_t>(i)]));
  }
  json.set("chaos_availability", availability);
  json.set("chaos_availability_floor", chaos_floor);
  json.set("chaos_retries", static_cast<std::int64_t>(chaos.stats.retries));
  json.set("chaos_retry_recovered", static_cast<std::int64_t>(chaos.stats.retry_recovered));
  json.set("chaos_expired", static_cast<std::int64_t>(chaos.stats.expired));
  json.set("chaos_scheduler_faults", static_cast<std::int64_t>(chaos.stats.scheduler_faults));
  json.set("chaos_mode_cache_only_entered",
           static_cast<std::int64_t>(chaos.stats.mode_cache_only_entered));
  json.set("chaos_max_retries", chaos_server.max_retries);
  json.set("chaos_cache_only_at", chaos_server.cache_only_at);
  json.set("pass", ok);
  if (!json.write(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
