// Frontend + serving-cache gate for the zero-copy arena frontend (PR 4).
//
// Two measurements, two floors:
//
//  1. Frontend microbench: single-thread lex + parse + loop-extract +
//     aug-AST-build over the deterministic serving-shaped corpus
//     (generator seed 20230509, scale kFrontendScale = 0.05). Reported as
//     us/KB and compared against the frontend as measured on the same
//     corpus before the arena refactor: kBaselineUsPerKb = 120.6 (-O3
//     -march=native on the reference machine; valid only at this corpus
//     shape). Floor: G2P_FRONTEND_FLOOR x (default 2.0) —
//     measured ~2.1-2.8x after the arena + string_view + FunctionRef
//     rewrite.
//  2. Cached end-to-end `suggest` on a 90%-repeat stream (48 distinct
//     sources x 10 rounds): the same stream served with the
//     content-addressed cache off, then on. Floor: G2P_CACHE_FLOOR x
//     (default 5.0) with output equivalence as the hard gate (cached
//     results must match uncached within 1e-6 confidence, exact
//     category/pragma).
//
// The baseline constant is machine-specific; CI pins lenient env floors and
// keeps equivalence as the hard gate (same philosophy as G2P_FLOOR /
// G2P_HGT_FLOOR). `--json <path>` emits the headline metrics;
// BENCH_frontend.json at the repo root is the checked-in reference run.
//
// Knobs: G2P_SCALE / G2P_EPOCHS / G2P_SEED as in bench_common.h, plus
// G2P_FRONTEND_REPS (default 10), G2P_FRONTEND_FLOOR, G2P_CACHE_FLOOR,
// G2P_CACHE_ROUNDS (default 10).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/aug_ast.h"
#include "core/pipeline.h"
#include "dataset/generator.h"
#include "frontend/loop_extractor.h"
#include "frontend/parser.h"
#include "graph/vocab.h"

namespace {

using g2p::bench::Clock;
using g2p::bench::seconds_since;

// The frontend corpus shape and the pre-arena us/KB baseline measured at
// exactly that shape.
constexpr double kFrontendScale = 0.05;
constexpr double kBaselineUsPerKb = 120.6;

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value ? std::atof(value) : fallback;
}

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g2p;
  const auto env = bench::BenchEnv::from_env();
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bool ok = true;

  // ---- 1. frontend microbench ----------------------------------------------
  // Fixed corpus shape so the checked-in baseline constant stays comparable:
  // the PR 3 number was measured on exactly this generator configuration.
  GeneratorConfig frontend_cfg;
  frontend_cfg.seed = env.seed;
  frontend_cfg.scale = kFrontendScale;
  const auto files = CorpusGenerator(frontend_cfg).generate_files();
  std::vector<std::string> sources;
  std::set<std::string_view> seen;
  std::size_t total_bytes = 0;
  for (const auto& f : files) {
    if (seen.insert(f.source).second) {
      sources.push_back(f.source);
      total_bytes += f.source.size();
    }
  }

  // Serving-shaped vocabulary: node text attributes of the whole corpus.
  Vocab vocab;
  for (const auto& src : sources) {
    try {
      const auto parsed = parse_translation_unit(src);
      std::unordered_map<std::string, int> counts;
      collect_text_attributes(*parsed.tu, counts);
      for (const auto& [token, count] : counts) vocab.add(token);
    } catch (const std::exception&) {
    }
  }
  AugAstBuilder builder(vocab, AugAstOptions{});

  std::size_t loops_built = 0;
  const auto frontend_pass = [&] {
    loops_built = 0;
    for (const auto& src : sources) {
      try {
        const auto parsed = parse_translation_unit(src);
        const auto loops = extract_loops(*parsed.tu);
        for (const auto& loop : loops) {
          const auto graph = builder.build(*loop.loop, parsed.tu);
          loops_built += static_cast<std::size_t>(graph.graph.num_nodes() > 0);
        }
      } catch (const std::exception&) {
      }
    }
  };

  frontend_pass();  // warmup
  const int reps = std::max(1, env_int("G2P_FRONTEND_REPS", 10));
  double best_pass_s = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    frontend_pass();
    best_pass_s = std::min(best_pass_s, seconds_since(start));
  }
  const double us_per_kb = best_pass_s * 1e6 / (static_cast<double>(total_bytes) / 1024.0);
  const double us_per_loop = best_pass_s * 1e6 / static_cast<double>(loops_built);
  const double frontend_speedup = kBaselineUsPerKb / us_per_kb;
  const double frontend_floor = env_double("G2P_FRONTEND_FLOOR", 2.0);

  std::printf("frontend: %zu sources, %zu loops, %zu KB | best of %d reps\n", sources.size(),
              loops_built, total_bytes / 1024, reps);
  std::printf("lex+parse+extract+build: %.1f us/KB  %.2f us/loop  (PR 3 baseline %.1f us/KB)\n",
              us_per_kb, us_per_loop, kBaselineUsPerKb);
  std::printf("frontend speedup: %.2fx (floor %.2fx)\n", frontend_speedup, frontend_floor);
  if (frontend_speedup < frontend_floor) {
    std::printf("FAIL: frontend speedup %.2fx below the %.2fx floor\n", frontend_speedup,
                frontend_floor);
    ok = false;
  }

  // ---- 2. cached end-to-end suggest on a 90%-repeat stream -----------------
  std::printf("\n");
  Pipeline pipeline = bench::train_serving_pipeline(env);

  GeneratorConfig fresh = env.generator_config();
  fresh.scale = std::max(env.scale * 2.0, 0.04);
  fresh.seed = env.seed + 1;
  const auto fresh_files = CorpusGenerator(fresh).generate_files();
  std::vector<std::string> distinct;
  std::set<std::string_view> seen_fresh;
  constexpr std::size_t kDistinct = 48;
  for (const auto& f : fresh_files) {
    try {
      (void)parse_translation_unit(f.source);  // stream sources must be healthy
    } catch (const std::exception&) {
      continue;
    }
    if (seen_fresh.insert(f.source).second) distinct.push_back(f.source);
    if (distinct.size() == kDistinct) break;
  }
  if (distinct.size() < kDistinct) {
    std::printf("FAIL: only %zu distinct files generated (need %zu); raise G2P_SCALE\n",
                distinct.size(), kDistinct);
    return 1;
  }
  // Round-robin stream: every source appears once per round, so the first
  // round is all-cold and the remaining rounds are all-repeat — a
  // 90%-repeat stream at 10 rounds.
  const int rounds = std::max(2, env_int("G2P_CACHE_ROUNDS", 10));
  const std::size_t num_requests = kDistinct * static_cast<std::size_t>(rounds);

  const auto serve_stream = [&] {
    std::vector<std::vector<LoopSuggestion>> out;
    out.reserve(num_requests);
    for (std::size_t i = 0; i < num_requests; ++i) {
      out.push_back(pipeline.suggest(distinct[i % kDistinct]));
    }
    return out;
  };

  // Uncached reference (and its timing): a per-request worker without the
  // content-addressed cache. One untimed pass warms the model/tensor pools.
  pipeline.set_cache_bytes(0);
  (void)serve_stream();
  auto start = Clock::now();
  const auto expected = serve_stream();
  const double uncached_s = seconds_since(start);

  // Cached run of the identical stream.
  pipeline.set_cache_bytes(64u << 20);
  pipeline.clear_cache();
  start = Clock::now();
  const auto served = serve_stream();
  const double cached_s = seconds_since(start);
  const auto cache_stats = pipeline.cache_stats();

  bench::Equivalence eq;
  for (std::size_t i = 0; i < num_requests; ++i) eq.compare(served[i], expected[i]);

  const double cache_speedup = uncached_s / cached_s;
  const double cache_floor = env_double("G2P_CACHE_FLOOR", 5.0);
  std::printf("stream: %zu requests over %zu distinct sources (%d rounds, %.0f%% repeat)\n",
              num_requests, kDistinct, rounds,
              100.0 * (1.0 - 1.0 / static_cast<double>(rounds)));
  std::printf("uncached: %.3f s (%.2f ms/req) | cached: %.3f s (%.3f ms/req)\n", uncached_s,
              uncached_s * 1e3 / static_cast<double>(num_requests), cached_s,
              cached_s * 1e3 / static_cast<double>(num_requests));
  std::printf("cache: %.1f%% hit rate (%llu full / %llu frontend / %llu miss), "
              "%.1f ms frontend time saved, %.1f MB resident\n",
              cache_stats.hit_rate() * 100.0,
              static_cast<unsigned long long>(cache_stats.full_hits),
              static_cast<unsigned long long>(cache_stats.frontend_hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<double>(cache_stats.frontend_saved_ns) / 1e6,
              static_cast<double>(cache_stats.result_bytes + cache_stats.frontend_bytes) /
                  (1024.0 * 1024.0));
  std::printf("cached suggest speedup: %.2fx (floor %.2fx)   max |Δconfidence|: %.2e   "
              "mismatches: %zu\n",
              cache_speedup, cache_floor, eq.max_conf_delta, eq.mismatches);
  if (!eq.holds(1e-6)) {
    std::printf("FAIL: cached outputs are not equivalent to uncached outputs\n");
    ok = false;
  }
  if (cache_speedup < cache_floor) {
    std::printf("FAIL: cached speedup %.2fx below the %.2fx floor\n", cache_speedup,
                cache_floor);
    ok = false;
  }

  bench::JsonMetrics json;
  bench::set_common_header(json, "frontend");
  json.set("sources", static_cast<std::int64_t>(sources.size()));
  json.set("loops", static_cast<std::int64_t>(loops_built));
  json.set("frontend_us_per_kb", us_per_kb);
  json.set("frontend_us_per_loop", us_per_loop);
  json.set("frontend_baseline_us_per_kb", kBaselineUsPerKb);
  json.set("frontend_speedup", frontend_speedup);
  json.set("frontend_floor", frontend_floor);
  json.set("stream_requests", static_cast<std::int64_t>(num_requests));
  json.set("stream_distinct", static_cast<std::int64_t>(kDistinct));
  json.set("uncached_s", uncached_s);
  json.set("cached_s", cached_s);
  json.set("cache_speedup", cache_speedup);
  json.set("cache_floor", cache_floor);
  json.set("cache_hit_rate", cache_stats.hit_rate());
  json.set("cache_frontend_saved_ms",
           static_cast<double>(cache_stats.frontend_saved_ns) / 1e6);
  json.set("max_conf_delta", eq.max_conf_delta);
  json.set("mismatches", static_cast<std::int64_t>(eq.mismatches));
  json.set("pass", ok);
  if (!json.write(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
