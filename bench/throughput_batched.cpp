// Serving-throughput baseline for the batched graph engine.
//
// Trains a small pipeline, then serves 128 generated C files (fresh seed, so
// none were seen in training) two ways:
//   * sequential: one Pipeline::suggest call per file, and
//   * batched: Pipeline::suggest_batch_results over chunks of {1, 8, 32,
//     128} files,
// reporting steady-state loops/sec per configuration (warmup + best of three
// repetitions). The run fails (exit 1) if a batched slot reports an error,
// if batched and sequential outputs disagree (category/pragma mismatch, or
// confidence drift above 1e-5) or if the full-batch speedup misses the
// floor: 3x with >= 2 hardware threads
// (the pipeline parallelizes frontend, encode tiles, and assembly);
// 1.25x on a single hardware thread. The single-thread floor was 2x before
// the fused HGT inference kernel (PR 3): batching then mostly amortized
// per-op tape/alloc overhead, which the fused kernel removed from BOTH
// paths — absolute loops/sec rose across the board while the relative
// batching headroom shrank. Future perf PRs regress against this.
//
// Knobs: G2P_SCALE / G2P_EPOCHS / G2P_SEED as in bench_common.h.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace g2p;
  using bench::Clock;
  using bench::seconds_since;
  const auto env = bench::BenchEnv::from_env();
  const std::string json_path = bench::json_path_from_args(argc, argv);

  Pipeline pipeline = bench::train_serving_pipeline(env);
  // This bench gates the batching machinery (parallel frontend, tiled
  // encode, assembly). The content-addressed serving cache would turn every
  // measured repetition into a lookup in BOTH modes, so it is disabled here;
  // bench_frontend gates the cache path with its own floors.
  pipeline.set_cache_bytes(0);

  const std::vector<std::string> sources =
      bench::fresh_sources(env, 128, std::max(env.scale * 3.0, 0.06));
  std::vector<std::string_view> views(sources.begin(), sources.end());

  // Steady-state measurement: each serving mode runs once as warmup (page
  // faults, allocator pools, branch predictors), then the best of three
  // timed repetitions counts — the serving regime both paths would see
  // under sustained traffic.
  constexpr int kReps = 3;
  std::vector<std::vector<LoopSuggestion>> output;
  const auto run_best = [&](const std::function<std::vector<std::vector<LoopSuggestion>>()>&
                                serve) {
    output = serve();  // warmup
    double best = 1e100;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = Clock::now();
      output = serve();
      best = std::min(best, seconds_since(start));
    }
    return best;
  };

  // ---- sequential baseline: one suggest() per file -------------------------
  const double seq_time = run_best([&] {
    std::vector<std::vector<LoopSuggestion>> out;
    out.reserve(views.size());
    for (const auto& src : views) out.push_back(pipeline.suggest(src));
    return out;
  });
  std::vector<std::vector<LoopSuggestion>> sequential = std::move(output);
  std::size_t num_loops = 0;
  for (const auto& s : sequential) num_loops += s.size();

  // ---- batched serving at several chunk sizes ------------------------------
  TextTable table({"batch size", "time (s)", "loops/sec", "speedup"});
  table.add_row({"sequential", fmt_fixed(seq_time, 3),
                 fmt_fixed(static_cast<double>(num_loops) / seq_time, 1), "1.00"});

  double full_batch_time = 0.0;
  std::vector<std::vector<LoopSuggestion>> full_batch_out;
  std::size_t failed_slots = 0;  // every source parses, so any error fails
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                                       std::size_t{128}}) {
    const double elapsed = run_best([&] {
      std::vector<std::vector<LoopSuggestion>> out;
      out.reserve(views.size());
      for (std::size_t begin = 0; begin < views.size(); begin += batch_size) {
        const std::size_t end = std::min(views.size(), begin + batch_size);
        auto chunk = pipeline.suggest_batch_results(
            std::span<const std::string_view>(views.data() + begin, end - begin));
        for (auto& r : chunk) {
          if (!r.ok()) ++failed_slots;
          out.push_back(std::move(r.suggestions));
        }
      }
      return out;
    });
    table.add_row({std::to_string(batch_size), fmt_fixed(elapsed, 3),
                   fmt_fixed(static_cast<double>(num_loops) / elapsed, 1),
                   fmt_fixed(seq_time / elapsed, 2)});
    if (batch_size == 128) {
      full_batch_time = elapsed;
      full_batch_out = std::move(output);
    }
  }
  std::printf("%s", table.render().c_str());

  // ---- equivalence: batched output must match sequential -------------------
  bench::Equivalence eq;
  for (std::size_t s = 0; s < sequential.size(); ++s) eq.compare(full_batch_out[s], sequential[s]);
  const double speedup = seq_time / full_batch_time;
  std::printf("loops served: %zu   max |Δconfidence|: %.2e   mismatches: %zu\n", num_loops,
              eq.max_conf_delta, eq.mismatches);

  // The pipeline's worker pool parallelizes the frontend, the encode
  // tiles, and the suggestion assembly; on a single hardware thread
  // those stages serialize and only the batched forward's remaining per-op
  // amortization applies — post-fused-kernel that is worth ~1.4x here, so
  // the enforced floor is 1.25x (see the header note). G2P_FLOOR overrides
  // the enforced value (shared CI runners are noisy; CI pins a lenient
  // floor so equivalence stays the hard gate there).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  double floor = hw > 1 ? 3.0 : 1.25;
  if (const char* env_floor = std::getenv("G2P_FLOOR")) floor = std::atof(env_floor);
  std::printf("batch-128 speedup over sequential: %.2fx (floor %.2fx on %u hardware thread%s,"
              " target 3x)\n",
              speedup, floor, hw, hw == 1 ? "" : "s");

  bool ok = true;
  if (failed_slots != 0) {
    std::printf("FAIL: %zu batched slots reported an error\n", failed_slots);
    ok = false;
  }
  if (!eq.holds(1e-5)) {
    std::printf("FAIL: batched outputs are not equivalent to sequential outputs\n");
    ok = false;
  }
  if (speedup < floor) {
    std::printf("FAIL: batch-128 speedup %.2fx below the %.2fx floor\n", speedup, floor);
    ok = false;
  }

  bench::JsonMetrics json;
  bench::set_common_header(json, "throughput_batched");
  json.set("loops", static_cast<std::int64_t>(num_loops));
  json.set("sequential_s", seq_time);
  json.set("batch128_s", full_batch_time);
  json.set("loops_per_sec_sequential", static_cast<double>(num_loops) / seq_time);
  json.set("loops_per_sec_batch128", static_cast<double>(num_loops) / full_batch_time);
  json.set("speedup", speedup);
  json.set("floor", floor);
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
