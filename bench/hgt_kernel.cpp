// Microbench: fused HGT inference kernel vs the taped reference forward.
//
// Builds serving-shaped batches — real aug-AST graphs from generated C
// files, merged into disjoint unions of the size the batched serving path
// feeds the encoder — and times a full HgtEncoder forward (the paper's
// serving config: dim 32, heads 4, 2 layers) through both paths on one
// thread:
//   * reference: the taped per-head implementation under NoGradGuard
//     (HgtEncoder::forward_reference, the pre-fusion serving path), and
//   * fused: the per-edge-type weight cache + per-destination CSR walk
//     (HgtEncoder::forward, which routes to HgtLayer::forward_fused under
//     NoGradGuard) on the dispatched SIMD backend.
// Reports µs per forward and ns per edge, and fails (exit 1) if
//   * fused and reference outputs diverge beyond 1e-5 relative, or
//   * the fused speedup misses the floor (default 1.5x, G2P_HGT_FLOOR
//     overrides — shared CI runners pin a lenient value).
//
// Knobs: G2P_SCALE / G2P_SEED as in bench_common.h, G2P_HGT_REPS (timed
// repetitions, default 30; CI smoke runs use a handful), G2P_HGT_FLOOR,
// G2P_BACKEND (kernel dispatch), --json <path> for machine-readable output.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "support/table.h"
#include "tensor/backend.h"

namespace {

using g2p::bench::Clock;
using g2p::bench::seconds_since;

double max_rel_diff(const g2p::Tensor& a, const g2p::Tensor& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double av = a.data()[i], bv = b.data()[i];
    const double scale = std::max({1.0, std::fabs(av), std::fabs(bv)});
    worst = std::max(worst, std::fabs(av - bv) / scale);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g2p;
  const auto env = bench::BenchEnv::from_env();
  const std::string json_path = bench::json_path_from_args(argc, argv);

  int reps = 30;
  if (const char* s = std::getenv("G2P_HGT_REPS")) reps = std::max(1, std::atoi(s));
  double floor = 1.5;
  if (const char* s = std::getenv("G2P_HGT_FLOOR")) floor = std::atof(s);

  // Serving-shaped inputs: real aug-AST graphs (full edge set) from the
  // corpus generator, batched like suggest_batch_results batches them.
  GeneratorConfig gen = env.generator_config();
  gen.scale = std::max(env.scale, 0.02);
  const Corpus corpus = CorpusGenerator(gen).generate();
  std::vector<int> all_indices(static_cast<std::size_t>(corpus.size()));
  for (std::size_t i = 0; i < all_indices.size(); ++i) all_indices[i] = static_cast<int>(i);
  const Vocab vocab = build_corpus_vocab(corpus, all_indices);
  const AugAstOptions aug;  // full augmented AST
  const auto examples = prepare_examples(corpus, all_indices, vocab, aug);
  if (examples.size() < 32) {
    std::printf("FAIL: only %zu example graphs (need 32); raise G2P_SCALE\n", examples.size());
    return 1;
  }

  // Batch sizes around what the serving path encodes: a ~650-node union
  // (~32 loops, about two encode tiles) and a full 128-loop server batch.
  const Graph2ParConfig cfg;  // dim 32, heads 4, 2 layers
  Rng rng(env.seed);
  HgtEncoder encoder(cfg.dim, cfg.heads, cfg.layers, rng);

  struct Case {
    const char* name;
    int loops;
  };
  const Case cases[] = {{"batch32", 32}, {"batch128", 128}};

  bench::JsonMetrics json;
  bench::set_common_header(json, "hgt_kernel");
  json.set("dim", cfg.dim);
  json.set("heads", cfg.heads);
  json.set("layers", cfg.layers);
  json.set("reps", reps);

  TextTable table({"batch", "nodes", "edges", "reference (µs)", "fused (µs)", "speedup",
                   "max rel diff"});
  bool ok = true;
  double headline_speedup = 0.0;
  for (const auto& c : cases) {
    std::vector<const HetGraph*> graph_ptrs;
    for (int i = 0; i < c.loops; ++i) {
      graph_ptrs.push_back(&examples[static_cast<std::size_t>(i) % examples.size()].graph.graph);
    }
    const BatchedGraph batch = batch_graphs(graph_ptrs);
    const Tensor x = Tensor::randn({batch.index.num_nodes, cfg.dim}, rng, 0.5f);

    const NoGradGuard no_grad;
    const auto time_best = [&](auto&& forward) {
      forward();  // warmup (weight caches, allocator pools)
      double best = 1e100;
      for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        forward();
        best = std::min(best, seconds_since(start));
      }
      return best;
    };

    // The fused path is what HgtEncoder::forward routes to under
    // NoGradGuard; the reference arm calls the taped layers directly.
    Tensor ref_out, fused_out;
    const double ref_s =
        time_best([&] { ref_out = encoder.forward_reference(x, batch.index); });
    const double fused_s = time_best([&] { fused_out = encoder.forward(x, batch.index); });

    const double diff = max_rel_diff(ref_out, fused_out);
    const double speedup = ref_s / fused_s;
    table.add_row({c.name, std::to_string(batch.index.num_nodes),
                   std::to_string(batch.index.num_edges), fmt_fixed(ref_s * 1e6, 1),
                   fmt_fixed(fused_s * 1e6, 1), fmt_fixed(speedup, 2),
                   fmt_fixed(diff * 1e6, 3) + "e-6"});
    json.set(std::string(c.name) + "_nodes", batch.index.num_nodes);
    json.set(std::string(c.name) + "_edges", batch.index.num_edges);
    json.set(std::string(c.name) + "_reference_us", ref_s * 1e6);
    json.set(std::string(c.name) + "_fused_us", fused_s * 1e6);
    json.set(std::string(c.name) + "_fused_ns_per_edge",
             fused_s * 1e9 / std::max(1, batch.index.num_edges));
    json.set(std::string(c.name) + "_speedup", speedup);
    json.set(std::string(c.name) + "_max_rel_diff", diff);

    if (diff > 1e-5) {
      std::printf("FAIL: %s fused output diverges from reference (%.3g rel)\n", c.name, diff);
      ok = false;
    }
    if (c.loops == 128) headline_speedup = speedup;
  }
  std::printf("%s", table.render().c_str());
  std::printf("backend: %s | fused speedup (batch128): %.2fx (floor %.2fx)\n",
              backend::active_name(), headline_speedup, floor);
  json.set("speedup", headline_speedup);
  json.set("floor", floor);

  if (headline_speedup < floor) {
    std::printf("FAIL: fused speedup %.2fx below the %.2fx floor\n", headline_speedup, floor);
    ok = false;
  }

  json.set("pass", ok);
  if (!json.write(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
