#include "trace.h"

#include <array>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>

#include "analysis/dependence.h"
#include "analysis/verifier.h"
#include "core/aug_ast.h"
#include "frontend/loop_extractor.h"
#include "frontend/parser.h"
#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

/// Bound on replayed calls, so a cheap warm replay keeps its span log small.
constexpr std::uint64_t kMaxReplayCalls = 20000;

/// Sums over the replay that are not span times.
struct ReplayCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::uint64_t loops = 0;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  double kqv_flops = 0.0;
};

/// Clause analysis and verification of one loop the model called parallel,
/// as the pipeline renders it (pipeline.cpp, make_suggestion).
void analyze_and_verify(const g2p::Stmt& loop, const g2p::TranslationUnit* tu,
                        g2p::PragmaCategory category) {
  const g2p::LoopFacts facts = g2p::analyze_loop(loop, tu);
  std::vector<g2p::OmpPragma::Reduction> reductions;
  if (category == g2p::PragmaCategory::kReduction) {
    for (const auto& red : g2p::find_reductions(facts)) {
      reductions.push_back(g2p::OmpPragma::Reduction{red.op, {red.var}});
    }
  }
  std::vector<std::string> privates;
  for (const auto& var : g2p::find_private_scalars(facts)) {
    if (!facts.written_scalars.at(var).declared_in_body) privates.push_back(var);
  }
  (void)g2p::verify_clauses(facts, category, privates, reductions);
}

/// Replay one batch stage by stage under `root`; returns the batch union
/// (empty when every source hit the cache or had no loops).
g2p::BatchedGraph replay_stages(g2p::Pipeline& pipeline, const g2p::AugAstBuilder& builder,
                                const std::vector<std::string>& texts, std::uint64_t first,
                                SpanLog& log, std::int32_t root, ReplayCounts& counts) {
  std::vector<g2p::ParseResult> parsed;
  std::vector<g2p::LoopGraph> graphs;
  std::vector<std::pair<const g2p::Stmt*, std::size_t>> loops;  // loop, index into parsed
  parsed.reserve(texts.size());
  for (std::size_t k = 0; k < texts.size(); ++k) {
    const std::uint64_t request = first + k;
    bool hit = false;
    {
      ScopedSpan span(log, "cache.probe", request, root);
      hit = pipeline.try_cached(texts[k]).has_value();
    }
    if (hit) continue;
    {
      ScopedSpan span(log, "frontend.parse", request, root);
      parsed.push_back(g2p::parse_translation_unit(texts[k]));
    }
    counts.bytes += texts[k].size();
    const g2p::TranslationUnit* tu = parsed.back().tu;
    std::vector<g2p::ExtractedLoop> extracted;
    {
      ScopedSpan span(log, "frontend.extract", request, root);
      extracted = g2p::extract_loops(*tu);
    }
    {
      ScopedSpan span(log, "aug_ast.build", request, root);
      for (const auto& loop : extracted) graphs.push_back(builder.build(*loop.loop, tu));
    }
    for (const auto& loop : extracted) loops.emplace_back(loop.loop, parsed.size() - 1);
  }
  counts.loops += loops.size();
  if (graphs.empty()) return {};

  std::vector<const g2p::HetGraph*> ptrs;
  for (const auto& g : graphs) {
    ptrs.push_back(&g.graph);
    counts.nodes += g.graph.nodes.size();
    counts.edges += g.graph.edges.size();
  }
  const g2p::NoGradGuard no_grad;
  const g2p::Graph2ParModel& model = pipeline.model();
  g2p::BatchedGraph batch;
  {
    ScopedSpan span(log, "graph.batch", first, root);
    batch = g2p::batch_graphs(ptrs);
  }
  g2p::Tensor pooled;
  {
    ScopedSpan span(log, "nn.encode", first, root);
    pooled = model.encode(batch);
  }
  g2p::Tensor probs;
  std::array<std::vector<int>, 4> clause;
  {
    ScopedSpan span(log, "nn.heads", first, root);
    probs = g2p::softmax_rows(model.task_logits(pooled, g2p::PredictionTask::kParallel));
    for (int c = 0; c < 4; ++c) {
      clause[static_cast<std::size_t>(c)] = g2p::argmax_rows(
          model.task_logits(pooled, static_cast<g2p::PredictionTask>(c + 1)));
    }
  }
  {
    ScopedSpan span(log, "analysis.verify", first, root);
    for (std::size_t i = 0; i < loops.size(); ++i) {
      if (probs.at({static_cast<int>(i), 1}) < 0.5f) continue;
      analyze_and_verify(*loops[i].first, parsed[loops[i].second].tu,
                         clause_category(clause[1][i], clause[2][i], clause[3][i]));
    }
  }
  return batch;
}

/// The K|Q|V projection GEMM of one HGT layer at this batch's per-type row
/// counts ([n_type, dim] x [dim, 3*dim]), through backend::matmul_auto.
void kqv_gemms(const g2p::BatchedGraph& batch, int dim, std::uint64_t request, SpanLog& log,
               ReplayCounts& counts) {
  std::size_t max_rows = 0;
  for (const auto& rows : batch.index.rows_of_type) max_rows = std::max(max_rows, rows.size());
  const auto d = static_cast<std::size_t>(dim);
  std::vector<float> a(max_rows * d, 0.5f), b(d * 3 * d, 0.25f), out(max_rows * 3 * d);
  ScopedSpan span(log, "tensor.kqv_gemm", request);
  for (const auto& rows : batch.index.rows_of_type) {
    if (rows.empty()) continue;
    const int n = static_cast<int>(rows.size());
    g2p::backend::matmul_auto(a.data(), b.data(), out.data(), n, dim, 3 * dim);
    counts.kqv_flops += 2.0 * n * dim * 3.0 * dim;
  }
}

}  // namespace

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::int32_t SpanLog::open(const char* name, std::uint64_t request, std::int32_t parent) {
  spans_.push_back(Span{name, request, parent, now_ns()});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

std::vector<std::pair<std::string, double>> SpanLog::self_us_by_name() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double self_ns = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child_ns[i];
    by_name[spans_[i].name] += self_ns / 1e3;
  }
  return {by_name.begin(), by_name.end()};
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name\trequest\tparent\tstart_ns\tend_ns\n";
  for (const auto& s : spans_) {
    out << s.name << '\t' << s.request << '\t' << s.parent << '\t' << s.start_ns << '\t'
        << s.end_ns << '\n';
  }
  out.flush();
  return out.good();
}

Metrics traced_layer_metrics(System& system,
                             const WorkloadInputs& inputs, const RunResult& run,
                             double seconds, SpanLog& log, OutputCheck& check) {
  g2p::Pipeline& pipeline = *system.pipeline;
  pipeline.set_thread_pool(std::make_shared<g2p::ThreadPool>(1));
  const auto batch_size =
      static_cast<std::size_t>(std::max<long>(1, std::lround(run.mean_batch)));
  const g2p::AugAstBuilder builder(pipeline.vocab());
  const g2p::Graph2ParConfig& config = pipeline.model().config();
  g2p::Rng rng(inputs.seed());
  const g2p::HgtLayer layer(config.dim, config.heads, rng);

  ReplayCounts counts;
  std::vector<std::string> texts(batch_size);
  std::vector<std::string_view> views(batch_size);
  std::uint64_t request = run.next_request;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  while (counts.calls < kMaxReplayCalls && Clock::now() < deadline) {
    for (std::size_t k = 0; k < batch_size; ++k) {
      texts[k] = inputs.request_text(request + k);
      views[k] = texts[k];
    }
    g2p::BatchedGraph batch;
    {
      ScopedSpan replay(log, "pipeline.replay", request);
      batch = replay_stages(pipeline, builder, texts, request, log, replay.id(), counts);
    }
    std::vector<g2p::Pipeline::SourceResult> results;
    {
      ScopedSpan call(log, "pipeline.call", request);
      results = pipeline.suggest_batch_results(views);
    }
    for (std::size_t k = 0; k < results.size(); ++k) {
      if (results[k].ok()) {
        check.compare(results[k].suggestions, inputs.expected[inputs.base_of(request + k)]);
      } else {
        check.note_missing();
      }
    }
    if (batch.merged.nodes.size() > 0) {
      const g2p::NoGradGuard no_grad;
      const g2p::Tensor x = g2p::Tensor::randn(
          {static_cast<int>(batch.merged.nodes.size()), config.dim}, rng, 0.5f);
      {
        ScopedSpan span(log, "nn.hgt_layer", request);
        (void)layer.forward(x, batch.index);
      }
      kqv_gemms(batch, config.dim, request, log, counts);
    }
    request += batch_size;
    ++counts.calls;
  }

  std::map<std::string, double> self_us;
  for (const auto& [name, us] : log.self_us_by_name()) self_us[name] = us;
  const double calls = static_cast<double>(std::max<std::uint64_t>(counts.calls, 1));
  const auto per_call = [&](const char* span) { return self_us[span] / calls; };
  double stage_us = 0.0;
  for (const char* stage : {"cache.probe", "frontend.parse", "frontend.extract", "aug_ast.build",
                            "graph.batch", "nn.encode", "nn.heads", "analysis.verify"}) {
    stage_us += self_us[stage];
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto& serve = run.serve;
  const auto& cache = run.cache;
  return {
      {"frontend.parse_us", per_call("frontend.parse"), "us"},
      {"frontend.parse_ns_per_byte", ratio(self_us["frontend.parse"] * 1e3, count(counts.bytes)),
       "ns/B"},
      {"frontend.extract_us", per_call("frontend.extract"), "us"},
      {"frontend.bytes", count(counts.bytes) / calls, "B"},
      {"frontend.loops", count(counts.loops) / calls, "count"},
      {"aug_ast.build_us", per_call("aug_ast.build"), "us"},
      {"aug_ast.nodes", count(counts.nodes) / calls, "count"},
      {"aug_ast.edges", count(counts.edges) / calls, "count"},
      {"graph.batch_us", per_call("graph.batch"), "us"},
      {"nn.encode_us", per_call("nn.encode"), "us"},
      {"nn.encode_ns_per_node", ratio(self_us["nn.encode"] * 1e3, count(counts.nodes)), "ns/node"},
      {"nn.hgt_layer_us", per_call("nn.hgt_layer"), "us"},
      {"nn.heads_us", per_call("nn.heads"), "us"},
      {"tensor.kqv_gemm_us", per_call("tensor.kqv_gemm"), "us"},
      {"tensor.kqv_gemm_gflops", ratio(counts.kqv_flops, self_us["tensor.kqv_gemm"] * 1e3),
       "GFLOP/s"},
      {"analysis.verify_us", per_call("analysis.verify"), "us"},
      {"analysis.verified", count(run.verdicts[static_cast<std::size_t>(g2p::Verdict::kVerified)]),
       "count"},
      {"analysis.repaired", count(run.verdicts[static_cast<std::size_t>(g2p::Verdict::kRepaired)]),
       "count"},
      {"analysis.vetoed", count(run.verdicts[static_cast<std::size_t>(g2p::Verdict::kVetoed)]),
       "count"},
      {"analysis.unknown", count(run.verdicts[static_cast<std::size_t>(g2p::Verdict::kUnknown)]),
       "count"},
      {"cache.probe_us", per_call("cache.probe"), "us"},
      {"cache.hit_rate", cache.hit_rate(), "ratio"},
      {"cache.full_hits", count(cache.full_hits), "count"},
      {"cache.frontend_hits", count(cache.frontend_hits), "count"},
      {"cache.misses", count(cache.misses), "count"},
      {"cache.evictions", count(cache.evictions), "count"},
      {"pipeline.call_us", per_call("pipeline.call"), "us"},
      {"pipeline.overhead_us", (self_us["pipeline.call"] - stage_us) / calls, "us"},
      {"pipeline.traced_calls", count(counts.calls), "count"},
      {"serve.batches", count(serve.batches), "count"},
      {"serve.batch_size_mean", serve.mean_batch_size(), "req"},
      {"serve.deduped", count(serve.deduped), "count"},
      {"serve.shed", count(serve.shed), "count"},
      {"serve.expired", count(serve.expired), "count"},
      {"serve.server_latency_mean_us", serve.mean_latency_us(), "us"},
      {"governor.rejected", count(run.governor_rejected), "count"},
  };
}

}  // namespace perfbench
