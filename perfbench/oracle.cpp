#include "oracle.h"

#include <array>
#include <cmath>

#include "core/aug_ast.h"
#include "frontend/loop_extractor.h"
#include "frontend/parser.h"
#include "graph/hetgraph_index.h"
#include "tensor/ops.h"

namespace perfbench {

std::vector<ExpectedResult> compute_reference(const g2p::Pipeline& pipeline,
                                              const std::vector<RenamableSource>& sources) {
  g2p::Pipeline reference = pipeline.clone();
  reference.set_cache_bytes(0);
  std::vector<ExpectedResult> out;
  out.reserve(sources.size());
  for (const auto& source : sources) {
    ExpectedResult expected;
    for (const auto& s : reference.suggest(source.render(reference_suffix()))) {
      expected.push_back({s.parallel, s.category, s.suggested_pragma, s.verdict, s.confidence});
    }
    out.push_back(std::move(expected));
  }
  return out;
}

bool OutputCheck::compare(const std::vector<g2p::LoopSuggestion>& served,
                          const ExpectedResult& expected) {
  ++compared_;
  bool same = served.size() == expected.size();
  for (std::size_t k = 0; same && k < served.size(); ++k) {
    const auto& s = served[k];
    const auto& e = expected[k];
    const double delta = std::fabs(s.confidence - e.confidence);
    max_delta_ = std::max(max_delta_, delta);
    same = s.parallel == e.parallel && s.category == e.category &&
           s.suggested_pragma == e.pragma && s.verdict == e.verdict &&
           delta <= kConfidenceTolerance;
  }
  if (!same) ++mismatches_;
  return same;
}

std::uint64_t check_against_taped_model(const g2p::Pipeline& pipeline,
                                        const std::vector<RenamableSource>& sources,
                                        const std::vector<ExpectedResult>& expected) {
  const g2p::AugAstBuilder builder(pipeline.vocab());
  std::uint64_t disagreements = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string text = sources[i].render(reference_suffix());
    const g2p::ParseResult parsed = g2p::parse_translation_unit(text);
    const auto loops = g2p::extract_loops(*parsed.tu);
    if (loops.size() != expected[i].size()) {
      disagreements += std::max<std::size_t>(1, loops.size());
      continue;
    }
    if (loops.empty()) continue;
    std::vector<g2p::LoopGraph> graphs;
    graphs.reserve(loops.size());
    std::vector<const g2p::HetGraph*> ptrs;
    for (const auto& loop : loops) {
      graphs.push_back(builder.build(*loop.loop, parsed.tu));
      ptrs.push_back(&graphs.back().graph);
    }
    // No NoGradGuard: the encoder takes the taped reference path.
    const g2p::Graph2ParModel& model = pipeline.model();
    const g2p::Tensor pooled = model.encode(g2p::batch_graphs(ptrs));
    const g2p::Tensor probs =
        g2p::softmax_rows(model.task_logits(pooled, g2p::PredictionTask::kParallel));
    std::array<std::vector<int>, 4> clause;
    for (int c = 0; c < 4; ++c) {
      clause[static_cast<std::size_t>(c)] = g2p::argmax_rows(
          model.task_logits(pooled, static_cast<g2p::PredictionTask>(c + 1)));
    }
    for (std::size_t k = 0; k < loops.size(); ++k) {
      const auto& e = expected[i][k];
      const double p = probs.at({static_cast<int>(k), 1});
      bool agree = std::fabs(p - e.confidence) <= kConfidenceTolerance &&
                   (p >= 0.5) == (e.confidence >= 0.5);
      if (agree && e.parallel) {
        agree = clause_category(clause[1][k], clause[2][k], clause[3][k]) == e.category;
      }
      if (!agree) ++disagreements;
    }
  }
  return disagreements;
}

}  // namespace perfbench
