#include "core/pipeline.h"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/verifier.h"
#include "dataset/generator.h"
#include "frontend/loop_extractor.h"
#include "support/failpoint.h"
#include "support/log.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace g2p {

namespace {

/// Build the per-source frontend artifact: lex, parse, extract loops, build
/// full aug-ASTs. The measured wall time rides along so cache hits can
/// report how much frontend work they skipped.
std::shared_ptr<const FrontendArtifact> build_artifact(std::string_view c_source,
                                                       const Vocab& vocab) {
  const auto start = std::chrono::steady_clock::now();
  // Failpoint: a parse-stage fault is a per-source error — it rides the
  // same exception_ptr slot a real parse error would, poisoning nothing.
  if (failpoint::triggered("frontend.parse")) {
    throw failpoint::FailpointError("frontend.parse");
  }
  // Resource governor (install a GovernorScope to arm it): the statically
  // checkable dimension first, then cooperative checks between every stage.
  // Lexer/parser/arena charge their own dimensions through the same scope.
  ResourceGovernor* gov = ResourceGovernor::current();
  if (gov != nullptr) gov->charge_source_bytes(c_source.size());
  auto out = std::make_shared<FrontendArtifact>();
  out->parsed = parse_translation_unit(c_source);
  if (gov != nullptr) gov->checkpoint();
  out->loops = extract_loops(*out->parsed.tu);
  if (gov != nullptr) gov->charge_loops(out->loops.size());
  AugAstBuilder builder(vocab);
  out->graphs.reserve(out->loops.size());
  for (const auto& loop : out->loops) {
    out->graphs.push_back(builder.build(*loop.loop, out->parsed.tu));
    if (gov != nullptr) {
      gov->charge_nodes(out->graphs.back().graph.nodes.size());
      gov->checkpoint();
    }
  }
  out->frontend_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return out;
}

/// Turn model outputs for one loop into a rendered suggestion. Every
/// serving entry point (sequential, batched, cached replay) funnels through
/// here, so verification behaves bitwise-identically across them.
LoopSuggestion make_suggestion(const ExtractedLoop& loop, const TranslationUnit* tu,
                               double confidence, const std::array<int, 4>& clause_pred) {
  // The wall-clock dimension reaches into the verifier stage: one
  // cooperative check per rendered loop (also the `governor.check`
  // failpoint site).
  if (ResourceGovernor* gov = ResourceGovernor::current()) gov->checkpoint();
  LoopSuggestion suggestion;
  suggestion.loop_source = loop.source;
  suggestion.line = loop.loop->line;
  if (loop.function) suggestion.function_name = std::string(loop.function->name);
  suggestion.confidence = confidence;
  suggestion.parallel = suggestion.confidence >= 0.5;
  if (suggestion.parallel) {
    // Clause priority mirrors the dataset bucketing: target > simd >
    // reduction > private (do-all).
    if (clause_pred[3] == 1) {
      suggestion.category = PragmaCategory::kTarget;
    } else if (clause_pred[2] == 1) {
      suggestion.category = PragmaCategory::kSimd;
    } else if (clause_pred[1] == 1) {
      suggestion.category = PragmaCategory::kReduction;
    } else {
      suggestion.category = PragmaCategory::kPrivate;
    }
    // Fill clause payloads from the static analysis (the model decides the
    // pattern; the analyzer names the variables).
    const LoopFacts facts = analyze_loop(*loop.loop, tu);
    std::vector<OmpPragma::Reduction> reductions;
    if (suggestion.category == PragmaCategory::kReduction) {
      for (const auto& red : find_reductions(facts)) {
        reductions.push_back(OmpPragma::Reduction{red.op, {red.var}});
      }
    }
    std::vector<std::string> privates;
    for (const auto& var : find_private_scalars(facts)) {
      const auto& info = facts.written_scalars.at(var);
      if (!info.declared_in_body) privates.push_back(var);
    }
    suggestion.suggested_pragma = render_pragma(suggestion.category, privates, reductions);
    // The verifier reuses the facts computed above, so its cost is the
    // clause classification itself — no second analysis pass.
    apply_verifier_result(verify_clauses(facts, suggestion.category, privates, reductions),
                          suggestion);
  } else {
    suggestion.verdict = Verdict::kVerified;  // no pragma, nothing to race
  }
  return suggestion;
}

}  // namespace

Pipeline::Pipeline(Options options, Vocab vocab)
    : options_(std::move(options)), vocab_(std::move(vocab)) {
  options_.model.vocab_size = vocab_.size();
  Rng rng(options_.train.seed);
  model_ = std::make_unique<Graph2ParModel>(options_.model, rng);
  cache_ = std::make_unique<SuggestCache>(options_.cache_bytes);
}

Pipeline::Pipeline(Pipeline&& other) noexcept
    : options_(std::move(other.options_)),
      vocab_(std::move(other.vocab_)),
      model_(std::move(other.model_)),
      pool_(std::move(other.pool_)),
      cache_(std::move(other.cache_)),
      model_stamp_(other.model_stamp_.load(std::memory_order_relaxed)) {}

Pipeline& Pipeline::operator=(Pipeline&& other) noexcept {
  if (this != &other) {
    options_ = std::move(other.options_);
    vocab_ = std::move(other.vocab_);
    model_ = std::move(other.model_);
    pool_ = std::move(other.pool_);
    cache_ = std::move(other.cache_);
    model_stamp_.store(other.model_stamp_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
  return *this;
}

ThreadPool& Pipeline::pool() const {
  if (pool_) return *pool_;
  // Shared default for the bare API, built on first use. Intentionally
  // leaked: a static pool's destructor would join workers during static
  // teardown, racing other globals those threads may still touch.
  static ThreadPool* const shared = new ThreadPool();
  return *shared;
}

void Pipeline::set_thread_pool(std::shared_ptr<ThreadPool> pool) { pool_ = std::move(pool); }

Pipeline Pipeline::train(const Options& options) {
  const Corpus corpus = CorpusGenerator(options.corpus).generate();
  const auto split = corpus.split();
  Vocab vocab = build_corpus_vocab(corpus, split.train);
  Pipeline pipeline(options, std::move(vocab));

  const auto train_examples =
      prepare_examples(corpus, split.train, pipeline.vocab_, AugAstOptions{});
  G2P_LOG_INFO << "Pipeline::train: " << train_examples.size() << " training loops, vocab "
               << pipeline.vocab_.size();
  train_graph_model(*pipeline.model_, train_examples, options.train);
  return pipeline;
}

std::vector<LoopSuggestion> Pipeline::suggest(std::string_view c_source) const {
  SourceResult result = std::move(suggest_batch_results({&c_source, 1}).front());
  if (result.error) std::rethrow_exception(result.error);
  return std::move(result.suggestions);
}

std::optional<std::vector<LoopSuggestion>> Pipeline::try_cached(
    std::string_view c_source) const {
  if (!cache_->enabled()) return std::nullopt;
  const std::uint64_t stamp = model_stamp_.load(std::memory_order_acquire);
  if (auto hit = cache_->get_result(hash_source(c_source), stamp)) return *hit;
  return std::nullopt;
}

std::vector<Pipeline::SourceResult> Pipeline::suggest_batch_results(
    std::span<const std::string_view> sources) const {
  const NoGradGuard no_grad;  // serving: skip tape construction
  std::vector<SourceResult> out(sources.size());
  if (sources.empty()) return out;
  ThreadPool& pool = this->pool();
  const std::uint64_t stamp = model_stamp_.load(std::memory_order_acquire);
  const bool cached = cache_->enabled();

  // Stage 0 (serial, cheap): content-address every source. Duplicate keys
  // collapse onto their first slot before anything else, with or without
  // the cache: one source submitted N times is probed, built, encoded and
  // rendered once, and its outcome is copied to the duplicates at the end.
  // Each owner then probes the cache — a full-result hit completes its slot
  // immediately, a frontend hit pins its artifact. A lone uncached source
  // has nothing to collapse or probe, so it is never hashed.
  const bool dedup = sources.size() > 1;
  std::vector<Hash128> keys(sources.size());
  std::vector<std::size_t> owner(sources.size());
  std::vector<std::shared_ptr<const FrontendArtifact>> artifacts(sources.size());
  std::vector<char> done(sources.size(), 0);  // duplicate or full-result hit
  std::unordered_map<Hash128, std::size_t, Hash128Hasher> first_of;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    owner[i] = i;
    if (dedup || cached) keys[i] = hash_source(sources[i]);
    if (dedup) {
      owner[i] = first_of.emplace(keys[i], i).first->second;
      if (owner[i] != i) {
        out[i].duplicate = true;
        done[i] = 1;
        continue;
      }
    }
    if (!cached) continue;
    if (auto hit = cache_->get_result(keys[i], stamp)) {
      out[i].suggestions = *hit;
      done[i] = 1;
      continue;
    }
    artifacts[i] = cache_->get_frontend(keys[i]);
  }

  // Stage 1 (parallel): per-source frontend for the cache misses — lex,
  // parse, extract loops, build aug-ASTs. Each source is independent; a
  // failure is recorded in that source's slot and the rest of the batch
  // proceeds. Every slot gets its own resource governor — one poison source
  // trips *its* budget and fails *its* slot; batch-mates never share a tally.
  // The governor outlives this stage so stage 3's verifier checkpoints
  // charge the same request (stages never overlap, so the handoff is safe);
  // its wall clock pauses across the handoff so the shared model stage and
  // batch queueing never count against a slot's frontend budget.
  std::vector<std::unique_ptr<ResourceGovernor>> governors(sources.size());
  pool.parallel_for(sources.size(), [&](std::size_t i) {
    if (done[i] || artifacts[i]) return;
    governors[i] = std::make_unique<ResourceGovernor>(options_.budget);
    const GovernorScope governor_scope(governors[i].get());
    try {
      artifacts[i] = build_artifact(sources[i], vocab_);
      if (cached) cache_->put_frontend(keys[i], artifacts[i]);
    } catch (...) {
      out[i].error = std::current_exception();
    }
    governors[i]->clock_pause();
  });

  // Stage 2 (batched): every loop of every healthy, not-yet-complete source
  // joins the encode, cut into tiles of whole graphs at kEncodeTileNodes
  // nodes that the pool's threads, the calling thread among them, claim
  // from one shared counter (disjoint unions pool per graph, so tiling is
  // output-identical).
  std::vector<const HetGraph*> graph_ptrs;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (done[s] || out[s].error) continue;
    for (const auto& g : artifacts[s]->graphs) graph_ptrs.push_back(&g.graph);
  }
  Tensor parallel_probs;
  std::array<std::vector<int>, 4> clause_preds;
  if (!graph_ptrs.empty()) {
    const Tensor pooled = model_->encode_tiled(graph_ptrs, pool);
    parallel_probs = softmax_rows(model_->task_logits(pooled, PredictionTask::kParallel));
    for (int c = 0; c < 4; ++c) {
      clause_preds[static_cast<std::size_t>(c)] =
          argmax_rows(model_->task_logits(pooled, static_cast<PredictionTask>(c + 1)));
    }
  }

  // Stage 3 (parallel): peel rows back apart, one suggestion list per
  // healthy source (loop-free sources render an empty list); the clause
  // analysis behind each rendered pragma is per-source independent, so it
  // runs on the pool too. Fresh results are published to the cache as they
  // complete.
  std::vector<std::size_t> first_row(sources.size());
  std::size_t row = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    first_row[s] = row;
    if (!done[s] && !out[s].error) row += artifacts[s]->loops.size();
  }
  pool.parallel_for(sources.size(), [&](std::size_t s) {
    if (done[s] || out[s].error) return;
    // Re-arm this slot's governor (null for frontend-cache hits — their
    // frontend work was already vetted under a budget) and restart its wall
    // clock: only this slot's own verify work accrues from here.
    const GovernorScope governor_scope(governors[s].get());
    if (governors[s]) governors[s]->clock_resume();
    try {
      std::size_t r = first_row[s];
      const FrontendArtifact& artifact = *artifacts[s];
      out[s].suggestions.reserve(artifact.loops.size());
      for (std::size_t i = 0; i < artifact.loops.size(); ++i, ++r) {
        out[s].suggestions.push_back(make_suggestion(
            artifact.loops[i], artifact.parsed.tu,
            parallel_probs.at({static_cast<int>(r), 1}),
            {clause_preds[0][r], clause_preds[1][r], clause_preds[2][r],
             clause_preds[3][r]}));
      }
      if (cached) {
        cache_->put_result(keys[s], stamp,
                           std::make_shared<std::vector<LoopSuggestion>>(out[s].suggestions),
                           artifact.frontend_ns);
      }
    } catch (...) {
      out[s].suggestions.clear();
      out[s].error = std::current_exception();
    }
  });

  // Copy each owner's outcome to its duplicates: identical bytes get
  // identical suggestions, or fail identically.
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (!out[i].duplicate) continue;
    out[i].suggestions = out[owner[i]].suggestions;
    out[i].error = out[owner[i]].error;
  }
  return out;
}

bool Pipeline::save(const std::string& model_path, const std::string& vocab_path) const {
  // Stage both files and rename only once both are fully written: a failure
  // mid-save must never leave a fresh model next to a stale vocab — two
  // same-sized vocabs load cleanly and silently mis-map tokens to weights.
  const std::string model_tmp = model_path + ".tmp";
  const std::string vocab_tmp = vocab_path + ".tmp";
  if (!model_->save_file(model_tmp)) {
    std::remove(model_tmp.c_str());
    return false;
  }
  bool vocab_ok = false;
  {
    std::ofstream vocab_out(vocab_tmp);
    if (vocab_out) {
      vocab_out << vocab_.serialize();
      vocab_out.flush();
      vocab_ok = vocab_out.good();
    }
  }
  if (!vocab_ok || std::rename(model_tmp.c_str(), model_path.c_str()) != 0) {
    std::remove(model_tmp.c_str());
    std::remove(vocab_tmp.c_str());
    return false;
  }
  if (std::rename(vocab_tmp.c_str(), vocab_path.c_str()) != 0) {
    std::remove(vocab_tmp.c_str());
    return false;
  }
  return true;
}

std::optional<Pipeline> Pipeline::load(const Options& options, const std::string& model_path,
                                       const std::string& vocab_path) {
  std::ifstream vocab_in(vocab_path);
  if (!vocab_in) return std::nullopt;
  std::stringstream buffer;
  buffer << vocab_in.rdbuf();
  try {
    Pipeline pipeline(options, Vocab::deserialize(buffer.str()));
    if (!pipeline.model_->load_file(model_path)) return std::nullopt;
    return pipeline;
  } catch (const std::exception&) {
    return std::nullopt;  // corrupt vocab: fail soft like a missing file
  }
}

bool Pipeline::load_weights(const std::string& model_path) {
  // Invalidate before, stamp after: a result rendered from the old weights
  // that races this swap carries the old stamp either way, so it can never
  // be served once the new generation is visible.
  cache_->invalidate_results();
  const bool ok = model_->load_file(model_path);
  model_stamp_.fetch_add(1, std::memory_order_acq_rel);
  return ok;
}

Pipeline Pipeline::clone() const {
  Pipeline copy(options_, vocab_);
  // The binary checkpoint format round-trips floats exactly, so the clone's
  // forwards are bitwise-identical to this pipeline's.
  std::stringstream weights(std::ios::in | std::ios::out | std::ios::binary);
  model_->save(weights);
  copy.model_->load(weights);
  return copy;
}

}  // namespace g2p
