// End-to-end suggestion pipeline: C source in, per-loop OpenMP pragma
// suggestions out (§6.4: Graph2Par assists the developer with suggestions
// rather than rewriting code).
//
// A Pipeline bundles a vocabulary, a trained Graph2Par model, the aug-AST
// builder options, and a content-addressed serving cache (suggest_cache.h):
// repeat sources skip the frontend (and, when the model has not changed,
// the forward pass too).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "analysis/dependence.h"
#include "analysis/verifier.h"
#include "core/graph2par.h"
#include "core/suggest_cache.h"
#include "core/suggestion.h"
#include "dataset/corpus.h"
#include "dataset/generator.h"
#include "eval/trainer.h"
#include "support/resource_governor.h"

namespace g2p {

class ThreadPool;

class Pipeline {
 public:
  struct Options {
    GeneratorConfig corpus;      // training-corpus generation
    Graph2ParConfig model;       // vocab_size is filled in automatically
    TrainConfig train;
    AugAstOptions aug;           // full aug-AST by default
    /// Worker threads for the batched serving path. 0 keeps the process-wide
    /// shared default pool (hardware-sized); nonzero gives this pipeline a
    /// private pool of that size. `set_thread_pool` overrides either.
    unsigned pool_threads = 0;
    /// Serving precision of the fused path: fp32 (default, numerically
    /// identical to earlier builds) or int8 weight-quantized projections
    /// (Kernels::gemm_s8 — faster, suggestions agree with fp32 at the
    /// ≥99% level, see bench/hgt_kernel). The G2P_PRECISION env var
    /// overrides this at runtime; training always runs fp32.
    Precision precision = Precision::kFp32;
    /// Byte budget of the content-addressed serving cache (two LRU tiers:
    /// rendered results + frontend artifacts). 0 disables caching.
    std::size_t cache_bytes = 64u << 20;
    /// Run the static race verifier (analysis/verifier.h) on every
    /// suggestion: provable races are vetoed, missing/wrong clauses are
    /// repaired, unanalyzable loops pass through flagged kUnknown. The
    /// G2P_VERIFY env var overrides this at runtime (docs/analysis.md).
    bool verify_suggestions = true;
    /// Per-request resource caps enforced through lex, parse, loop
    /// extraction, aug-AST build, and verification (the adversarial-input
    /// governor, support/resource_governor.h). The defaults admit any
    /// reasonable translation unit; `ResourceBudget::unlimited()` restores
    /// the ungoverned behaviour. G2P_MAX_* / G2P_GOVERNOR env vars override
    /// individual caps at construction (docs/tuning.md).
    ResourceBudget budget;
    Options() { corpus.scale = 0.03; }
  };

  /// Outcome of one source in a tolerant batch call: either a suggestion
  /// list (possibly empty — a source without loops is not an error) or the
  /// exception that source raised while being parsed/analyzed.
  struct SourceResult {
    std::vector<LoopSuggestion> suggestions;
    std::exception_ptr error;  // null on success
    /// An earlier slot of the same call has the same normalized content:
    /// this slot holds a copy of that slot's outcome, computed once.
    bool duplicate = false;
    bool ok() const { return error == nullptr; }
  };

  /// Generate a corpus, build the vocabulary, train the model. Deterministic
  /// for fixed options.
  static Pipeline train(const Options& options = {});

  /// Analyze a C translation unit and produce one suggestion per loop: a
  /// one-slot `suggest_batch_results` call that rethrows the slot's error.
  /// Consults the serving cache: identical (normalized) sources skip the
  /// frontend, and skip the model forward too when the checkpoint has not
  /// changed since the cached entry was rendered.
  std::vector<LoopSuggestion> suggest(std::string_view c_source) const;

  /// Full-result cache probe without a forward: the rendered suggestions
  /// for this (normalized) source if the cache holds them under the current
  /// model generation, std::nullopt otherwise. Never parses, never runs the
  /// model — this is what the server's cache-hits-only degradation mode
  /// serves from when the forward path is saturated.
  std::optional<std::vector<LoopSuggestion>> try_cached(std::string_view c_source) const;

  /// Batched serving entry point: many translation units in, one suggestion
  /// list per unit out (aligned with `sources`). Per-source frontend work
  /// (parse, loop extraction, aug-AST construction) runs on a worker pool;
  /// all loops across all sources are merged into a single disjoint batch
  /// union for one model forward. Numerically equivalent to calling
  /// `suggest` per source, just faster. Throws on the first source that
  /// fails to parse, like `suggest` does.
  std::vector<std::vector<LoopSuggestion>> suggest_batch(
      std::span<const std::string_view> sources) const;

  /// Error-tolerant batch entry point for servers: a source that fails to
  /// parse or analyze reports its exception in its own slot instead of
  /// poisoning batch-mates; every healthy source still gets suggestions
  /// numerically equivalent to per-source `suggest`. Aligned with `sources`.
  /// Sources with the same normalized content (the cache key) are computed
  /// once, cache on or off: later copies are marked `duplicate` and carry
  /// the first copy's suggestions or error.
  std::vector<SourceResult> suggest_batch_results(
      std::span<const std::string_view> sources) const;

  /// Persist trained weights (vocabulary travels alongside). Returns false —
  /// without writing a partial vocab when the model already failed — if
  /// either file cannot be opened or fully flushed.
  [[nodiscard]] bool save(const std::string& model_path, const std::string& vocab_path) const;
  /// Restore a saved pipeline. Missing, truncated, or corrupt files yield
  /// std::nullopt, never a crash or a half-initialized pipeline.
  static std::optional<Pipeline> load(const Options& options, const std::string& model_path,
                                      const std::string& vocab_path);

  /// Hot checkpoint swap: load new weights into this pipeline (vocabulary
  /// must be unchanged — same training configuration). Bumps the model
  /// stamp, so every cached *result* becomes unservable at once, while
  /// cached frontend artifacts survive and keep skipping lex/parse/build.
  /// Returns false if the file is missing or corrupt; the load is staged
  /// before it commits, so a failure leaves the previous generation's
  /// weights fully intact and serving (the cache invalidation that already
  /// happened is harmless — results re-render from the old weights on
  /// demand). Callers should
  /// quiesce in-flight forwards; concurrent `suggest` calls may race the
  /// weight write itself, exactly like an optimizer step would.
  [[nodiscard]] bool load_weights(const std::string& model_path);

  /// Independent copy: identical options, vocab, and weights (bitwise — the
  /// copy travels through the lossless binary checkpoint format), but a
  /// fresh empty cache, its own model stamp, and its own pool selection.
  /// The copy serves bitwise-identical suggestions (reference oracles use
  /// one with its cache off).
  Pipeline clone() const;

  /// Replace the worker pool used by `suggest_batch*`. Null restores the
  /// behavior selected by Options::pool_threads. A server injects its own
  /// pool here so serving concurrency is owned by the server, not a global.
  void set_thread_pool(std::shared_ptr<ThreadPool> pool);

  /// The precision the fused path actually serves: Options::precision
  /// unless the G2P_PRECISION env override is set (stats / --json surface
  /// this, not the configured value).
  Precision active_precision() const { return resolve_precision(options_.precision); }

  /// Whether serving actually verifies: Options::verify_suggestions unless
  /// the G2P_VERIFY env override pins it (resolve_verify, analysis/verifier.h).
  bool verify_active() const { return resolve_verify(options_.verify_suggestions); }
  /// Runtime toggle (benches/tests compare model-only vs model+verifier on
  /// one trained pipeline). The result-cache key is salted with the
  /// resolved verifier config, so toggling can never serve stale verdicts.
  void set_verify_suggestions(bool on) { options_.verify_suggestions = on; }

  /// Serving-cache counters (hits per tier, bytes, frontend time saved).
  SuggestCache::Stats cache_stats() const { return cache_->stats(); }
  /// Drop every cache entry (tests, memory pressure).
  void clear_cache() const { cache_->clear(); }
  /// Resize the serving cache at runtime (0 disables; evicts to fit).
  void set_cache_bytes(std::size_t bytes) { cache_->set_byte_cap(bytes); }

  const Graph2ParModel& model() const { return *model_; }
  const Vocab& vocab() const { return vocab_; }

  /// The per-request budget serving enforces: Options::budget with env
  /// overrides applied once at construction. SuggestServer admission uses
  /// `max_source_bytes` to reject statically-oversized requests before they
  /// ever occupy a batch slot.
  const ResourceBudget& active_budget() const { return budget_; }

  Pipeline(Pipeline&& other) noexcept;
  Pipeline& operator=(Pipeline&& other) noexcept;

 private:
  Pipeline(Options options, Vocab vocab);

  ThreadPool& pool() const;
  /// The pool as a shareable handle (non-owning for the process-wide
  /// default, which is intentionally leaked) — handed to the model so the
  /// encoder's projection GEMMs fan out over serving workers.
  std::shared_ptr<ThreadPool> shared_pool() const;

  Options options_;
  Vocab vocab_;
  /// Options::budget with G2P_MAX_* / G2P_GOVERNOR overrides resolved.
  ResourceBudget budget_;
  std::unique_ptr<Graph2ParModel> model_;
  std::shared_ptr<ThreadPool> pool_;  // null: shared process-wide default
  /// Content-addressed serving cache; mutable because `suggest` is
  /// logically const (the cache is a memo, not observable state). Held by
  /// pointer: the cache owns a mutex, and Pipeline must stay movable.
  mutable std::unique_ptr<SuggestCache> cache_;
  /// Monotonic checkpoint generation; cached results are stamped with it.
  std::atomic<std::uint64_t> model_stamp_{1};
};

}  // namespace g2p
