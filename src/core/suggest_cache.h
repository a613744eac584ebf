// Content-addressed serving cache for the suggestion pipeline.
//
// Serving traffic is highly repetitive (interactive advisement re-submits
// the same translation unit after every keystroke-save), so identical
// sources should never pay the frontend twice. The cache is keyed by a
// 128-bit hash of the normalized source (hash_source folds each "\r\n" pair
// to "\n"; a lone '\r' still changes the key) and has two tiers:
//
//   * full-result tier — the rendered LoopSuggestion list. A hit skips
//     everything: frontend, model forward, clause analysis. Entries carry
//     the pipeline's model-version stamp; a checkpoint swap bumps the stamp,
//     so stale suggestions can never be served (lazy invalidation). The
//     pipeline salts this tier's key with the verifier config
//     (pipeline.cpp result_cache_key), so toggling set_verify_suggestions
//     can never replay a verdict rendered under the other configuration.
//   * frontend tier — the built frontend artifact (parse result, extracted
//     loops, aug-AST graphs). A hit skips lex/parse/extract/build but still
//     runs the model forward — exactly what is needed right after a
//     checkpoint reload, when results are stale but sources have not
//     changed. Artifacts are model-independent and survive reloads.
//
// Both tiers are LRU with independent byte caps (repeat-heavy serving wants
// recency). All operations are thread-safe; values are shared_ptr-to-const
// so readers can keep using an artifact after it is evicted. Evicted and
// dropped entries are unlinked under the mutex but destroyed after it is
// released: tearing down a parsed unit's arena and graphs costs far more
// than the bookkeeping, and concurrent callers must not queue behind it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/aug_ast.h"
#include "core/suggestion.h"
#include "frontend/loop_extractor.h"
#include "frontend/parser.h"
#include "support/hash.h"

namespace g2p {

/// Everything `suggest` needs downstream of parsing, for one translation
/// unit. Loops point into `parsed.tu`; the arena inside `parsed` owns every
/// node, so the artifact is self-contained and immutable once built.
struct FrontendArtifact {
  ParseResult parsed;
  std::vector<ExtractedLoop> loops;
  std::vector<LoopGraph> graphs;
  std::uint64_t frontend_ns = 0;  // measured build cost (drives saved-time stats)

  /// Approximate resident footprint, for the byte cap.
  std::size_t approx_bytes() const;
};

class SuggestCache {
 public:
  struct Stats {
    std::uint64_t full_hits = 0;
    std::uint64_t frontend_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t result_entries = 0;
    std::uint64_t frontend_entries = 0;
    std::uint64_t result_bytes = 0;
    std::uint64_t frontend_bytes = 0;
    /// Frontend time not spent, summed over hits in either tier (each hit
    /// credits the build cost measured when that source was first seen).
    std::uint64_t frontend_saved_ns = 0;

    double hit_rate() const {
      const std::uint64_t total = full_hits + frontend_hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(full_hits + frontend_hits) /
                              static_cast<double>(total);
    }
  };

  /// `byte_cap` covers both tiers: 1/8 for rendered results (they are
  /// small), the rest for frontend artifacts. 0 disables caching entirely.
  explicit SuggestCache(std::size_t byte_cap = 0) { set_byte_cap(byte_cap); }

  void set_byte_cap(std::size_t byte_cap);
  bool enabled() const { return byte_cap_ > 0; }

  /// Full-result lookup; null on miss or model-stamp mismatch (stale
  /// entries are dropped on sight).
  std::shared_ptr<const std::vector<LoopSuggestion>> get_result(const Hash128& key,
                                                                std::uint64_t model_stamp);
  void put_result(const Hash128& key, std::uint64_t model_stamp,
                  std::shared_ptr<const std::vector<LoopSuggestion>> value,
                  std::uint64_t frontend_ns);

  std::shared_ptr<const FrontendArtifact> get_frontend(const Hash128& key);
  void put_frontend(const Hash128& key, std::shared_ptr<const FrontendArtifact> value);

  /// Checkpoint swap: drop every rendered result, keep frontend artifacts
  /// (they are model-independent). The stamp check already guarantees
  /// correctness; this just frees the bytes eagerly.
  void invalidate_results();

  void clear();
  Stats stats() const;

 private:
  struct ResultEntry {
    Hash128 key;
    std::uint64_t model_stamp = 0;
    std::shared_ptr<const std::vector<LoopSuggestion>> value;
    std::uint64_t frontend_ns = 0;
    std::size_t bytes = 0;
  };
  struct FrontendEntry {
    Hash128 key;
    std::shared_ptr<const FrontendArtifact> value;
    std::size_t bytes = 0;
  };

  template <typename Entry>
  struct Tier {
    using Index =
        std::unordered_map<Hash128, typename std::list<Entry>::iterator, Hash128Hasher>;
    std::list<Entry> lru;  // front = most recent
    Index index;
    std::size_t bytes = 0;
    std::size_t cap = 0;
  };

  // Both helpers move the unlinked entries into `victims`, which the caller
  // declares before taking the lock so they are destroyed after it.
  template <typename Entry>
  void evict_to_cap(Tier<Entry>& tier, std::list<Entry>& victims);
  template <typename Entry>
  void remove(Tier<Entry>& tier, typename Tier<Entry>::Index::iterator it,
              std::list<Entry>& victims);

  mutable std::mutex mutex_;
  std::size_t byte_cap_ = 0;
  Tier<ResultEntry> results_;
  Tier<FrontendEntry> frontend_;
  Stats stats_;
};

}  // namespace g2p
