// Content-addressed serving cache: hit/miss accounting, byte-cap eviction,
// and invalidation on checkpoint swap (stale suggestions must never survive
// a weight reload).
#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/suggest_cache.h"
#include "support/hash.h"
#include "testing_env.h"

namespace g2p {
namespace {

Pipeline tiny_pipeline(std::size_t cache_bytes = 64u << 20) {
  Pipeline::Options options;
  options.corpus.scale = 0.01;
  options.train.epochs = 1;
  options.cache_bytes = cache_bytes;
  return Pipeline::train(options);
}

std::string source_with_loop(int salt) {
  return "void kernel" + std::to_string(salt) +
         "(float* a, int n) {\n"
         "  for (int i = 0; i < n; i++) a[i] = a[i] * " +
         std::to_string(salt + 2) +
         ".0f;\n"
         "}\n";
}

void expect_equal_suggestions(const std::vector<LoopSuggestion>& a,
                              const std::vector<LoopSuggestion>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].parallel, b[i].parallel);
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].suggested_pragma, b[i].suggested_pragma);
    EXPECT_NEAR(a[i].confidence, b[i].confidence, 1e-9);
  }
}

TEST(SuggestCacheUnit, SourceHashNormalizesLineEndings) {
  EXPECT_EQ(hash_source("int x;\nint y;\n"), hash_source("int x;\r\nint y;\r\n"));
  EXPECT_NE(hash_source("int x;"), hash_source("int y;"));
  EXPECT_EQ(hash128("abc").hex().size(), 32u);
  EXPECT_NE(hash128("abc"), hash128("abd"));
}

TEST(SuggestCacheUnit, DisabledCacheCountsNothing) {
  SuggestCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.get_result(hash_source("x"), 1), nullptr);
  cache.put_result(hash_source("x"), 1,
                   std::make_shared<std::vector<LoopSuggestion>>(), 10);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.full_hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.result_entries, 0u);
}

TEST(SuggestCacheUnit, EvictedArtifactIsDestroyedOutsideTheLock) {
  // Tearing down an evicted artifact (arena, graphs) is the expensive part
  // of an eviction; concurrent callers must not queue behind it. The
  // victim's deleter probes the cache from a second thread and requires
  // that call to finish while the deleter is still running.
  const auto entry_bytes = [] {
    SuggestCache probe(1u << 20);
    probe.put_frontend(hash_source("a"), std::make_shared<const FrontendArtifact>());
    return probe.stats().frontend_bytes;
  }();
  // The frontend tier (7/8 of the cap) holds one artifact but not two.
  SuggestCache cache(entry_bytes * 12 / 7);

  std::future<void> prober;
  bool deleter_ran = false;
  bool stats_returned = false;
  const auto deleter = [&](const FrontendArtifact* artifact) {
    deleter_ran = true;
    prober = std::async(std::launch::async, [&cache] { (void)cache.stats(); });
    stats_returned =
        prober.wait_for(test_env::scaled_ms(500)) == std::future_status::ready;
    delete artifact;
  };
  cache.put_frontend(hash_source("a"),
                     std::shared_ptr<const FrontendArtifact>(new FrontendArtifact, deleter));
  cache.put_frontend(hash_source("b"), std::make_shared<const FrontendArtifact>());
  ASSERT_TRUE(prober.valid());
  prober.get();  // joins the probe thread
  EXPECT_TRUE(deleter_ran);
  EXPECT_TRUE(stats_returned) << "stats() blocked behind an eviction";
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.frontend_entries, 1u);
}

TEST(SuggestCache, HitAndMissCounting) {
  const Pipeline pipeline = tiny_pipeline();
  const std::string a = source_with_loop(1);
  const std::string b = source_with_loop(2);

  const auto first = pipeline.suggest(a);
  auto stats = pipeline.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.full_hits, 0u);

  const auto second = pipeline.suggest(a);  // identical source: full hit
  stats = pipeline.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.full_hits, 1u);
  EXPECT_GT(stats.frontend_saved_ns, 0u);
  expect_equal_suggestions(first, second);

  (void)pipeline.suggest(b);  // different source: second miss
  stats = pipeline.cache_stats();
  EXPECT_EQ(stats.misses, 2u);

  // CRLF re-encoding of a cached source is the same content address.
  std::string a_crlf;
  for (char c : a) {
    if (c == '\n') a_crlf += '\r';
    a_crlf += c;
  }
  const auto third = pipeline.suggest(a_crlf);
  stats = pipeline.cache_stats();
  EXPECT_EQ(stats.full_hits, 2u);
  expect_equal_suggestions(first, third);
}

TEST(SuggestCache, BatchPathSharesTheCache) {
  const Pipeline pipeline = tiny_pipeline();
  const std::string a = source_with_loop(3);
  const std::string b = source_with_loop(4);
  const std::vector<std::string_view> views{a, b, a};

  const auto results = pipeline.suggest_batch_results(views);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_TRUE(r.ok());
  expect_equal_suggestions(results[0].suggestions, results[2].suggestions);

  // Duplicate keys within one batch collapse onto a single frontend build:
  // two distinct cold sources -> exactly two misses.
  EXPECT_EQ(pipeline.cache_stats().misses, 2u);

  // A second batch of the same sources is served from the full tier. The
  // duplicate collapses onto its first slot before the cache probe, so two
  // distinct sources cost exactly two probes.
  const auto stats_before = pipeline.cache_stats();
  const auto again = pipeline.suggest_batch_results(views);
  const auto stats_after = pipeline.cache_stats();
  EXPECT_EQ(stats_after.misses, stats_before.misses);
  EXPECT_EQ(stats_after.full_hits, stats_before.full_hits + 2);
  EXPECT_TRUE(again[2].duplicate);
  expect_equal_suggestions(again[0].suggestions, results[0].suggestions);
  expect_equal_suggestions(again[2].suggestions, results[0].suggestions);

  // Parse errors are not cached and stay per-slot.
  const std::string broken = "void oops( {";
  const std::vector<std::string_view> mixed{a, broken};
  const auto tolerant = pipeline.suggest_batch_results(mixed);
  EXPECT_TRUE(tolerant[0].ok());
  EXPECT_FALSE(tolerant[1].ok());
}

TEST(SuggestCache, ByteCapEvictsLeastRecentlyUsed) {
  Pipeline pipeline = tiny_pipeline();
  // A cap this small holds only a handful of frontend artifacts (each is a
  // parsed TU + graphs, tens of KB).
  pipeline.set_cache_bytes(96 * 1024);
  for (int salt = 0; salt < 24; ++salt) (void)pipeline.suggest(source_with_loop(salt));
  const auto stats = pipeline.cache_stats();
  EXPECT_EQ(stats.misses, 24u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.frontend_bytes + stats.result_bytes, 96u * 1024u);
  EXPECT_LT(stats.frontend_entries, 24u);

  // Growing the cap back re-admits new entries without losing correctness.
  pipeline.set_cache_bytes(64u << 20);
  const auto before = pipeline.suggest(source_with_loop(0));
  const auto after = pipeline.suggest(source_with_loop(0));
  expect_equal_suggestions(before, after);
}

TEST(SuggestCache, CacheDisabledPipelineStillServes) {
  const Pipeline cached = tiny_pipeline();
  const Pipeline uncached = tiny_pipeline(/*cache_bytes=*/0);
  const std::string src = source_with_loop(7);
  expect_equal_suggestions(cached.suggest(src), uncached.suggest(src));
  const auto stats = uncached.cache_stats();
  EXPECT_EQ(stats.full_hits + stats.frontend_hits + stats.misses, 0u);
}

TEST(SuggestCache, WeightReloadInvalidatesResultsButKeepsFrontendTier) {
  Pipeline pipeline = tiny_pipeline();
  const std::string src = source_with_loop(9);
  const std::string model_path = "/tmp/g2p_cache_test_model.bin";
  const std::string vocab_path = "/tmp/g2p_cache_test_vocab.txt";
  ASSERT_TRUE(pipeline.save(model_path, vocab_path));

  const auto before = pipeline.suggest(src);
  auto stats = pipeline.cache_stats();
  EXPECT_EQ(stats.result_entries, 1u);
  EXPECT_EQ(stats.frontend_entries, 1u);

  // Checkpoint swap: every rendered result is dropped at once; the
  // model-independent frontend artifact survives.
  ASSERT_TRUE(pipeline.load_weights(model_path));
  stats = pipeline.cache_stats();
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.frontend_entries, 1u);

  // First request after the swap re-runs the model on the cached frontend
  // artifact (frontend hit, not full hit) — a stale suggestion cannot be
  // served even though the key is unchanged.
  const auto after = pipeline.suggest(src);
  stats = pipeline.cache_stats();
  EXPECT_EQ(stats.frontend_hits, 1u);
  // Same weights were reloaded, so the recomputed answer must agree.
  expect_equal_suggestions(before, after);

  // And the full tier is repopulated under the new stamp.
  (void)pipeline.suggest(src);
  stats = pipeline.cache_stats();
  EXPECT_EQ(stats.full_hits, 1u);

  // A failed reload still invalidates (fail-safe: stale results are worse
  // than a cold cache).
  (void)pipeline.suggest(src);
  EXPECT_FALSE(pipeline.load_weights("/tmp/g2p_cache_test_missing.bin"));
  stats = pipeline.cache_stats();
  EXPECT_EQ(stats.result_entries, 0u);

  std::remove(model_path.c_str());
  std::remove(vocab_path.c_str());
}

}  // namespace
}  // namespace g2p
