// Tests for the async micro-batching server: equivalence of concurrently
// submitted requests to per-source Pipeline::suggest, per-request error
// isolation inside a batch, backpressure (try_submit refuses and submit
// blocks at the queue bound), deadlines too large for the clock meaning
// none, graceful drain on shutdown, close-on-empty batching, stats
// accounting, running the batched pipeline from the server's own pool
// threads (the nested-parallel_for scenario), and the per-request budget
// set through Pipeline::Options.
//
// Tests that need several requests in one batch park them behind a stalled
// scheduler (test_env::park_scheduler): one blocker batch sleeps on the
// `scheduler.batch` failpoint while the batch-mates queue up behind it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>  // getpid(), for the per-process checkpoint directory

#include "core/pipeline.h"
#include "serve/errors.h"
#include "serve/server.h"
#include "support/thread_pool.h"
#include "testing_env.h"

namespace g2p {
namespace {

using test_env::FailpointGuard;

/// One small trained pipeline shared by every test in this binary (training
/// dominates the suite's runtime; the pipeline is const-thread-safe for
/// suggest and is given to servers via shared_ptr).
std::shared_ptr<Pipeline> shared_pipeline() {
  static const std::shared_ptr<Pipeline> pipeline = [] {
    Pipeline::Options options;
    options.corpus.scale = 0.01;
    options.train.epochs = 1;
    return std::make_shared<Pipeline>(Pipeline::train(options));
  }();
  return pipeline;
}

/// A handful of distinct translation units covering the serving shapes:
/// do-all loops, reductions, loop-carried dependences, and loop-free files.
std::vector<std::string> test_sources() {
  return {
      "void scale(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) x[i] = x[i] * 2.0;\n"
      "}\n",
      "double dot(double* x, double* y, int n) {\n"
      "  int i;\n"
      "  double s = 0;\n"
      "  for (i = 0; i < n; i++) s += x[i] * y[i];\n"
      "  return s;\n"
      "}\n",
      "void shift(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 1; i < n; i++) x[i] = x[i - 1];\n"
      "}\n",
      "int answer(void) { return 42; }\n",
      "void saxpy(float* y, float* x, float a, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) y[i] = a * x[i] + y[i];\n"
      "}\n",
      "void nest(double* a, int n, int m) {\n"
      "  int i; int j;\n"
      "  for (i = 0; i < n; i++)\n"
      "    for (j = 0; j < m; j++)\n"
      "      a[i * m + j] = a[i * m + j] + 1.0;\n"
      "}\n"};
}

void expect_equivalent(const std::vector<LoopSuggestion>& got,
                       const std::vector<LoopSuggestion>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].parallel, want[i].parallel) << what << " loop " << i;
    EXPECT_EQ(got[i].category, want[i].category) << what << " loop " << i;
    EXPECT_EQ(got[i].suggested_pragma, want[i].suggested_pragma) << what << " loop " << i;
    EXPECT_EQ(got[i].line, want[i].line) << what << " loop " << i;
    // Same tolerance as bench/throughput_batched.cpp's equivalence gate.
    EXPECT_NEAR(got[i].confidence, want[i].confidence, 1e-5) << what << " loop " << i;
  }
}

// ---- server equivalence gate ------------------------------------------------

TEST(SuggestServer, ConcurrentSubmittersMatchPerSourceSuggest) {
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();

  // Per-source reference answers from the synchronous API.
  std::vector<std::vector<LoopSuggestion>> expected;
  for (const auto& src : sources) expected.push_back(pipeline->suggest(src));

  SuggestServer::Options options;
  options.max_batch_requests = 16;
  SuggestServer server(pipeline, options);

  // >= 8 concurrent submitters, each firing every source several times in a
  // different order, so batches mix requests from different clients.
  constexpr int kSubmitters = 8;
  constexpr int kRounds = 6;
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::pair<std::size_t, std::future<std::vector<LoopSuggestion>>>>>
      per_thread(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s = 0; s < sources.size(); ++s) {
          const std::size_t idx = (s + static_cast<std::size_t>(t + round)) % sources.size();
          per_thread[static_cast<std::size_t>(t)].emplace_back(
              idx, server.submit(sources[idx]));
        }
      }
    });
  }
  for (auto& t : submitters) t.join();

  for (int t = 0; t < kSubmitters; ++t) {
    for (auto& [idx, future] : per_thread[static_cast<std::size_t>(t)]) {
      expect_equivalent(future.get(), expected[idx],
                        "submitter " + std::to_string(t) + " source " + std::to_string(idx));
    }
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kSubmitters * kRounds) *
                                 sources.size());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.batched_requests, stats.submitted);
  EXPECT_GE(stats.mean_batch_size(), 1.0);
  EXPECT_LE(stats.max_batch, options.max_batch_requests);
}

// ---- per-request error isolation --------------------------------------------

TEST(SuggestServer, ParseErrorCompletesOnlyThatFutureExceptionally) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();
  const auto expected0 = pipeline->suggest(sources[0]);

  SuggestServer::Options options;
  options.max_batch_requests = 8;
  SuggestServer server(pipeline, options);

  auto blocker = test_env::park_scheduler(server, sources[3]);
  auto good1 = server.submit(sources[0]);
  auto bad = server.submit("int broken( {");
  auto good2 = server.submit(sources[0]);
  auto bad2 = server.submit("void also_broken(");

  EXPECT_THROW(bad.get(), std::exception);
  EXPECT_THROW(bad2.get(), std::exception);
  expect_equivalent(good1.get(), expected0, "good batch-mate 1");
  expect_equivalent(good2.get(), expected0, "good batch-mate 2");
  (void)blocker.get();

  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);  // the blocker plus the two good batch-mates
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.batches, 2u);    // the blocker's, then one with all four
  EXPECT_EQ(stats.max_batch, 4u);
}

// ---- close-on-empty batching ------------------------------------------------

TEST(SuggestServer, LoneRequestIsServedWithoutWaiting) {
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();
  pipeline->clear_cache();

  // A count threshold far out of reach: there is no window to wait out, so
  // a lone request is popped and served at once as a batch of 1.
  SuggestServer::Options options;
  options.max_batch_requests = 1000;
  SuggestServer server(pipeline, options);

  const auto start = std::chrono::steady_clock::now();
  auto future = server.submit(sources[0]);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  (void)future.get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Generous bound for sanitizer/CI machines: one cold frontend + forward.
  EXPECT_LT(elapsed, test_env::scaled_ms(500)) << "lone request waited for company";
  EXPECT_EQ(server.stats().batches, 1u);
}

TEST(SuggestServer, BatchIsCappedAtMaxBatchLoops) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();

  // Six requests parked behind the blocker are popped as 4 + 2.
  SuggestServer::Options options;
  options.max_batch_requests = 4;
  SuggestServer server(pipeline, options);
  auto blocker = test_env::park_scheduler(server, sources[0]);
  std::vector<std::future<std::vector<LoopSuggestion>>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.submit(sources[1]));
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    (void)f.get();
  }
  (void)blocker.get();
  const auto stats = server.stats();
  EXPECT_EQ(stats.batches, 3u);  // the blocker's, then 4, then 2
  EXPECT_EQ(stats.max_batch, 4u);
}

// ---- cache-aware scheduling (in-flight dedup) -------------------------------

TEST(SuggestServer, IdenticalInFlightSourcesAreDedupedOnceComputed) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();
  const auto expected = pipeline->suggest(sources[0]);
  const auto expected1 = pipeline->suggest(sources[1]);

  // The whole burst parks behind the blocker and is popped as one batch, so
  // the scheduler sees every duplicate at once.
  SuggestServer::Options options;
  options.max_batch_requests = 16;
  SuggestServer server(pipeline, options);

  auto blocker = test_env::park_scheduler(server, sources[2]);
  std::vector<std::future<std::vector<LoopSuggestion>>> hot;
  for (int i = 0; i < 6; ++i) hot.push_back(server.submit(sources[0]));
  // CRLF-encoded copy of the same source: the normalized hash collapses it
  // onto the same slot as its LF siblings.
  std::string crlf = sources[0];
  for (std::size_t p = 0; (p = crlf.find('\n', p)) != std::string::npos; p += 2) {
    crlf.replace(p, 1, "\r\n");
  }
  hot.push_back(server.submit(crlf));
  auto other = server.submit(sources[1]);
  for (auto& f : hot) expect_equivalent(f.get(), expected, "deduped duplicate");
  expect_equivalent(other.get(), expected1, "non-duplicate batch-mate");
  (void)blocker.get();

  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 9u);  // the blocker plus the 8-request batch
  EXPECT_EQ(stats.max_batch, 8u);
  // 7 copies of source 0 in one batch → 6 collapsed.
  EXPECT_EQ(stats.deduped, 6u);
}

// ---- backpressure -----------------------------------------------------------

TEST(SuggestServer, TrySubmitShedsLoadWhenQueueIsFull) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();

  // A stalled scheduler parks requests in the queue, so the bound is
  // observable without timing games.
  SuggestServer::Options options;
  options.max_batch_requests = 1000;
  options.max_queue_depth = 2;
  // This test is about the hard queue bound, so the cache-only mode must
  // not fire first (it triggers at a fraction of this tiny bound).
  options.cache_only_at = 1.5;
  SuggestServer server(pipeline, options);

  auto blocker = test_env::park_scheduler(server, sources[3]);
  auto a = server.try_submit(sources[0]);
  auto b = server.try_submit(sources[1]);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Depth 2 reached: the third submit is refused...
  EXPECT_FALSE(server.try_submit(sources[2]).has_value());
  EXPECT_EQ(server.stats().queue_depth, 2u);

  // ...and shutdown still serves the queued two (drain, one batch after the
  // blocker's).
  server.shutdown();
  (void)a->get();
  (void)b->get();
  (void)blocker.get();
  EXPECT_EQ(server.stats().completed, 3u);
  EXPECT_EQ(server.stats().batches, 2u);
}

TEST(SuggestServer, SubmitBlocksAtTheQueueBoundThenAdmits) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();
  const auto expected = pipeline->suggest(sources[2]);

  // Fill the queue to its bound behind a stalled scheduler. The stall
  // outlasts the submitter's 50 ms head start below by far.
  SuggestServer::Options options;
  options.max_batch_requests = 1000;
  options.max_queue_depth = 2;
  options.cache_only_at = 1.5;
  SuggestServer server(pipeline, options);

  auto blocker = test_env::park_scheduler(server, sources[3], 500);
  auto a = server.submit(sources[0]);
  auto b = server.submit(sources[1]);

  // A third submit at the bound is backpressure: it blocks (no Overloaded)
  // until the parked batch drains and frees a slot.
  std::atomic<bool> returned{false};
  std::future<std::vector<LoopSuggestion>> third;
  std::exception_ptr error;
  std::thread submitter([&] {
    try {
      third = server.submit(sources[2]);
    } catch (...) {
      error = std::current_exception();
    }
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load()) << "submit at the queue bound must block";
  EXPECT_EQ(server.stats().queue_depth, 2u);

  submitter.join();
  ASSERT_FALSE(error) << "submit at the queue bound must not throw";
  expect_equivalent(third.get(), expected, "admitted after the bound freed");
  (void)a.get();
  (void)b.get();
  (void)blocker.get();
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.shed, 0u);
}

// ---- deadlines --------------------------------------------------------------

TEST(SuggestServer, HugeDeadlineMeansNoDeadline) {
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();
  const auto expected = pipeline->suggest(sources[1]);

  // milliseconds::max() is "no deadline" spelled as a duration. Adding it
  // to the clock's nanosecond time_point must saturate, not wrap into the
  // past and expire the request on arrival.
  SuggestServer server(pipeline);
  const auto forever = std::chrono::milliseconds::max();
  expect_equivalent(server.submit(sources[1], forever).get(), expected, "submit");
  auto tried = server.try_submit(sources[1], forever);
  ASSERT_TRUE(tried.has_value());
  expect_equivalent(tried->get(), expected, "try_submit");
  EXPECT_EQ(server.stats().expired, 0u);
}

// ---- graceful shutdown ------------------------------------------------------

TEST(SuggestServer, ShutdownDrainsOutstandingFuturesAndRejectsNewWork) {
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();

  std::vector<std::future<std::vector<LoopSuggestion>>> futures;
  {
    SuggestServer::Options options;
    options.max_batch_requests = 4;
    SuggestServer server(pipeline, options);
    for (int round = 0; round < 5; ++round) {
      for (const auto& src : sources) futures.push_back(server.submit(src));
    }
    server.shutdown();
    EXPECT_THROW(server.submit(sources[0]), std::runtime_error);
    EXPECT_FALSE(server.try_submit(sources[0]).has_value());
    // Destructor after explicit shutdown must be harmless.
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    (void)f.get();
  }
}

TEST(SuggestServer, DestructorAloneDrains) {
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();
  std::future<std::vector<LoopSuggestion>> future;
  {
    SuggestServer server(pipeline, SuggestServer::Options{});
    future = server.submit(sources[0]);
  }
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(future.get().size(), pipeline->suggest(sources[0]).size());
}

TEST(SuggestServer, RejectsNullPipeline) {
  EXPECT_THROW(SuggestServer{std::shared_ptr<Pipeline>{}}, std::invalid_argument);
}

// ---- the serving path on pool threads --------------------------------------

TEST(SuggestServer, SuggestBatchRunsOnItsOwnPoolThreads) {
  // The re-entrancy scenario behind the nested-parallel_for fix: the batched
  // pipeline is invoked *from a worker of the very pool it serves on*. The
  // nested parallel_for calls must run inline instead of deadlocking.
  Pipeline::Options options;
  options.corpus.scale = 0.01;
  options.train.epochs = 1;
  auto pipeline = std::make_shared<Pipeline>(Pipeline::train(options));

  auto pool = std::make_shared<ThreadPool>(2);
  pipeline->set_thread_pool(pool);

  const auto sources = test_sources();
  std::vector<std::string_view> views(sources.begin(), sources.end());
  const auto direct = pipeline->suggest_batch_results(views);
  for (const auto& r : direct) ASSERT_TRUE(r.ok());

  // Saturate the pool: every worker runs a full batched call.
  std::vector<std::future<std::vector<Pipeline::SourceResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool->submit([&] { return pipeline->suggest_batch_results(views); }));
  }
  for (auto& f : futures) {
    const auto nested = f.get();
    ASSERT_EQ(nested.size(), direct.size());
    for (std::size_t s = 0; s < direct.size(); ++s) {
      ASSERT_TRUE(nested[s].ok()) << "pool-thread batch source " << s;
      expect_equivalent(nested[s].suggestions, direct[s].suggestions,
                        "pool-thread batch source " + std::to_string(s));
    }
  }
}

// ---- tolerant batch entry point --------------------------------------------

TEST(SuggestBatchResults, AlignsErrorsAndSuggestionsWithSources) {
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();
  const std::vector<std::string_view> mixed = {sources[0], "int broken( {", sources[3],
                                               sources[1]};
  const auto results = pipeline->suggest_batch_results(mixed);
  ASSERT_EQ(results.size(), mixed.size());
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(results[2].suggestions.empty());  // loop-free file, not an error
  EXPECT_TRUE(results[3].ok());
  expect_equivalent(results[0].suggestions, pipeline->suggest(sources[0]), "tolerant slot 0");
  expect_equivalent(results[3].suggestions, pipeline->suggest(sources[1]), "tolerant slot 3");
  EXPECT_THROW(std::rethrow_exception(results[1].error), std::exception);
}

// ---- resource governor: request-scoped rejection ----------------------------

/// A source that lexes fine but blows the default parse-depth budget: the
/// governor kills it mid-parse with ResourceExhausted(kParseDepth).
std::string poison_deep_parens() {
  std::string src = "int f(void) { return ";
  for (int i = 0; i < 400; ++i) src += '(';
  src += '1';
  for (int i = 0; i < 400; ++i) src += ')';
  src += "; }";
  return src;
}

void expect_bitwise_suggestions(const std::vector<LoopSuggestion>& got,
                                const std::vector<LoopSuggestion>& want,
                                const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].parallel, want[i].parallel) << what << " loop " << i;
    EXPECT_EQ(got[i].category, want[i].category) << what << " loop " << i;
    EXPECT_EQ(got[i].suggested_pragma, want[i].suggested_pragma) << what << " loop " << i;
    EXPECT_EQ(got[i].line, want[i].line) << what << " loop " << i;
    EXPECT_EQ(std::memcmp(&got[i].confidence, &want[i].confidence, sizeof(float)), 0)
        << what << " loop " << i << ": confidence " << got[i].confidence << " vs "
        << want[i].confidence;
  }
}

TEST(SuggestServer, ResourceExhaustedFailsOnlyTheOffendingSlot) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = test_sources();
  const auto expected0 = pipeline->suggest(sources[0]);
  const auto expected1 = pipeline->suggest(sources[1]);

  SuggestServer::Options options;
  options.max_batch_requests = 8;
  SuggestServer server(pipeline, options);

  auto blocker = test_env::park_scheduler(server, sources[3]);
  auto good1 = server.submit(sources[0]);
  auto poison = server.submit(poison_deep_parens());
  auto good2 = server.submit(sources[1]);

  // The poison slot fails with the typed error naming the tripped limit…
  try {
    poison.get();
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kParseDepth);
  }
  // …while its batch-mates are bitwise-identical to the synchronous path.
  expect_bitwise_suggestions(good1.get(), expected0, "batch-mate before poison");
  expect_bitwise_suggestions(good2.get(), expected1, "batch-mate after poison");
  (void)blocker.get();

  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);  // the blocker plus the two good batch-mates
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.max_batch, 3u);  // poison and batch-mates served together
  EXPECT_EQ(stats.resource_exhausted, 1u);
  EXPECT_EQ(stats.resource_exhausted_by_limit[static_cast<int>(
                ResourceLimit::kParseDepth)],
            1u);
  // Request-scoped means request-scoped: no retry was attempted.
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.retry_recovered, 0u);
}

TEST(SuggestServer, OversizeSourceRejectedAtAdmission) {
  auto pipeline = shared_pipeline();
  SuggestServer server(pipeline);

  // Larger than the default 2 MiB source cap: statically detectable, so
  // admission rejects synchronously without ever enqueueing the request.
  const std::string oversize(3u << 20, 'x');
  try {
    auto f = server.submit(oversize);
    FAIL() << "expected synchronous ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kSourceBytes);
    EXPECT_EQ(e.observed(), oversize.size());
  }

  // try_submit reports the same poison as a ready failed future, which is
  // distinguishable from the nullopt it returns under backpressure.
  auto maybe = server.try_submit(oversize);
  ASSERT_TRUE(maybe.has_value());
  EXPECT_THROW(maybe->get(), ResourceExhausted);

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 0u);  // rejected before admission counted them
  EXPECT_EQ(stats.resource_exhausted, 2u);
  EXPECT_EQ(stats.resource_exhausted_by_limit[static_cast<int>(
                ResourceLimit::kSourceBytes)],
            2u);

  // The server still serves clean work afterwards.
  const auto sources = test_sources();
  expect_bitwise_suggestions(server.submit(sources[0]).get(),
                             pipeline->suggest(sources[0]), "post-rejection");
}

// ---- Options::budget: the one way to configure the governor ----------------

/// The shared pipeline's weights reloaded under `budget`: a pipeline that
/// differs from shared_pipeline() only in Options::budget. Null if the
/// save/load round trip fails.
std::shared_ptr<Pipeline> pipeline_with_budget(const ResourceBudget& budget) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("g2p_serve_test_budget_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string model_path = (dir / "model.bin").string();
  const std::string vocab_path = (dir / "vocab.txt").string();
  std::shared_ptr<Pipeline> out;
  if (shared_pipeline()->save(model_path, vocab_path)) {
    Pipeline::Options options;
    options.corpus.scale = 0.01;
    options.train.epochs = 1;
    options.budget = budget;
    if (auto loaded = Pipeline::load(options, model_path, vocab_path)) {
      out = std::make_shared<Pipeline>(std::move(*loaded));
    }
  }
  std::filesystem::remove_all(dir);
  return out;
}

TEST(PipelineBudget, LoopCapFailsOnlyTheOverBudgetSlot) {
  ResourceBudget budget;
  budget.max_loops = 1;
  const auto pipeline = pipeline_with_budget(budget);
  ASSERT_NE(pipeline, nullptr);
  EXPECT_EQ(pipeline->active_budget().max_loops, 1u);

  const std::string two_loops =
      "void two(double* x, double* y, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) x[i] = 0.0;\n"
      "  for (i = 0; i < n; i++) y[i] = x[i] + 1.0;\n"
      "}\n";
  const auto sources = test_sources();
  const std::vector<std::string_view> batch = {two_loops, sources[0]};
  const auto results = pipeline->suggest_batch_results(batch);
  ASSERT_EQ(results.size(), 2u);

  ASSERT_FALSE(results[0].ok());
  try {
    std::rethrow_exception(results[0].error);
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kLoops);
    EXPECT_EQ(e.observed(), 2u);
    EXPECT_EQ(e.cap(), 1u);
  } catch (...) {
    FAIL() << "expected ResourceExhausted(kLoops)";
  }

  // The one-loop batch-mate is served exactly as the default pipeline
  // serves it, and the default budget admits the two-loop source.
  ASSERT_TRUE(results[1].ok());
  expect_bitwise_suggestions(results[1].suggestions, shared_pipeline()->suggest(sources[0]),
                             "one-loop batch-mate");
  EXPECT_EQ(shared_pipeline()->suggest(two_loops).size(), 2u);
}

TEST(PipelineBudget, ServerAdmitsAgainstTheConfiguredSourceCap) {
  ResourceBudget budget;
  budget.max_source_bytes = 256;
  const auto pipeline = pipeline_with_budget(budget);
  ASSERT_NE(pipeline, nullptr);
  SuggestServer server(pipeline);

  const auto sources = test_sources();
  const std::string oversize = sources[0] + std::string(256, ' ');
  try {
    auto f = server.submit(oversize);
    FAIL() << "expected synchronous ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kSourceBytes);
    EXPECT_EQ(e.observed(), oversize.size());
    EXPECT_EQ(e.cap(), 256u);
  }

  auto maybe = server.try_submit(oversize);
  ASSERT_TRUE(maybe.has_value());
  ASSERT_EQ(maybe->wait_for(std::chrono::seconds(0)), std::future_status::ready);
  try {
    maybe->get();
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kSourceBytes);
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.resource_exhausted_by_limit[static_cast<int>(
                ResourceLimit::kSourceBytes)],
            2u);

  // A source under the cap is served as the default pipeline serves it.
  expect_bitwise_suggestions(server.submit(sources[0]).get(),
                             shared_pipeline()->suggest(sources[0]), "under the cap");
}

}  // namespace
}  // namespace g2p
