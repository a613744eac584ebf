// Chaos harness for the fault-tolerant serving layer: randomized failpoint
// schedules plus concurrent load, with hard invariants —
//   1. every submitted future completes, with a value or a *typed* error;
//   2. no deadlock, crash, or stranded promise (a hang times the suite out);
//   3. requests that experienced no injected fault produce results
//      bitwise-identical to a fault-free run.
// Plus targeted tests for each fault-tolerance mechanism: the scheduler's
// top-level catch, shutdown-aware backpressure, deadlines, a stalled forward
// that is served rather than abandoned (shutdown waits for it), cache-only
// mode, transient-fault retries, and checkpoint-load failure mid-serving.
//
// Failpoint decisions are pure functions of (seed, hit index), so the seeds
// below pin behavior: seed 3 at p=0.5 injects on hit 0 and passes on hit 1
// (retry recovers); seed 20 injects on hits 0..3 (retries exhaust).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/errors.h"
#include "serve/server.h"
#include "support/failpoint.h"
#include "testing_env.h"

namespace g2p {
namespace {

using namespace std::chrono_literals;

using test_env::FailpointGuard;

std::shared_ptr<Pipeline> shared_pipeline() {
  static const std::shared_ptr<Pipeline> pipeline = [] {
    Pipeline::Options options;
    options.corpus.scale = 0.01;
    options.train.epochs = 1;
    return std::make_shared<Pipeline>(Pipeline::train(options));
  }();
  return pipeline;
}

/// `count` distinct translation units cycling through the serving shapes
/// (do-all, reduction, loop-carried dependence, loop-free), each made
/// unique by its function name so every source is its own cache key.
std::vector<std::string> chaos_sources(int count) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    switch (i % 4) {
      case 0:
        out.push_back("void scale" + n + "(double* x, int n) {\n  int i;\n  for (i = 0; i < n; i++) x[i] = x[i] * " +
                      std::to_string(2 + i) + ".0;\n}\n");
        break;
      case 1:
        out.push_back("double dot" + n + "(double* x, double* y, int n) {\n  int i;\n  double s = 0;\n  for (i = 0; i < n; i++) s += x[i] * y[i];\n  return s;\n}\n");
        break;
      case 2:
        out.push_back("void shift" + n + "(double* x, int n) {\n  int i;\n  for (i = 1; i < n; i++) x[i] = x[i - 1];\n}\n");
        break;
      default:
        out.push_back("int answer" + n + "(void) { return " + std::to_string(40 + i) + "; }\n");
        break;
    }
  }
  return out;
}

/// Bitwise equality — the chaos invariant is stronger than the usual 1e-5
/// serving-equivalence gate: a fault-free request must be *indistinguishable*
/// from a run without injection, so confidence is compared bit-for-bit.
void expect_bitwise(const std::vector<LoopSuggestion>& got,
                    const std::vector<LoopSuggestion>& want, const std::string& what) {
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

// ---- the chaos invariant gate ----------------------------------------------

TEST(Chaos, RandomizedFaultScheduleInvariants) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(24);

  // Fault-free reference, computed before arming anything. The reference
  // pass warms the serving cache; clearing it afterwards forces the chaos
  // run through the full frontend + forward so every site sees traffic.
  std::vector<std::vector<LoopSuggestion>> expected;
  for (const auto& src : sources) expected.push_back(pipeline->suggest(src));
  pipeline->clear_cache();

  // Decisions are a pure function of (seed, hit index), and a run makes as
  // few as ~120 pool.acquire hits, so that site's seed must fire early:
  // seed 43 at p = 0.02 injects at hits 4, 42, 52, ...
  failpoint::configure(
      "frontend.parse=throw@0.2,11;"
      "cache.insert=error@0.2,22;"
      "encode.forward=throw@0.1,33;"
      "pool.acquire=throw@0.02,43;"
      "scheduler.batch=throw@0.05,55");

  SuggestServer::Options options;
  options.max_batch_requests = 8;
  options.max_retries = 3;
  SuggestServer server(pipeline, options);

  constexpr int kSubmitters = 8;
  constexpr int kRounds = 3;
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::pair<std::size_t, std::future<std::vector<LoopSuggestion>>>>>
      per_thread(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s = 0; s < sources.size(); ++s) {
          const std::size_t idx = (s + static_cast<std::size_t>(t + round)) % sources.size();
          per_thread[static_cast<std::size_t>(t)].emplace_back(idx,
                                                               server.submit(sources[idx]));
        }
      }
    });
  }
  for (auto& t : submitters) t.join();

  // Invariant 1+3: every future completes; values are bitwise-faithful,
  // errors are typed (an injected FailpointError is "typed" here: it is the
  // fault we asked for, surfaced instead of swallowed).
  std::size_t succeeded = 0, faulted = 0;
  for (int t = 0; t < kSubmitters; ++t) {
    for (auto& [idx, future] : per_thread[static_cast<std::size_t>(t)]) {
      try {
        expect_bitwise(future.get(), expected[idx], "source " + std::to_string(idx));
        ++succeeded;
      } catch (const failpoint::FailpointError&) {
        ++faulted;
      } catch (const ServeError&) {
        ++faulted;  // typed serving error (shed/deadline)
      } catch (const std::exception& e) {
        ADD_FAILURE() << "untyped error escaped to a client: " << e.what();
      }
    }
  }
  const std::size_t total =
      static_cast<std::size_t>(kSubmitters) * kRounds * sources.size();
  EXPECT_EQ(succeeded + faulted, total);
  EXPECT_GT(succeeded, 0u) << "chaos schedule killed every request";
  EXPECT_GT(faulted, 0u) << "chaos schedule injected nothing";

  // Injection coverage: every armed site was reached and actually injected.
  for (const auto& site : failpoint::counters()) {
    EXPECT_GT(site.hits, 0u) << site.site << " never reached";
    EXPECT_GT(site.injected, 0u) << site.site << " never injected";
  }

  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, succeeded);
  EXPECT_EQ(stats.failed, faulted);
}

// ---- scheduler survives escaping exceptions (top-level catch) ---------------

TEST(Chaos, SchedulerSurvivesEscapingExceptions) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(4);

  SuggestServer::Options options;
  options.max_retries = 0;
  SuggestServer server(pipeline, options);

  // Every batch throws from the scheduler loop itself — without the
  // top-level catch this would std::terminate the process.
  failpoint::configure("scheduler.batch=throw@1");
  auto doomed = server.submit(sources[0]);
  EXPECT_THROW(doomed.get(), failpoint::FailpointError);
  EXPECT_GE(server.stats().scheduler_faults, 1u);

  // The scheduler must still be alive and serving.
  failpoint::disarm();
  auto healthy = server.submit(sources[1]);
  EXPECT_NO_THROW((void)healthy.get());
}

// ---- shutdown-aware backpressure --------------------------------------------

TEST(Chaos, ShutdownUnblocksBackpressuredSubmitter) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(4);

  // Park the queue at its bound behind a stalled scheduler, cache-only mode
  // disabled so it cannot fire at this tiny bound. The stall outlasts the
  // submitter's 50 ms head start below by far.
  SuggestServer::Options options;
  options.max_batch_requests = 1000;
  options.max_queue_depth = 2;
  options.cache_only_at = 1.5;
  SuggestServer server(pipeline, options);

  auto blocker = test_env::park_scheduler(server, sources[3], 500);
  auto a = server.try_submit(sources[0]);
  auto b = server.try_submit(sources[1]);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  // A submitter now blocks on the full queue; concurrent shutdown must wake
  // it with the typed error instead of leaving it wedged forever.
  std::promise<void> blocked_entered;
  std::atomic<bool> saw_stopped{false};
  std::thread submitter([&] {
    blocked_entered.set_value();
    try {
      (void)server.submit(sources[2]);
    } catch (const ServerStopped&) {
      saw_stopped.store(true);
    }
  });
  blocked_entered.get_future().wait();
  std::this_thread::sleep_for(50ms);  // let the submitter reach the wait
  server.shutdown();
  submitter.join();
  EXPECT_TRUE(saw_stopped.load());

  // The parked requests were still drained, not stranded.
  EXPECT_NO_THROW((void)blocker.get());
  EXPECT_NO_THROW((void)a->get());
  EXPECT_NO_THROW((void)b->get());
}

// ---- request deadlines ------------------------------------------------------

TEST(Chaos, ExpiredRequestsAreExpelledBeforeTheForward) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(4);

  // Stall the scheduler far longer than the request's deadline.
  SuggestServer::Options options;
  options.max_batch_requests = 1000;
  SuggestServer server(pipeline, options);

  auto blocker = test_env::park_scheduler(server, sources[2], 300);
  auto doomed = server.submit(sources[0], 30ms);
  auto healthy = server.submit(sources[1]);  // no deadline, same batch
  EXPECT_THROW(doomed.get(), DeadlineExceeded);
  EXPECT_NO_THROW((void)healthy.get());
  EXPECT_NO_THROW((void)blocker.get());
  EXPECT_EQ(server.stats().expired, 1u);
}

// ---- a stalled forward is served, not abandoned ----------------------------

TEST(Chaos, StalledForwardIsServedAndShutdownWaitsForIt) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(11);
  const auto expected_a = pipeline->suggest(sources[8]);
  const auto expected_c = pipeline->suggest(sources[10]);
  pipeline->clear_cache();  // the stall is in the forward: force one

  SuggestServer::Options options;
  options.max_retries = 0;
  SuggestServer server(pipeline, options);

  // A's forward stalls on the scheduler thread. B and C queue behind it:
  // B's deadline passes during the stall, C has none.
  failpoint::configure("encode.forward=delay(300)@1");
  auto a = server.submit(sources[8]);
  while (server.stats().queue_depth != 0) std::this_thread::sleep_for(1ms);
  auto b = server.submit(sources[9], 50ms);
  auto c = server.submit(sources[10]);

  // Shutdown drains: it returns only once the stalled batch and the one
  // behind it have been served, so every future is ready by then.
  server.shutdown();
  for (auto* f : {&a, &b, &c}) {
    ASSERT_EQ(f->wait_for(0s), std::future_status::ready);
  }
  expect_bitwise(a.get(), expected_a, "stalled request");
  EXPECT_THROW(b.get(), DeadlineExceeded);
  expect_bitwise(c.get(), expected_c, "queued behind the stall");
  EXPECT_EQ(server.stats().expired, 1u);
}

// ---- cache-only mode --------------------------------------------------------

TEST(Chaos, CacheOnlyModeServesHitsAndShedsMisses) {
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(8);

  // Warm the result cache for one source, then pin the server to
  // cache-only mode (threshold 0: any depth qualifies). Hits are served
  // without a forward; misses are shed with the typed error.
  const auto expected = pipeline->suggest(sources[0]);
  SuggestServer::Options options;
  options.cache_only_at = 0.0;
  SuggestServer server(pipeline, options);

  auto hit = server.submit(sources[0]);
  expect_bitwise(hit.get(), expected, "cache-only hit");

  auto miss = server.submit(sources[7]);
  EXPECT_THROW(miss.get(), Overloaded);

  const auto stats = server.stats();
  EXPECT_GE(stats.cache_only_served, 1u);
  EXPECT_GE(stats.shed, 1u);
  EXPECT_GE(stats.mode_cache_only_entered, 1u);
  EXPECT_EQ(stats.mode, static_cast<int>(DegradeMode::kCacheOnly));
}

// ---- transient-fault retries ------------------------------------------------

TEST(Chaos, RetryRecoversTransientFault) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(10);
  pipeline->clear_cache();

  // Seed 3 at p=0.5: hit 0 injects, hit 1 passes — attempt one fails at the
  // parse, the retry succeeds.
  failpoint::configure("frontend.parse=throw@0.5,3");
  SuggestServer::Options options;
  options.max_retries = 2;
  SuggestServer server(pipeline, options);

  auto recovered = server.submit(sources[8]);
  EXPECT_NO_THROW((void)recovered.get());
  const auto stats = server.stats();
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.retry_recovered, 1u);
}

TEST(Chaos, RetryRecoversWholeBatchForwardFault) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(10);
  const auto expected = pipeline->suggest(sources[9]);
  pipeline->clear_cache();

  // Hit 0 faults the batched forward (a whole-batch error, not a slot
  // error); the retry's forward (hit 1) passes and serves the same answer.
  failpoint::configure("encode.forward=error@0.5,3");
  SuggestServer::Options options;
  options.max_retries = 2;
  SuggestServer server(pipeline, options);

  expect_bitwise(server.submit(sources[9]).get(), expected, "recovered forward");
  const auto stats = server.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.retry_recovered, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(Chaos, RetryBudgetExhaustsOnPersistentFault) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(10);
  pipeline->clear_cache();

  // Seed 20 at p=0.5: hits 0..3 all inject — two retries cannot save it.
  failpoint::configure("frontend.parse=throw@0.5,20");
  SuggestServer::Options options;
  options.max_retries = 2;
  SuggestServer server(pipeline, options);

  auto doomed = server.submit(sources[9]);
  EXPECT_THROW(doomed.get(), failpoint::FailpointError);
  EXPECT_GE(server.stats().retries, 2u);
}

// ---- checkpoint-load failure mid-serving ------------------------------------

TEST(Chaos, FailedCheckpointLoadKeepsPreviousGenerationServing) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(4);
  const std::string model_path = testing::TempDir() + "chaos_ckpt.bin";
  const std::string vocab_path = testing::TempDir() + "chaos_vocab.txt";
  ASSERT_TRUE(pipeline->save(model_path, vocab_path));

  const auto expected = pipeline->suggest(sources[0]);

  SuggestServer server(pipeline);
  EXPECT_NO_THROW((void)server.submit(sources[1]).get());  // serving is live

  // Injected open-failure: the swap must report failure and change nothing.
  failpoint::configure("checkpoint.load=error@1");
  EXPECT_FALSE(pipeline->load_weights(model_path));
  failpoint::disarm();

  // Truncated checkpoint: staged load rejects it mid-stream; the staged
  // buffers are discarded before anything was committed.
  {
    std::ifstream in(model_path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 16u);
    std::ofstream out(model_path + ".trunc", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(pipeline->load_weights(model_path + ".trunc"));

  // The previous generation is intact and still serving, bit for bit.
  auto after = server.submit(sources[0]);
  expect_bitwise(after.get(), expected, "post-failed-reload");

  std::remove(model_path.c_str());
  std::remove((model_path + ".trunc").c_str());
  std::remove(vocab_path.c_str());
}

TEST(Chaos, BitFlippedCheckpointIsRejectedBeforeCommit) {
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(2);
  const std::string model_path = testing::TempDir() + "chaos_bitflip.bin";
  const std::string vocab_path = testing::TempDir() + "chaos_bitflip_vocab.txt";
  ASSERT_TRUE(pipeline->save(model_path, vocab_path));
  const auto expected = pipeline->suggest(sources[0]);

  // Flip one bit in the middle of the weight payload. The file still has
  // the right length and a well-formed trailer, so only the checksum can
  // catch it — a truncation check would wave it through into the live model.
  std::vector<char> bytes;
  {
    std::ifstream in(model_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(model_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(pipeline->load_weights(model_path));

  // Nothing was committed: the previous generation serves bit for bit.
  expect_bitwise(pipeline->suggest(sources[0]), expected, "post-bit-flip");

  std::remove(model_path.c_str());
  std::remove(vocab_path.c_str());
}

TEST(Chaos, TrailerlessBitFlippedCheckpointIsRejectedBeforeCommit) {
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(2);
  const std::string model_path = testing::TempDir() + "chaos_no_trailer.bin";
  const std::string vocab_path = testing::TempDir() + "chaos_no_trailer_vocab.txt";
  ASSERT_TRUE(pipeline->save(model_path, vocab_path));
  const auto expected = pipeline->suggest(sources[0]);

  // Cut the 16-byte integrity trailer (8 magic bytes + 8 checksum bytes)
  // and flip one payload bit. Every count and size still parses and the
  // stream ends exactly at the last float, so only a required trailer can
  // catch it.
  std::vector<char> bytes;
  {
    std::ifstream in(model_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() - 16);
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(model_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(pipeline->load_weights(model_path));

  // Nothing was committed: the previous generation serves bit for bit.
  expect_bitwise(pipeline->suggest(sources[0]), expected, "post-trailerless-load");

  std::remove(model_path.c_str());
  std::remove(vocab_path.c_str());
}

// ---- shutdown while degraded ------------------------------------------------

TEST(Chaos, ShutdownWhileDegradedCompletesQueuedMissesTyped) {
  FailpointGuard guard;
  auto pipeline = shared_pipeline();
  const auto sources = chaos_sources(4);
  pipeline->clear_cache();

  // Tiny queue so two waiting requests trip cache-only mode, and a
  // delayed forward so the scheduler is pinned inside batch #1 while we
  // queue the victims and call shutdown. When the drain loop finally pops
  // them, stopping_ is set and the mode is cache-only: the contract is that
  // they complete with ServerStopped (a client re-resolves elsewhere), not
  // that they vanish into the shed counter as if load protection fired.
  SuggestServer::Options options;
  options.max_batch_requests = 2;
  options.max_queue_depth = 4;
  options.cache_only_at = 0.5;  // 2 queued / 4 >= 0.5
  options.max_retries = 0;
  SuggestServer server(pipeline, options);

  failpoint::configure("encode.forward=delay(250)@1");
  auto pinned = server.submit(sources[0]);  // batch #1: stalls in the forward
  std::this_thread::sleep_for(50ms);        // let the scheduler take it
  auto miss_a = server.submit(sources[1]);
  auto miss_b = server.submit(sources[2]);
  server.shutdown();  // joins the drain: batch #1 finishes, then the rest

  EXPECT_NO_THROW((void)pinned.get());  // delayed, not faulted
  EXPECT_THROW(miss_a.get(), ServerStopped);
  EXPECT_THROW(miss_b.get(), ServerStopped);

  const auto stats = server.stats();
  EXPECT_EQ(stats.stopped_unserved, 2u) << "queued misses must be counted stopped";
  EXPECT_EQ(stats.shed, 0u) << "a draining server is not shedding for load";
}

}  // namespace
}  // namespace g2p
