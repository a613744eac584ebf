// Shared test-environment knobs and serving-test helpers.
//
// G2P_TEST_TIME_SCALE stretches every timing-sensitive assertion bound by a
// single multiplier (default 1.0). Slow machines — sanitizer CI jobs,
// emulated architectures, loaded laptops — set it once (e.g.
// G2P_TEST_TIME_SCALE=4) instead of chasing individually-tuned constants
// across the suite. Only *bounds* scale: the durations a test injects
// (failpoint delays) stay fixed so the behavior under
// test is unchanged; only the leniency of the stopwatch grows.
#pragma once

#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "support/failpoint.h"

namespace g2p::test_env {

/// The multiplier from G2P_TEST_TIME_SCALE, clamped to >= 1.0 so a
/// misconfigured value can never tighten a bound below its tuned default.
inline double time_scale() {
  static const double scale = [] {
    if (const char* env = std::getenv("G2P_TEST_TIME_SCALE")) {
      const double v = std::atof(env);
      if (v > 1.0) return v;
    }
    return 1.0;
  }();
  return scale;
}

/// `ms` milliseconds stretched by the ambient time scale. Use for every
/// wall-clock *assertion bound* (EXPECT_LT on elapsed time); never for
/// injected delays.
inline std::chrono::milliseconds scaled_ms(long ms) {
  return std::chrono::milliseconds(
      static_cast<long>(static_cast<double>(ms) * time_scale()));
}

/// Disarms failpoints when a test exits, pass or fail — an armed schedule
/// leaking into the next test would make failures non-local.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::disarm(); }
};

/// Park requests behind a stalled scheduler, so the next submissions form
/// one batch without timing games: arms `scheduler.batch=delay(ms)` (every
/// batch then sleeps `ms` before dispatch), submits `blocker`, and waits
/// until the scheduler has popped it. Whatever is submitted next queues up
/// behind the stalled batch and is popped together (up to max_batch_requests).
/// Returns the blocker's future; the caller disarms (FailpointGuard).
inline std::future<std::vector<LoopSuggestion>> park_scheduler(SuggestServer& server,
                                                               std::string blocker,
                                                               int ms = 250) {
  failpoint::configure("scheduler.batch=delay(" + std::to_string(ms) + ")");
  auto future = server.submit(std::move(blocker));
  while (server.stats().queue_depth != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return future;
}

}  // namespace g2p::test_env
