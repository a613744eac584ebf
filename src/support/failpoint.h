// Failpoint injection: named fault sites compiled into the serving path.
//
// A fault-tolerant server is only as trustworthy as the faults it has been
// exercised against. Failpoints make the interesting failures injectable on
// demand: each instrumented seam names a site ("frontend.parse",
// "cache.insert", "encode.forward", "pool.acquire", "checkpoint.load",
// "scheduler.batch", "governor.check") and asks `triggered(site)` whether
// to fail this time. Disabled — the production state — that question costs
// one relaxed atomic load and a predicted-not-taken branch; no site lookup,
// no RNG draw, no lock. Armed, the per-site schedule decides
// deterministically.
//
// Configuration (env `G2P_FAILPOINTS`, or `configure()` from tests):
//
//   G2P_FAILPOINTS="site=action[@p[,seed]][;site=...]"
//
//   action: error       the seam fails soft in its own idiom (a put is
//                       skipped, a load returns false, a parse throws the
//                       typed FailpointError)
//           delay(ms)   the seam stalls for `ms` milliseconds, then proceeds
//                       normally (wedge/slow-path simulation; never corrupts)
//           throw       FailpointError is thrown from inside triggered()
//   p:      injection probability in [0,1], default 1 (every hit)
//   seed:   u64 seed of the site's decision stream, default hashed from the
//           site name
//
// Example: G2P_FAILPOINTS="encode.forward=error@0.01;pool.acquire=delay(5)@0.001,7"
//
// Determinism: the k-th hit of a site injects iff splitmix64(seed, k) falls
// under p — a pure function of (seed, k), so a fixed arrival order replays
// the exact same fault schedule. Concurrent callers race only for hit
// indices, never for decisions attached to them.
//
// FailpointError is the typed, *transient-classified* error every injected
// fault surfaces as: the serving layer's bounded retry ladder recognizes it
// (serve/errors.h); real infrastructure errors it models (ENOMEM, a flaky
// filesystem) would be transient too. docs/serving.md covers the full
// story; every G2P_* knob is indexed in docs/tuning.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace g2p::failpoint {

/// The typed error injected faults surface as. Deliberately NOT derived
/// from the serving layer's error taxonomy: failpoints also fire in layers
/// below serve/ (tensor pool, checkpoint IO), which must not depend on it.
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(const std::string& site)
      : std::runtime_error("injected fault at failpoint '" + site + "'"), site_(site) {}
  const std::string& site() const noexcept { return site_; }

 private:
  std::string site_;
};

namespace detail {
extern std::atomic<bool> g_armed;
bool fire(const char* site);  // slow path: lookup, decide, act
}  // namespace detail

/// True when any site is configured. The disabled fast path of every seam.
inline bool armed() noexcept { return detail::g_armed.load(std::memory_order_relaxed); }

/// The one call every instrumented seam makes. Returns true when the seam
/// should fail soft this hit (`error` action); sleeps inline for `delay`;
/// throws FailpointError for `throw`. Disabled: one relaxed load, false.
inline bool triggered(const char* site) { return armed() && detail::fire(site); }

/// (Re)configure the active schedule from a spec string (grammar above).
/// Replaces the previous schedule wholesale; "" disarms. Throws
/// std::invalid_argument on a malformed spec, leaving the old schedule
/// active. The G2P_FAILPOINTS env var is applied once at process start;
/// tests call this directly.
void configure(const std::string& spec);

/// Drop every site (the disabled fast path is restored).
void disarm();

/// The normalized active schedule ("site=action@p,seed;..."; "" when
/// disarmed). What bench --json emitters report so baselines are
/// comparable across runs.
std::string active_spec();

/// Per-site counters since the last configure(): how often the seam asked,
/// how often the schedule injected.
struct SiteCounters {
  std::string site;
  std::uint64_t hits = 0;
  std::uint64_t injected = 0;
};
std::vector<SiteCounters> counters();

}  // namespace g2p::failpoint
