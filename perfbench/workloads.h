// The benchmark's workloads: their definitions, seeded request streams,
// set-up, and the measured (untraced) run of each.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "inputs.h"
#include "oracle.h"
#include "serve/server.h"

namespace perfbench {

/// Closed loop: one caller sends its next call when the previous returns.
/// Open loop: requests are due on a fixed schedule, whatever the server does.
enum class LoadKind { kClosedBatch, kOpenStream };

struct WorkloadSpec {
  const char* name;
  const char* why;
  LoadKind load;
  std::size_t file_pool;  // distinct generated files drawn from the seed
  // Closed-loop batch calls (cold_batch).
  std::size_t files_per_unit = 0;  // files concatenated into one translation unit
  std::size_t unit_pool = 0;       // distinct units; each request renames one apart
  std::size_t units_per_call = 0;  // translation units per suggest_batch_results call
  // Open-loop streams.
  double offered_rps = 0.0;  // absolute arrival rate, not scaled to capacity
  std::size_t hot_set = 0;   // sources repeated verbatim (Zipf-ranked)
  double hot_share = 0.0;    // share of requests drawn from the hot set
  double zipf_s = 0.0;
};

const std::vector<WorkloadSpec>& workload_specs();
const WorkloadSpec* find_workload(std::string_view name);

/// A workload's seeded inputs and the reference results that check them.
/// Request i is either a verbatim repeat of a hot source or a fresh copy of
/// a base source (renamed apart with request_suffix(i)), decided by a hash
/// of (seed, i) — so the stream has no length limit and replays exactly.
class WorkloadInputs {
 public:
  WorkloadInputs(const WorkloadSpec& spec, std::uint64_t seed);

  std::uint64_t seed() const { return seed_; }
  const std::vector<RenamableSource>& bases() const { return bases_; }
  std::size_t base_of(std::uint64_t request) const;
  bool is_hot(std::uint64_t request) const;
  std::string request_text(std::uint64_t request) const;

  /// Reference results, one per base; set once the pipeline is trained.
  std::vector<ExpectedResult> expected;

 private:
  double uniform(std::uint64_t request, std::uint64_t lane) const;

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::vector<RenamableSource> bases_;
  ZipfSampler zipf_;
};

/// The system under test: a trained pipeline, and for the streams the
/// server in front of it.
struct System {
  std::shared_ptr<g2p::Pipeline> pipeline;
  std::unique_ptr<g2p::SuggestServer> server;
};

/// Training, pipeline/server construction and warm-up.
System set_up(const WorkloadSpec& spec, const WorkloadInputs& inputs);

/// What the measured window produced.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;       // failed, refused, shed or expired
  std::uint64_t completed = 0;
  std::uint64_t loops = 0;        // suggestions returned
  std::uint64_t repeated = 0;     // requests repeating an earlier source verbatim
  double elapsed_s = 0.0;         // open loop: first due time to last completion
  std::vector<double> latency_ms; // per request (per call for cold_batch); +inf if failed
  std::vector<double> window_of;  // measurement window of each latency sample
  std::vector<double> call_loops; // closed loop: suggestions returned by each call
  std::vector<double> call_units; // closed loop: units completed by each call
  std::vector<double> late_ms;    // how late the generator sent each request
  std::uint64_t next_request = 0; // first request index the window did not use
  double mean_batch = 1.0;        // requests per pipeline call
  g2p::ServerStatsSnapshot serve{};
  g2p::SuggestCache::Stats cache{};  // counter deltas over the window
  std::array<std::uint64_t, 5> verdicts{};  // indexed by g2p::Verdict
  std::uint64_t governor_rejected = 0;
};

/// Run the measured window for `seconds`, checking every result.
RunResult run_measured(const WorkloadSpec& spec, System& system, const WorkloadInputs& inputs,
                       double seconds, OutputCheck& check);

/// The end-to-end metrics of a run (tracing off).
Metrics end_to_end_metrics(const RunResult& run, double setup_s, double peak_rss_mb);

}  // namespace perfbench
