// Traced per-layer breakdown.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions (no instrumentation inside the library). The
// traced run replays a workload's next requests stage by stage — cache
// probe, parse, loop extraction, aug-AST build, batch union, encode, heads,
// clause analysis — and then serves the same batch with one
// `Pipeline::suggest_batch_results` call, so the stage spans can be checked
// against the call they decompose. Stream workloads are replayed at the
// batch size their untraced run achieved. The pipeline serves on a
// one-thread pool here, so each span holds its stage's whole cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

/// In-memory span log. A span has a name, the request it serves, its
/// parent span (-1 for a root), and start/end times; a span's self time is
/// its duration minus the durations of its children.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns = 0;
  };

  std::int32_t open(const char* name, std::uint64_t request, std::int32_t parent = -1);
  void close(std::int32_t id);

  /// Sum of self times per span name, in microseconds.
  std::vector<std::pair<std::string, double>> self_us_by_name() const;

  /// One line per span: name, request, parent, start_ns, end_ns.
  bool write_tsv(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t request, std::int32_t parent = -1)
      : log_(log), id_(log.open(name, request, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Replay the workload's requests from `run.next_request` on for up to
/// `seconds`, traced, checking every served result; then assemble every
/// per-layer metric from the replay and the untraced run's counters.
Metrics traced_layer_metrics(System& system,
                             const WorkloadInputs& inputs, const RunResult& run,
                             double seconds, SpanLog& log, OutputCheck& check);

}  // namespace perfbench
