// End-to-end benchmark of the graph2par suggestion pipeline.
//
//   g2p_perfbench --workload <cold_batch|warm_stream> --seed <n>
//                 --seconds <s> --trace <0|1> [--spans <path>]
//
// Trains the pipeline, generates the workload's inputs from the seed, runs
// the workload against the public API for `--seconds`, checks every output
// against a reference, and prints one JSON result as the last line of
// stdout: the end-to-end metrics with --trace 0, the per-layer metrics of a
// traced replay with --trace 1 (spans go to --spans when given). A line
// starting `perfbench-info` before it records the seed, the measured share
// of repeated sources, the machine's nproc and spin-calibrated effective
// cores, p99 latency, generator lateness and the failure share.
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Loops (in whole bases) whose reference decisions are cross-checked on
/// the taped encoder.
constexpr std::size_t kTapedLoops = 128;
/// The traced replay's time budget (it stops earlier at --seconds).
constexpr double kReplaySeconds = 3.0;
/// Training corpus seed (GeneratorConfig's default); input seeds avoid it.
constexpr std::uint64_t kTrainingSeed = 20230509;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0.0;
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && have_seed && have_seconds && have_trace;
}

/// Seed of the input generator for a benchmark seed (never the training seed).
std::uint64_t input_seed(std::uint64_t seed) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + 0x1234567ull;
  z = (z ^ (z >> 31)) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 29;
  return z == kTrainingSeed ? z + 1 : z;
}

/// Spin-loop iterations `threads` threads complete in `seconds`.
double spin_iterations(unsigned threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> iterations(threads, 0);
  std::vector<std::thread> spinners;
  for (unsigned t = 0; t < threads; ++t) {
    spinners.emplace_back([&, t] {
      std::uint64_t x = t + 1, n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ull + 1442695040888963407ull;
        n += 4096;
      }
      iterations[t] = n + (x & 1);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& s : spinners) s.join();
  double total = 0.0;
  for (const auto n : iterations) total += static_cast<double>(n);
  return total;
}

/// How many cores' worth of CPU this process gets with every hardware
/// thread busy, relative to one busy thread.
double effective_cores(unsigned nproc) {
  constexpr double kSpinSeconds = 0.1;
  const double single = spin_iterations(1, kSpinSeconds);
  return single > 0.0 ? spin_iterations(nproc, kSpinSeconds) / single : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e12 : -1e12;  // JSON has no infinities
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double cores = effective_cores(nproc);

  WorkloadInputs inputs(*spec, input_seed(args.seed));
  if (inputs.bases().empty()) throw std::runtime_error("input generator produced no sources");

  // Set-up: training, construction and warm-up, repeated; the last one serves.
  std::vector<double> setup_samples;
  System system;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    system.server.reset();
    system.pipeline.reset();
    const auto start = Clock::now();
    system = set_up(*spec, inputs);
    setup_samples.push_back(seconds_between(start, Clock::now()));
  }

  // Reference results (not part of set-up time), and the taped cross-check.
  OutputCheck check;
  inputs.expected = compute_reference(*system.pipeline, inputs.bases());
  {
    std::size_t n = 0;
    for (std::size_t loops = 0; n < inputs.bases().size() && loops < kTapedLoops; ++n) {
      loops += inputs.expected[n].size();
    }
    const std::vector<RenamableSource> sample(inputs.bases().begin(),
                                              inputs.bases().begin() + static_cast<long>(n));
    const std::vector<ExpectedResult> expected(inputs.expected.begin(),
                                               inputs.expected.begin() + static_cast<long>(n));
    check.note_model_mismatch(check_against_taped_model(*system.pipeline, sample, expected));
  }

  const RunResult result = run_measured(*spec, system, inputs, args.seconds, check);

  const double late_p99 = percentile(result.late_ms, 0.99);
  const double p90 = percentile(result.latency_ms, 0.90);
  const double p99 = percentile(result.latency_ms, 0.99);
  const double attempted = static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
  const double fail_frac = static_cast<double>(result.failed) / attempted;
  const double repeat_share = static_cast<double>(result.repeated) / attempted;

  Metrics metrics;
  if (args.trace == 1) {
    system.server.reset();  // drain and stop the stream server; the replay is serial
    SpanLog log;
    metrics = traced_layer_metrics(system, inputs, result,
                                   std::min(args.seconds, kReplaySeconds), log, check);
    metrics.push_back({"loadgen.latency_p90_ms", p90, "ms"});
    metrics.push_back({"loadgen.latency_p99_ms", p99, "ms"});
    metrics.push_back({"loadgen.late_p99_ms", late_p99, "ms"});
    metrics.push_back({"loadgen.fail_frac", fail_frac, "ratio"});
    metrics.push_back({"loadgen.repeat_share", repeat_share, "ratio"});
    metrics.push_back({"env.nproc", static_cast<double>(nproc), "count"});
    metrics.push_back({"env.effective_cores", cores, "cores"});
    if (!args.spans_path.empty() && !log.write_tsv(args.spans_path)) {
      std::fprintf(stderr, "could not write spans to %s\n", args.spans_path.c_str());
    }
  } else {
    metrics = end_to_end_metrics(result, median(setup_samples), peak_rss_mb());
  }

  std::string setups;
  for (const double s : setup_samples) setups += (setups.empty() ? "" : ", ") + json_number(s);
  std::printf(
      "perfbench-info {\"workload\": \"%s\", \"seed\": %llu, \"input_seed\": %llu, "
      "\"bases\": %zu, \"offered_rps\": %s, \"repeat_share\": %s, \"nproc\": %u, "
      "\"effective_cores\": %s, \"latency_p90_ms\": %s, \"latency_p99_ms\": %s, "
      "\"late_p99_ms\": %s, "
      "\"fail_frac\": %s, \"checked\": %llu, \"mismatches\": %llu, \"missing\": %llu, "
      "\"model_mismatches\": %llu, \"max_confidence_delta\": %s, \"setup_s_samples\": [%s]}\n",
      spec->name, static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(inputs.seed()), inputs.bases().size(),
      json_number(spec->offered_rps).c_str(), json_number(repeat_share).c_str(), nproc,
      json_number(cores).c_str(), json_number(p90).c_str(), json_number(p99).c_str(),
      json_number(late_p99).c_str(),
      json_number(fail_frac).c_str(), static_cast<unsigned long long>(check.compared()),
      static_cast<unsigned long long>(check.mismatches()),
      static_cast<unsigned long long>(check.missing()),
      static_cast<unsigned long long>(check.model_mismatches()),
      json_number(check.max_confidence_delta()).c_str(), setups.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              check.ok() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed), json_metrics(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
