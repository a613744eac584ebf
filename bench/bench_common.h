// Shared setup for the bench binaries: bench_reproduction (the paper's
// tables), the serving benches and the kernel microbenches.
//
// Environment knobs (all optional):
//   G2P_SCALE  — corpus scale as a fraction of the paper's Table 1 counts
//                (default 0.03; 1.0 regenerates the full-size OMP_Serial).
//   G2P_EPOCHS — training epochs (default 5).
//   G2P_SEED   — experiment seed (default 20230509).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <thread>

#include "core/graph2par.h"
#include "core/pipeline.h"
#include "core/pragformer.h"
#include "tensor/backend.h"
#include "dataset/generator.h"
#include "eval/trainer.h"
#include "support/failpoint.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"

namespace g2p::bench {

struct BenchEnv {
  double scale = 0.03;
  int epochs = 5;
  std::uint64_t seed = 20230509;

  static BenchEnv from_env() {
    BenchEnv env;
    if (const char* s = std::getenv("G2P_SCALE")) env.scale = std::atof(s);
    if (const char* s = std::getenv("G2P_EPOCHS")) env.epochs = std::atoi(s);
    if (const char* s = std::getenv("G2P_SEED")) env.seed = std::strtoull(s, nullptr, 10);
    return env;
  }

  GeneratorConfig generator_config() const {
    GeneratorConfig cfg;
    cfg.scale = scale;
    cfg.seed = seed;
    return cfg;
  }

  TrainConfig train_config() const {
    TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.seed = seed;
    return cfg;
  }
};

inline std::string pct(double v) { return fmt_fixed(v, 2); }

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The small serving pipeline the serving benches measure: the bench's
/// corpus at a scale of at least 0.01, trained for at most two epochs.
inline Pipeline train_serving_pipeline(const BenchEnv& env) {
  Pipeline::Options options;
  options.corpus = env.generator_config();
  options.corpus.scale = std::max(env.scale, 0.01);
  options.train.epochs = std::min(env.epochs, 2);
  options.train.seed = env.seed;
  std::printf("training pipeline (scale %.3f, %d epochs)...\n", options.corpus.scale,
              options.train.epochs);
  return Pipeline::train(options);
}

/// The first `count` distinct whole files of a corpus generated at `scale`
/// from seed + 1, so the model trained on none of them; several loop
/// samples can come from one file, hence the dedup by text. Exits with a
/// FAIL line when the corpus holds fewer distinct files.
inline std::vector<std::string> fresh_sources(const BenchEnv& env, std::size_t count,
                                              double scale) {
  GeneratorConfig fresh = env.generator_config();
  fresh.scale = scale;
  fresh.seed = env.seed + 1;
  const Corpus corpus = CorpusGenerator(fresh).generate();
  std::vector<std::string> sources;
  std::set<std::string_view> seen;
  for (const auto& sample : corpus.samples) {
    if (seen.insert(sample.file_source).second) sources.push_back(sample.file_source);
    if (sources.size() == count) break;
  }
  if (sources.size() < count) {
    std::printf("FAIL: only %zu distinct files generated (need %zu); raise G2P_SCALE\n",
                sources.size(), count);
    std::exit(1);
  }
  return sources;
}

/// Suggestion-for-suggestion comparison of served output against a
/// reference: a differing loop count, parallel flag, category or pragma is
/// a mismatch, and confidences may drift by at most the caller's tolerance.
struct Equivalence {
  std::size_t mismatches = 0;
  double max_conf_delta = 0.0;

  void compare(const std::vector<LoopSuggestion>& got, const std::vector<LoopSuggestion>& want) {
    if (got.size() != want.size()) {
      ++mismatches;
      return;
    }
    for (std::size_t k = 0; k < want.size(); ++k) {
      max_conf_delta = std::max(max_conf_delta, std::fabs(got[k].confidence - want[k].confidence));
      if (got[k].parallel != want[k].parallel || got[k].category != want[k].category ||
          got[k].suggested_pragma != want[k].suggested_pragma) {
        ++mismatches;
      }
    }
  }
  bool holds(double tolerance) const { return mismatches == 0 && max_conf_delta <= tolerance; }
};

/// Machine-readable bench results: an insertion-ordered flat JSON object.
/// Every bench binary accepts `--json <path>`; when given, it writes its
/// headline metrics here so the perf trajectory can be tracked across PRs
/// (BENCH_*.json baselines are checked in at the repo root).
class JsonMetrics {
 public:
  void set(const std::string& key, double value) {
    if (!std::isfinite(value)) {  // JSON has no inf / nan literals: spell them as strings
      set(key, std::isnan(value) ? "nan" : value > 0 ? "inf" : "-inf");
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    entries_.emplace_back(key, buf);
  }
  void set(const std::string& key, std::int64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, int value) { set(key, static_cast<std::int64_t>(value)); }
  void set(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + value + "\"");  // keys/values are ASCII identifiers
  }
  void set(const std::string& key, const char* value) { set(key, std::string(value)); }
  void set(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }

  std::string render() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += "  \"" + entries_[i].first + "\": " + entries_[i].second;
      if (i + 1 < entries_.size()) out += ",";
      out += "\n";
    }
    return out + "}\n";
  }

  /// No-op (returning true) when `path` is empty — benches call this
  /// unconditionally with whatever json_path_from_args found.
  [[nodiscard]] bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) return false;
    out << render();
    out.flush();
    return out.good();
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Common provenance header every --json bench emits first: the bench name,
/// the SIMD backend actually dispatched (after G2P_BACKEND and CPUID
/// resolution), the machine's hardware thread count, and the git revision
/// the run came from (working-tree HEAD at run time; "unknown" outside a
/// checkout). One shared shape means the checked-in BENCH_*.json baselines
/// can be joined/diffed by tooling without per-bench cases — call this
/// before any bench-specific keys. `failpoints` defaults to the schedule
/// armed now; a bench that arms one only for a phase passes that schedule.
inline void set_common_header(JsonMetrics& json, const char* bench_name,
                              const std::string& failpoints = failpoint::active_spec()) {
  json.set("bench", bench_name);
  json.set("backend", backend::active_name());
  json.set("hw_threads", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  // Resolved fault-injection schedule (normalized spec; "" when disarmed).
  // Numbers measured under injection must never masquerade as clean
  // baselines, so every bench stamps this.
  json.set("failpoints", failpoints);
  std::string rev = "unknown";
  if (FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
      if (!line.empty()) rev = line;
    }
    ::pclose(p);
  }
  json.set("git_rev", rev);
}

/// The p-quantile (p in [0, 1]) of `values` by nearest rank below: the
/// element at index floor(p * (size - 1)) of the sorted copy; 0 when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

/// The value following `--json`, or "" when the flag is absent. A trailing
/// `--json` with no path is a usage error, not a silent no-op — the bench
/// would otherwise PASS while the caller's metrics file never appears.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s [--json <path>] (--json given without a path)\n",
                     argv[0]);
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return {};
}

}  // namespace g2p::bench
