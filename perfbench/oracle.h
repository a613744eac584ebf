// Output check of the benchmark.
//
// The reference is computed at set-up, one source at a time through
// `Pipeline::suggest` on a clone of the served pipeline with its cache off.
// Every served result is compared against it: parallel flag, category,
// pragma and verdict exactly, confidence within 1e-5. The model's decisions
// behind the reference are themselves checked against the taped
// (grad-mode) `Graph2ParModel::encode`, so the oracle does not rest on the
// fused inference kernel it is checking.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "inputs.h"

namespace perfbench {

inline constexpr double kConfidenceTolerance = 1e-5;

/// The category the pipeline derives from the clause heads' decisions
/// (target > simd > reduction > private, as pipeline.cpp renders it).
inline g2p::PragmaCategory clause_category(int reduction, int simd, int target) {
  if (target == 1) return g2p::PragmaCategory::kTarget;
  if (simd == 1) return g2p::PragmaCategory::kSimd;
  if (reduction == 1) return g2p::PragmaCategory::kReduction;
  return g2p::PragmaCategory::kPrivate;
}

/// The fields of one suggestion the check compares.
struct ExpectedLoop {
  bool parallel = false;
  g2p::PragmaCategory category = g2p::PragmaCategory::kNone;
  std::string pragma;
  g2p::Verdict verdict = g2p::Verdict::kUnchecked;
  double confidence = 0.0;
};
using ExpectedResult = std::vector<ExpectedLoop>;

/// Reference results of `sources` (rendered with reference_suffix()), one
/// `suggest` call per source on a cache-off clone of `pipeline`. Throws if
/// any source fails: the workloads are chosen so that none does.
std::vector<ExpectedResult> compute_reference(const g2p::Pipeline& pipeline,
                                              const std::vector<RenamableSource>& sources);

/// Tally of mismatches between served results and the reference.
class OutputCheck {
 public:
  /// Compare one served result; returns false on any mismatch.
  bool compare(const std::vector<g2p::LoopSuggestion>& served, const ExpectedResult& expected);
  /// Record a request that produced no result (failed or refused).
  void note_missing() { ++missing_; }
  /// Record a failed taped-model cross-check.
  void note_model_mismatch(std::uint64_t count) { model_mismatches_ += count; }

  bool ok() const { return mismatches_ == 0 && missing_ == 0 && model_mismatches_ == 0; }
  std::uint64_t compared() const { return compared_; }
  std::uint64_t mismatches() const { return mismatches_; }
  std::uint64_t missing() const { return missing_; }
  std::uint64_t model_mismatches() const { return model_mismatches_; }
  double max_confidence_delta() const { return max_delta_; }

 private:
  std::uint64_t compared_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t missing_ = 0;
  std::uint64_t model_mismatches_ = 0;
  double max_delta_ = 0.0;
};

/// Cross-check the reference's model decisions on `sources` against the
/// taped encoder: parallel probability within tolerance, and the clause
/// heads' category wherever the reference kept a parallel suggestion.
/// Returns the number of loops that disagree.
std::uint64_t check_against_taped_model(const g2p::Pipeline& pipeline,
                                        const std::vector<RenamableSource>& sources,
                                        const std::vector<ExpectedResult>& expected);

}  // namespace perfbench
