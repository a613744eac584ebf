// The per-loop suggestion record returned by the serving pipeline.
//
// Lives in its own header so the serving cache (suggest_cache.h) and the
// pipeline can both name it without a cycle; pipeline.h re-exports it, so
// existing includes keep working.
#pragma once

#include <string>
#include <vector>

#include "frontend/pragma.h"

namespace g2p {

/// Static race-verifier verdict lattice for one suggestion (see
/// analysis/verifier.h and docs/analysis.md). Ordered by severity:
/// vetoed > unknown > repaired > verified. kUnchecked is the default of a
/// default-constructed record and is never produced by serving: the
/// pipeline verifies every suggestion it renders.
enum class Verdict {
  kUnchecked,
  kVerified,  // no provable cross-iteration dependence under the clauses
  kRepaired,  // safe after the verifier added/corrected clauses
  kVetoed,    // provable race — the pragma was withdrawn
  kUnknown,   // unanalyzable (calls, aliasing, non-affine): passed through
};

/// One suggestion for one loop found in the input source.
struct LoopSuggestion {
  std::string loop_source;
  int line = 0;
  std::string function_name;
  bool parallel = false;
  double confidence = 0.0;  // softmax probability of the parallel class
  PragmaCategory category = PragmaCategory::kNone;
  std::string suggested_pragma;  // rendered directive, "" when not parallel

  // Filled by the static race verifier on every served suggestion. A
  // veto withdraws the pragma (parallel=false, suggested_pragma="") and
  // explains why; a repair lists the clauses the verifier added or fixed
  // (already merged into suggested_pragma). `confidence` always remains
  // the model's belief, so a vetoed suggestion is recognizable as a
  // model-said-parallel loop the analysis overruled.
  Verdict verdict = Verdict::kUnchecked;
  std::string veto_reason;
  std::vector<std::string> repaired_clauses;
};

}  // namespace g2p
