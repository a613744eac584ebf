// Static race verifier: the conservative dependence check that runs AFTER
// the model and before a suggestion is served (ROADMAP item: hybrid
// model-plus-analysis serving, per OMP-Engineer and the graph-transformer
// advisement line of work in PAPERS.md).
//
// The model decides *whether* a loop looks parallelizable; this pass decides
// whether the suggested pragma is *safe*. It reuses the analysis layer the
// PLUTO/autoPar/DiscoPoP simulacra are built on — use-def sets over the loop
// body (LoopFacts), the affine cross-iteration dependence probe
// (classify_array_dependence), and scalar update classification
// (ScalarUpdateInfo) — and folds the result into a four-point verdict
// lattice on each LoopSuggestion:
//
//   verified — no provable cross-iteration dependence under the suggested
//              clause set; the pragma is served as the model emitted it.
//   repaired — safe after the verifier added or corrected clauses (a
//              missing private(t), a missing or wrong-op reduction(op:s));
//              suggested_pragma is re-rendered and repaired_clauses records
//              each change.
//   vetoed   — a provable race: loop-carried flow/anti/output dependence on
//              an array (a[i] = a[i-1]), an unprivatizable scalar carried
//              across iterations, a mutated induction variable, an early
//              exit, or a non-canonical header no worksharing directive is
//              valid on. The pragma is withdrawn (parallel=false,
//              suggested_pragma="") and veto_reason says why.
//   unknown  — the body is not analyzable (calls with unseen side effects,
//              pointer aliasing, non-affine subscripts). The suggestion is
//              passed through UNCHANGED with the flag — conservatism here
//              means never claiming safety, not silently blocking the model.
//
// Conservatism contract: a veto requires a *provable* dependence — failure
// to prove independence is never enough (that degrades to unknown). The
// verdict is a pure function of the loop's AST, so it is deterministic
// across suggest / suggest_batch_results / cache replay.
//
// Serving runs it on every suggestion; there is no switch to turn it off.
// The full story, including the lattice's guarantees and worked examples,
// lives in docs/analysis.md.
#pragma once

#include <string>
#include <vector>

#include "analysis/dependence.h"
#include "core/suggestion.h"
#include "frontend/pragma.h"

namespace g2p {

class TranslationUnit;

/// Outcome of verifying one parallel suggestion's clause set.
struct VerifierResult {
  Verdict verdict = Verdict::kVerified;
  /// Why the pragma was withdrawn (vetoed) or why analysis gave up
  /// (unknown); empty for verified/repaired.
  std::string veto_reason;
  /// Human-readable clause edits, e.g. "added private(t)",
  /// "reduction(*:s) -> reduction(+:s)". Empty unless verdict==kRepaired.
  std::vector<std::string> repaired_clauses;
  /// Final clause sets after repairs (== the input sets when no repair was
  /// needed); callers render these with render_pragma.
  std::vector<std::string> private_vars;
  std::vector<OmpPragma::Reduction> reductions;
};

/// Core check: classify every written array and scalar of `facts` against
/// the suggested clause set. This is the entry point the pipeline uses —
/// it works on the clause lists directly (no pragma re-parsing), so the
/// sequential, batched, and cached serving paths render byte-identical
/// pragmas from one code path.
VerifierResult verify_clauses(const LoopFacts& facts, PragmaCategory category,
                              const std::vector<std::string>& private_vars,
                              const std::vector<OmpPragma::Reduction>& reductions);

/// Convenience wrapper over a rendered suggestion (tests, external tools):
/// analyzes `loop`, parses s.suggested_pragma, runs verify_clauses, and
/// applies the outcome to `s` in place — pragma re-rendered on repair,
/// withdrawn on veto. Non-parallel suggestions get kVerified (there is no
/// pragma to race).
void verify_suggestion(const Stmt& loop, const TranslationUnit* tu, LoopSuggestion& s);

/// Apply a VerifierResult to a suggestion (shared by verify_suggestion and
/// the pipeline): sets verdict fields and rewrites or withdraws the pragma.
void apply_verifier_result(VerifierResult result, LoopSuggestion& s);

}  // namespace g2p
