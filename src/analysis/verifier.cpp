#include "analysis/verifier.h"

#include <algorithm>
#include <set>
#include <utility>

namespace g2p {

namespace {

/// One consistent spelling for every clause edit recorded in
/// repaired_clauses (tests and docs rely on these shapes).
std::string clause_private(const std::string& var) { return "private(" + var + ")"; }
std::string clause_reduction(const std::string& op, const std::string& var) {
  return "reduction(" + op + ":" + var + ")";
}

/// Remove `var` from every reduction clause, dropping emptied clauses.
void erase_reduction_var(std::vector<OmpPragma::Reduction>& reds, const std::string& var) {
  for (auto& red : reds) {
    red.vars.erase(std::remove(red.vars.begin(), red.vars.end(), var), red.vars.end());
  }
  reds.erase(std::remove_if(reds.begin(), reds.end(),
                            [](const OmpPragma::Reduction& r) { return r.vars.empty(); }),
             reds.end());
}

}  // namespace

VerifierResult verify_clauses(const LoopFacts& facts, PragmaCategory category,
                              const std::vector<std::string>& private_vars,
                              const std::vector<OmpPragma::Reduction>& reductions) {
  (void)category;  // every category worksharing-distributes the loop index
  VerifierResult r;
  r.private_vars = private_vars;
  r.reductions = reductions;

  std::string veto;
  std::string unknown;
  const auto note_veto = [&](std::string msg) {
    if (veto.empty()) veto = std::move(msg);
  };
  const auto note_unknown = [&](std::string msg) {
    if (unknown.empty()) unknown = std::move(msg);
  };

  // --- Structural vetoes: shapes no worksharing directive is valid on.
  if (!facts.is_for) {
    note_veto("worksharing directive on a non-for loop");
  } else if (!facts.canonical) {
    note_veto("loop header not in OpenMP canonical form");
  } else if (facts.index_written_in_body) {
    note_veto("induction variable '" + facts.index_var + "' written in the loop body");
  } else if (facts.has_break) {
    note_veto("early exit (break/return) in the loop body");
  }

  if (veto.empty()) {
    // --- Arrays: probe every write against every other reference of the
    // same array. Variables that change inside one iteration (inner loop
    // indices, body-written scalars) make a subscript compare different
    // instances on each side, so the probe treats them as unanalyzable.
    std::set<std::string> varying = facts.inner_index_vars;
    for (const auto& [var, info] : facts.written_scalars) varying.insert(var);

    const auto probe = [&](const ArrayRefInfo& w, const ArrayRefInfo& o) {
      switch (classify_array_dependence(w, o, facts.index_var, varying)) {
        case ArrayDependence::kIndependent:
          return;
        case ArrayDependence::kDependent:
          if (&w == &o) {
            note_veto("every iteration writes the same cell(s) of '" + w.array + "'");
          } else if (o.is_write) {
            note_veto("loop-carried output dependence on '" + w.array + "'");
          } else {
            note_veto("loop-carried dependence on '" + w.array +
                      "' (a cell written on one iteration is read on another)");
          }
          return;
        case ArrayDependence::kUnknown:
          note_unknown("subscripts of '" + w.array + "' not analyzable");
          return;
      }
    };
    for (std::size_t i = 0; i < facts.array_writes.size() && veto.empty(); ++i) {
      const ArrayRefInfo& w = facts.array_writes[i];
      for (std::size_t j = i; j < facts.array_writes.size() && veto.empty(); ++j) {
        probe(w, facts.array_writes[j]);
      }
      for (const ArrayRefInfo& rd : facts.array_reads) {
        if (!veto.empty()) break;
        probe(w, rd);
      }
    }

    // --- Scalars: every scalar the body writes must be iteration-local —
    // declared inside, privatizable (unconditionally written before read),
    // or a consistent-op reduction. The suggested clause set is checked
    // against that classification and repaired where a safe clause exists.
    std::set<std::string> covered_private(r.private_vars.begin(), r.private_vars.end());
    std::map<std::string, std::string, std::less<>> suggested_red_op;
    for (const auto& red : r.reductions) {
      for (const auto& var : red.vars) suggested_red_op[var] = red.op;
    }

    // Clauses naming scalars the body never writes are themselves unsafe
    // (private(x) on a read-only x serves an uninitialized copy): drop them.
    for (auto it = covered_private.begin(); it != covered_private.end();) {
      if (facts.written_scalars.count(*it) == 0) {
        r.repaired_clauses.push_back("dropped " + clause_private(*it) + " (never written)");
        r.private_vars.erase(std::remove(r.private_vars.begin(), r.private_vars.end(), *it),
                             r.private_vars.end());
        it = covered_private.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = suggested_red_op.begin(); it != suggested_red_op.end();) {
      if (facts.written_scalars.count(it->first) == 0) {
        r.repaired_clauses.push_back("dropped " + clause_reduction(it->second, it->first) +
                                     " (never written)");
        erase_reduction_var(r.reductions, it->first);
        it = suggested_red_op.erase(it);
      } else {
        ++it;
      }
    }

    for (const auto& [var, info] : facts.written_scalars) {
      if (!veto.empty()) break;
      if (var == facts.index_var) continue;  // the worksharing construct owns it
      if (info.declared_in_body) continue;   // iteration-local by scoping
      const bool reduction_ok = !info.non_reduction_form && !info.reduction_op.empty() &&
                                !info.read_outside_updates;
      const bool privatizable = info.first_access_is_plain_write;
      const auto red_it = suggested_red_op.find(var);
      if (red_it != suggested_red_op.end()) {
        if (reduction_ok) {
          if (red_it->second != info.reduction_op) {
            r.repaired_clauses.push_back(clause_reduction(red_it->second, var) + " -> " +
                                         clause_reduction(info.reduction_op, var));
            erase_reduction_var(r.reductions, var);
            r.reductions.push_back(OmpPragma::Reduction{info.reduction_op, {var}});
          }
        } else if (privatizable) {
          r.repaired_clauses.push_back(clause_reduction(red_it->second, var) + " -> " +
                                       clause_private(var));
          erase_reduction_var(r.reductions, var);
          r.private_vars.push_back(var);
        } else {
          note_veto("scalar '" + var + "' is carried across iterations (not a valid " +
                    red_it->second + "-reduction)");
        }
      } else if (covered_private.count(var)) {
        if (privatizable) {
          // covered and safe
        } else if (reduction_ok) {
          r.repaired_clauses.push_back(clause_private(var) + " -> " +
                                       clause_reduction(info.reduction_op, var));
          r.private_vars.erase(std::remove(r.private_vars.begin(), r.private_vars.end(), var),
                               r.private_vars.end());
          r.reductions.push_back(OmpPragma::Reduction{info.reduction_op, {var}});
        } else {
          note_veto("scalar '" + var + "' may be read before written (not privatizable)");
        }
      } else {
        if (reduction_ok) {
          r.repaired_clauses.push_back("added " + clause_reduction(info.reduction_op, var));
          r.reductions.push_back(OmpPragma::Reduction{info.reduction_op, {var}});
        } else if (privatizable) {
          r.repaired_clauses.push_back("added " + clause_private(var));
          r.private_vars.push_back(var);
        } else {
          note_veto("scalar '" + var + "' carried across iterations with no safe clause");
        }
      }
    }
  }

  // --- Unanalyzable constructs degrade the verdict to unknown (never to
  // verified): the analysis cannot see through them, and a veto needs
  // proof, so the suggestion passes through flagged.
  if (facts.has_unknown_call) note_unknown("call to an unknown function");
  if (facts.has_impure_call) note_unknown("impure call (I/O, RNG) in the body");
  if (facts.has_defined_call) note_unknown("call with unanalyzed side effects");
  if (facts.has_pointer_deref) note_unknown("pointer dereference (may alias)");
  if (facts.has_nonaffine_subscript) note_unknown("non-affine subscript");

  if (!veto.empty()) {
    r.verdict = Verdict::kVetoed;
    r.veto_reason = std::move(veto);
    r.repaired_clauses.clear();
    r.private_vars.clear();
    r.reductions.clear();
  } else if (!unknown.empty()) {
    // Pass through untouched: repairs derived from an analysis that already
    // gave up elsewhere are not trustworthy enough to rewrite the pragma.
    r.verdict = Verdict::kUnknown;
    r.veto_reason = std::move(unknown);
    r.repaired_clauses.clear();
    r.private_vars = private_vars;
    r.reductions = reductions;
  } else if (!r.repaired_clauses.empty()) {
    r.verdict = Verdict::kRepaired;
  } else {
    r.verdict = Verdict::kVerified;
  }
  return r;
}

void apply_verifier_result(VerifierResult result, LoopSuggestion& s) {
  s.verdict = result.verdict;
  s.veto_reason = std::move(result.veto_reason);
  s.repaired_clauses = std::move(result.repaired_clauses);
  if (result.verdict == Verdict::kVetoed) {
    // Withdraw the pragma but keep the model's confidence: the suggestion
    // stays recognizable as model-said-parallel, analysis overruled.
    s.parallel = false;
    s.category = PragmaCategory::kNone;
    s.suggested_pragma.clear();
  } else if (result.verdict == Verdict::kRepaired) {
    s.suggested_pragma = render_pragma(s.category, result.private_vars, result.reductions);
  }
}

void verify_suggestion(const Stmt& loop, const TranslationUnit* tu, LoopSuggestion& s) {
  if (!s.parallel) {
    s.verdict = Verdict::kVerified;  // no pragma, nothing to race
    s.veto_reason.clear();
    s.repaired_clauses.clear();
    return;
  }
  const LoopFacts facts = analyze_loop(loop, tu);
  const OmpPragma parsed = parse_omp_pragma(s.suggested_pragma);
  std::vector<std::string> privates = parsed.private_vars;
  privates.insert(privates.end(), parsed.firstprivate_vars.begin(),
                  parsed.firstprivate_vars.end());
  privates.insert(privates.end(), parsed.lastprivate_vars.begin(),
                  parsed.lastprivate_vars.end());
  apply_verifier_result(verify_clauses(facts, s.category, privates, parsed.reductions), s);
}

}  // namespace g2p
