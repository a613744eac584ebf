// Static race verifier: verdict lattice over handcrafted loops, repair
// rendering, and the serving-path property that a vetoed suggestion never
// reaches the client with its pragma intact (analysis/verifier.h,
// docs/analysis.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/verifier.h"
#include "core/pipeline.h"
#include "frontend/parser.h"

namespace g2p {
namespace {

/// Run the verifier over one loop + one suggested pragma, as the pipeline
/// would for a model-said-parallel loop.
LoopSuggestion verify(const std::string& loop_src, const std::string& pragma,
                      PragmaCategory category = PragmaCategory::kPrivate) {
  static std::vector<ParsedStmt> keep;  // facts point into the arena
  keep.push_back(parse_statement(loop_src));
  LoopSuggestion s;
  s.loop_source = loop_src;
  s.parallel = true;
  s.confidence = 0.9;
  s.category = category;
  s.suggested_pragma = pragma;
  verify_suggestion(*keep.back(), nullptr, s);
  return s;
}

bool has_repair(const LoopSuggestion& s, std::string_view needle) {
  return std::any_of(s.repaired_clauses.begin(), s.repaired_clauses.end(),
                     [&](const std::string& r) { return r.find(needle) != std::string::npos; });
}

// ---- vetoes: provable races ------------------------------------------------

TEST(VerifierVeto, FlowDependence) {
  const auto s = verify("for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kVetoed);
  EXPECT_FALSE(s.parallel);
  EXPECT_TRUE(s.suggested_pragma.empty());
  EXPECT_EQ(s.category, PragmaCategory::kNone);
  EXPECT_NE(s.veto_reason.find("'a'"), std::string::npos);
  EXPECT_DOUBLE_EQ(s.confidence, 0.9);  // the model's belief survives the veto
}

TEST(VerifierVeto, AntiDependence) {
  const auto s = verify("for (i = 0; i < n - 1; i++) a[i] = a[i + 1];",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kVetoed);
  EXPECT_TRUE(s.repaired_clauses.empty());
}

TEST(VerifierVeto, InPlaceStencil) {
  const auto s = verify("for (i = 1; i < n - 1; i++) a[i] = (a[i - 1] + a[i + 1]) / 2;",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kVetoed);
}

TEST(VerifierVeto, SameCellEveryIteration) {
  const auto s = verify("for (i = 1; i < n; i++) a[0] = a[0] + i;",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kVetoed);
  EXPECT_NE(s.veto_reason.find("same cell"), std::string::npos);
}

TEST(VerifierVeto, PrefixSumScalarCarried) {
  // s is read by the store after being accumulated: not a reduction (read
  // outside its updates), not privatizable (first access reads it).
  const auto s = verify("for (i = 0; i < n; i++) { s += b[i]; a[i] = s; }",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kVetoed);
  EXPECT_NE(s.veto_reason.find("'s'"), std::string::npos);
}

TEST(VerifierVeto, SignAlternatingRecurrence) {
  // s = e - s negates the accumulator each iteration: order-dependent.
  const auto s = verify("for (i = 0; i < n; i++) s = a[i] - s;",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kVetoed);
}

TEST(VerifierVeto, ConditionallyWrittenScalarRead) {
  // kSearchLast shape: t keeps its previous-iteration value when the guard
  // is false, so a private copy would be read uninitialized.
  const auto s = verify("for (i = 0; i < n; i++) { if (a[i] > 0) t = i; b[i] = t; }",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kVetoed);
}

TEST(VerifierVeto, StructuralShapes) {
  EXPECT_EQ(verify("while (x > 0) x--;", "#pragma omp parallel for").verdict,
            Verdict::kVetoed);
  EXPECT_EQ(verify("for (i = 0; i < n; i++) { a[i] = 0; i += 1; }",
                   "#pragma omp parallel for").verdict,
            Verdict::kVetoed);
  EXPECT_EQ(verify("for (i = 0; i < n; i++) { if (a[i] < 0) break; b[i] = a[i]; }",
                   "#pragma omp parallel for").verdict,
            Verdict::kVetoed);
  // `return` from an inner loop still exits the worksharing region early.
  EXPECT_EQ(verify("for (i = 0; i < n; i++) { for (j = 0; j < m; j++) "
                   "if (a[i][j] < 0) return; }",
                   "#pragma omp parallel for").verdict,
            Verdict::kVetoed);
}

// ---- repairs: safe clause exists, pragma re-rendered -----------------------

TEST(VerifierRepair, AddsMissingPrivate) {
  const auto s = verify("for (i = 0; i < n; i++) { t = a[i]; b[i] = t * t; }",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kRepaired);
  EXPECT_TRUE(s.parallel);
  EXPECT_TRUE(has_repair(s, "added private(t)"));
  EXPECT_NE(s.suggested_pragma.find("private(t)"), std::string::npos);
}

TEST(VerifierRepair, AddsMissingReduction) {
  const auto s = verify("for (i = 0; i < n; i++) s += a[i];", "#pragma omp parallel for",
                        PragmaCategory::kReduction);
  EXPECT_EQ(s.verdict, Verdict::kRepaired);
  EXPECT_TRUE(has_repair(s, "added reduction(+:s)"));
  EXPECT_NE(s.suggested_pragma.find("reduction(+:s)"), std::string::npos);
}

TEST(VerifierRepair, FixesWrongReductionOp) {
  const auto s = verify("for (i = 0; i < n; i++) s += a[i];",
                        "#pragma omp parallel for reduction(*:s)",
                        PragmaCategory::kReduction);
  EXPECT_EQ(s.verdict, Verdict::kRepaired);
  EXPECT_TRUE(has_repair(s, "reduction(*:s) -> reduction(+:s)"));
  EXPECT_NE(s.suggested_pragma.find("reduction(+:s)"), std::string::npos);
  EXPECT_EQ(s.suggested_pragma.find("reduction(*:s)"), std::string::npos);
}

TEST(VerifierRepair, PrivateBecomesReduction) {
  // private(s) on an accumulator would lose the sum; the verifier upgrades
  // the clause instead of vetoing.
  const auto s = verify("for (i = 0; i < n; i++) s = s + a[i];",
                        "#pragma omp parallel for private(s)");
  EXPECT_EQ(s.verdict, Verdict::kRepaired);
  EXPECT_TRUE(has_repair(s, "private(s) -> reduction(+:s)"));
}

TEST(VerifierRepair, DropsClauseOnUnwrittenVar) {
  const auto s = verify("for (i = 0; i < n; i++) a[i] = z * b[i];",
                        "#pragma omp parallel for private(z)");
  EXPECT_EQ(s.verdict, Verdict::kRepaired);
  EXPECT_TRUE(has_repair(s, "dropped private(z)"));
  EXPECT_EQ(s.suggested_pragma.find("private(z)"), std::string::npos);
}

TEST(VerifierRepair, InnerLoopIndexPrivatized) {
  const auto s = verify(
      "for (i = 0; i < n; i++) for (j = 0; j < m; j++) a[i][j] = 0;",
      "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kRepaired);
  EXPECT_TRUE(has_repair(s, "added private(j)"));
}

// ---- verified: the model's pragma was already safe -------------------------

TEST(VerifierVerified, DoAll) {
  const auto s = verify("for (i = 0; i < n; i++) a[i] = b[i] * 2;",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kVerified);
  EXPECT_EQ(s.suggested_pragma, "#pragma omp parallel for");
  EXPECT_TRUE(s.veto_reason.empty());
  EXPECT_TRUE(s.repaired_clauses.empty());
}

TEST(VerifierVerified, CorrectReductionClause) {
  const auto s = verify("for (i = 0; i < n; i++) s += a[i];",
                        "#pragma omp parallel for reduction(+:s)",
                        PragmaCategory::kReduction);
  EXPECT_EQ(s.verdict, Verdict::kVerified);
  EXPECT_EQ(s.suggested_pragma, "#pragma omp parallel for reduction(+:s)");
}

TEST(VerifierVerified, MultiDimWriteDisambiguatedByOuterIndex) {
  const auto s = verify(
      "for (i = 0; i < n; i++) for (j = 0; j < m; j++) a[i][j] = a[i][j] + b[j];",
      "#pragma omp parallel for private(j)");
  EXPECT_EQ(s.verdict, Verdict::kVerified);
}

TEST(VerifierVerified, NonParallelSuggestionUntouched) {
  static std::vector<ParsedStmt> keep;
  keep.push_back(parse_statement("for (i = 1; i < n; i++) a[i] = a[i - 1];"));
  LoopSuggestion s;  // the model already said not-parallel
  s.parallel = false;
  verify_suggestion(*keep.back(), nullptr, s);
  EXPECT_EQ(s.verdict, Verdict::kVerified);
  EXPECT_FALSE(s.parallel);
}

// ---- unknown: unanalyzable, passed through flagged -------------------------

TEST(VerifierUnknown, NonAffineSubscript) {
  const auto s = verify("for (i = 0; i < n; i++) a[idx[i]] = b[i];",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kUnknown);
  EXPECT_TRUE(s.parallel);  // passed through, not blocked
  EXPECT_EQ(s.suggested_pragma, "#pragma omp parallel for");
  EXPECT_FALSE(s.veto_reason.empty());
}

TEST(VerifierUnknown, UnknownCall) {
  const auto s = verify("for (i = 0; i < n; i++) a[i] = mystery(b[i]);",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kUnknown);
  EXPECT_TRUE(s.parallel);
}

TEST(VerifierUnknown, NoRepairsUnderUnknown) {
  // t would be repairable, but the unknown call means the analysis already
  // gave up: the clause set must pass through unchanged.
  const auto s = verify("for (i = 0; i < n; i++) { t = mystery(i); b[i] = t; }",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kUnknown);
  EXPECT_TRUE(s.repaired_clauses.empty());
  EXPECT_EQ(s.suggested_pragma, "#pragma omp parallel for");
}

TEST(VerifierUnknown, VetoStillWinsOverUnknown) {
  // Provable flow dependence on `a` outranks the unanalyzable call: the
  // lattice resolves to the most severe verdict.
  const auto s = verify("for (i = 1; i < n; i++) a[i] = a[i - 1] + mystery(i);",
                        "#pragma omp parallel for");
  EXPECT_EQ(s.verdict, Verdict::kVetoed);
}

// ---- serving property: vetoes never leak a pragma --------------------------

std::shared_ptr<Pipeline> shared_pipeline() {
  static const std::shared_ptr<Pipeline> pipeline = [] {
    Pipeline::Options options;
    options.corpus.scale = 0.01;
    options.train.epochs = 1;
    return std::make_shared<Pipeline>(Pipeline::train(options));
  }();
  return pipeline;
}

std::vector<std::string> serving_sources() {
  return {
      "void scale(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) x[i] = x[i] * 2.0;\n"
      "}\n",
      "double dot(double* x, double* y, int n) {\n"
      "  int i;\n"
      "  double s = 0;\n"
      "  for (i = 0; i < n; i++) s += x[i] * y[i];\n"
      "  return s;\n"
      "}\n",
      "void shift(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 1; i < n; i++) x[i] = x[i - 1];\n"
      "}\n",
      "void prefix(double* a, double* b, int n) {\n"
      "  int i; double s = 0;\n"
      "  for (i = 0; i < n; i++) { s += b[i]; a[i] = s; }\n"
      "}\n",
  };
}

bool same_suggestion(const LoopSuggestion& x, const LoopSuggestion& y) {
  return x.loop_source == y.loop_source && x.parallel == y.parallel &&
         x.confidence == y.confidence && x.category == y.category &&
         x.suggested_pragma == y.suggested_pragma && x.verdict == y.verdict &&
         x.veto_reason == y.veto_reason && x.repaired_clauses == y.repaired_clauses;
}

TEST(VerifierServing, VetoedSuggestionsNeverServeAPragma) {
  auto pipeline = shared_pipeline();
  for (const auto& src : serving_sources()) {
    for (const LoopSuggestion& s : pipeline->suggest(src)) {
      EXPECT_NE(s.verdict, Verdict::kUnchecked);
      if (s.verdict == Verdict::kVetoed) {
        EXPECT_FALSE(s.parallel);
        EXPECT_TRUE(s.suggested_pragma.empty());
        EXPECT_FALSE(s.veto_reason.empty());
      }
      if (s.parallel) {
        EXPECT_NE(s.verdict, Verdict::kVetoed);
      }
    }
  }
}

TEST(VerifierServing, ModelCallIsRecoverableFromConfidence) {
  // bench_verifier reads the model-only row off the verified pass: the
  // model's existence call is `confidence >= 0.5`, and a veto clears
  // `parallel` but never `confidence`.
  auto pipeline = shared_pipeline();
  for (const auto& src : serving_sources()) {
    for (const LoopSuggestion& s : pipeline->suggest(src)) {
      if (s.verdict == Verdict::kVetoed) {
        EXPECT_GE(s.confidence, 0.5) << s.loop_source;
      } else {
        EXPECT_EQ(s.parallel, s.confidence >= 0.5) << s.loop_source;
      }
    }
  }
}

TEST(VerifierServing, BatchAgreesWithSequential) {
  auto pipeline = shared_pipeline();
  pipeline->clear_cache();
  const auto sources = serving_sources();
  std::vector<std::string_view> views(sources.begin(), sources.end());
  const auto batch = pipeline->suggest_batch_results(views);
  ASSERT_EQ(batch.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    const auto direct = pipeline->suggest(sources[i]);
    ASSERT_EQ(batch[i].suggestions.size(), direct.size());
    for (std::size_t k = 0; k < direct.size(); ++k) {
      EXPECT_TRUE(same_suggestion(batch[i].suggestions[k], direct[k]));
    }
  }
}

}  // namespace
}  // namespace g2p
