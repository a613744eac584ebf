// Per-request resource governor: budget accounting, the parser's depth/fuel
// guards, the arena byte cap, and the checked-in pathological corpus gate
// (every entry must fail *typed*, never crash). The budget a pipeline
// serves under is Pipeline::Options::budget (serve_test's PipelineBudget
// tests).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/aug_ast.h"
#include "frontend/lexer.h"
#include "frontend/loop_extractor.h"
#include "frontend/parser.h"
#include "graph/vocab.h"
#include "serve/errors.h"
#include "support/arena.h"
#include "support/resource_governor.h"

namespace g2p {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The same lex→parse→extract→aug-AST pass a SuggestServer batch slot runs,
/// under `budget`. Mirrors tests/fuzz/fuzz_frontend.cpp's run_one.
void frontend_pass(std::string_view src, const ResourceBudget& budget) {
  static const Vocab vocab;
  ResourceGovernor governor{budget};
  const GovernorScope scope(&governor);
  governor.charge_source_bytes(src.size());
  ParseResult parsed = parse_translation_unit(src);
  governor.checkpoint();
  const auto loops = extract_loops(*parsed.tu);
  governor.charge_loops(loops.size());
  AugAstBuilder builder(vocab, {});
  for (const auto& loop : loops) {
    const LoopGraph g = builder.build(*loop.loop, parsed.tu);
    governor.charge_nodes(g.graph.nodes.size());
    governor.checkpoint();
  }
}

// ---- budget accounting ------------------------------------------------------

TEST(Governor, ChargesAccumulateAndThrowPastCap) {
  ResourceBudget budget;
  budget.max_tokens = 10;
  ResourceGovernor gov{budget};
  gov.charge_tokens(10);  // exactly at cap: fine
  EXPECT_EQ(gov.tokens(), 10u);
  try {
    gov.charge_tokens(1);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kTokens);
    EXPECT_EQ(e.observed(), 11u);
    EXPECT_EQ(e.cap(), 10u);
    EXPECT_NE(std::string(e.what()).find("tokens"), std::string::npos);
  }
}

TEST(Governor, ZeroCapDisablesDimension) {
  ResourceBudget budget = ResourceBudget::unlimited();
  ResourceGovernor gov{budget};
  gov.charge_tokens(1ull << 40);
  gov.charge_nodes(1ull << 40);
  gov.charge_loops(1ull << 40);
  gov.charge_source_bytes(1ull << 40);
  for (int i = 0; i < 100000; ++i) gov.enter_recursion();
  gov.checkpoint();  // nothing armed, nothing thrown
}

TEST(Governor, SourceBytesIsStaticCheckNotCumulative) {
  ResourceBudget budget;
  budget.max_source_bytes = 100;
  ResourceGovernor gov{budget};
  gov.charge_source_bytes(100);
  EXPECT_THROW(gov.charge_source_bytes(101), ResourceExhausted);
}

TEST(Governor, DepthGuardThrowsPastCap) {
  ResourceBudget budget;
  budget.max_parse_depth = 3;
  ResourceGovernor gov{budget};
  gov.enter_recursion();
  gov.enter_recursion();
  gov.enter_recursion();
  try {
    gov.enter_recursion();
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kParseDepth);
  }
  gov.leave_recursion();
  EXPECT_EQ(gov.depth(), 2u);
}

TEST(Governor, WallClockCheckpointThrowsOnceElapsed) {
  ResourceBudget budget;
  budget.frontend_budget_ms = 1;  // expires effectively immediately
  ResourceGovernor gov{budget};
  // Busy-wait past the budget; cooperative checkpoints then fail.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  while (std::chrono::steady_clock::now() < until) {
  }
  try {
    gov.checkpoint();
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kWallClock);
  }
}

TEST(Governor, WallClockExcludesPausedSpans) {
  // The batched pipeline pauses a slot's clock while the shared model stage
  // runs: a clean request must not trip kWallClock because of batch-mates'
  // latency. Time elapsed while paused must not accrue.
  ResourceBudget budget;
  budget.frontend_budget_ms = 20;
  ResourceGovernor gov{budget};
  gov.clock_pause();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  while (std::chrono::steady_clock::now() < until) {
  }
  gov.checkpoint();  // 50 ms real time, ~0 ms governed time: still healthy
  gov.clock_resume();
  gov.checkpoint();  // freshly resumed: still healthy
  const auto until2 =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  while (std::chrono::steady_clock::now() < until2) {
  }
  EXPECT_THROW(gov.checkpoint(), ResourceExhausted);  // governed time accrues
}

TEST(Governor, ScopeInstallsAndRestoresNesting) {
  EXPECT_EQ(ResourceGovernor::current(), nullptr);
  ResourceGovernor outer{ResourceBudget{}};
  {
    const GovernorScope s1(&outer);
    EXPECT_EQ(ResourceGovernor::current(), &outer);
    ResourceGovernor inner{ResourceBudget{}};
    {
      const GovernorScope s2(&inner);
      EXPECT_EQ(ResourceGovernor::current(), &inner);
    }
    EXPECT_EQ(ResourceGovernor::current(), &outer);
    {
      // A null scope means *ungoverned*: it must clear the outer governor —
      // not keep it — so nested no-op work can't charge an unrelated
      // request's budget.
      const GovernorScope s3(nullptr);
      EXPECT_EQ(ResourceGovernor::current(), nullptr);
    }
    EXPECT_EQ(ResourceGovernor::current(), &outer);
  }
  EXPECT_EQ(ResourceGovernor::current(), nullptr);
}

// ---- frontend integration ---------------------------------------------------

TEST(Governor, LexerChargesTokens) {
  ResourceBudget budget;
  budget.max_tokens = 16;
  try {
    frontend_pass("int f() { return a + b + c + d + e + f + g + h; }", budget);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kTokens);
  }
}

TEST(Governor, ParserChargesAstNodes) {
  ResourceBudget budget;
  budget.max_ast_nodes = 8;
  try {
    frontend_pass("int f() { int x = 1; int y = 2; return x + y * 3; }",
                  budget);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kAstNodes);
  }
}

TEST(Governor, ArenaByteCapTrips) {
  ResourceBudget budget;
  budget.max_arena_bytes = 256;  // far below any real parse's footprint
  try {
    frontend_pass("int f() { for (int i = 0; i < n; i++) a[i] = b[i]; }",
                  budget);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kArenaBytes);
    EXPECT_GT(e.observed(), e.cap());
  }
}

TEST(Governor, LoopCapTrips) {
  ResourceBudget budget;
  budget.max_loops = 2;
  std::string src = "void f() {";
  for (int i = 0; i < 3; ++i)
    src += " for (int i = 0; i < n; i++) a[i] = i;";
  src += " }";
  try {
    frontend_pass(src, budget);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kLoops);
  }
}

TEST(Governor, DeepNestingFailsTypedNotCrash) {
  // 300 nested parens against default depth 200: must be a typed throw.
  std::string src = "int f() { return ";
  for (int i = 0; i < 300; ++i) src += '(';
  src += '1';
  for (int i = 0; i < 300; ++i) src += ')';
  src += "; }";
  EXPECT_THROW(frontend_pass(src, ResourceBudget{}), ResourceExhausted);
}

TEST(Governor, DeepAssignmentChainFailsTypedNotCrash) {
  // Right-recursive assignment: `x=x=…=1` grows one native frame per '='
  // while every inner guard has already unwound, so the guard must live in
  // parse_assignment_expr itself. 100k levels would overflow an 8 MB stack
  // if depth accounting missed this shape.
  std::string src = "int f(void) { int x; ";
  for (int i = 0; i < 100000; ++i) src += "x = ";
  src += "1; return x; }";
  EXPECT_THROW(frontend_pass(src, ResourceBudget{}), ResourceExhausted);
  // Same shape with no governor installed: the parser's hard backstop.
  EXPECT_THROW(parse_translation_unit(src), ResourceExhausted);
}

TEST(Governor, DeepTernaryChainFailsTypedNotCrash) {
  // The conditional's else arm right-recurses the same way: `a?b:a?b:…`.
  std::string src = "int f(int a, int b) { return ";
  for (int i = 0; i < 100000; ++i) src += "a ? b : ";
  src += "1; }";
  EXPECT_THROW(frontend_pass(src, ResourceBudget{}), ResourceExhausted);
  EXPECT_THROW(parse_translation_unit(src), ResourceExhausted);
}

TEST(Governor, UngovernedParseHasDepthBackstop) {
  // No GovernorScope installed (training/tools path): the parser's hard
  // backstop still converts a 100k-deep nest into ParseError-family typed
  // failure instead of stack exhaustion.
  std::string src = "int f() { return ";
  for (int i = 0; i < 100000; ++i) src += '(';
  src += '1';
  for (int i = 0; i < 100000; ++i) src += ')';
  src += "; }";
  EXPECT_THROW(parse_translation_unit(src), ResourceExhausted);
}

TEST(Governor, CleanSourceUnderDefaultBudgetSucceeds) {
  frontend_pass(
      "void daxpy(int n, double a, double* x, double* y) {\n"
      "  for (int i = 0; i < n; i++) y[i] = a * x[i] + y[i];\n"
      "}\n",
      ResourceBudget{});
}

TEST(Governor, ArenaByteCapUnit) {
  Arena arena;
  static bool fired;
  fired = false;
  arena.set_byte_cap(64, [](std::size_t attempted, std::size_t cap) {
    fired = true;
    throw ResourceExhausted(ResourceLimit::kArenaBytes, attempted, cap);
  });
  arena.allocate(32, 8);
  EXPECT_THROW(arena.allocate(64, 8), ResourceExhausted);
  EXPECT_TRUE(fired);
}

// ---- parser fuel (non-advancing input terminates) ---------------------------

TEST(ParserFuel, NonAdvancingMalformedInputTerminates) {
  // Regression for the fuel/progress assertion: this shape previously risked
  // an unbounded error-recovery loop. It must terminate with a typed error.
  const std::string src = read_file(
      std::filesystem::path(G2P_SOURCE_DIR) /
      "tests/data/pathological/fuzz_nonadvancing.c");
  ASSERT_FALSE(src.empty());
  EXPECT_THROW(parse_translation_unit(src), ParseError);
}

TEST(ParserFuel, GarbageTokenSoupTerminates) {
  std::string src;
  for (int i = 0; i < 2000; ++i) src += "} ) ] ; , ";
  try {
    parse_translation_unit(src);
  } catch (const LexError&) {
  } catch (const ParseError&) {
  }  // either typed outcome is fine; the assertion is termination
}

// ---- pathological corpus gate ----------------------------------------------

TEST(PathologicalCorpus, EveryEntryFailsTypedUnderDefaultBudget) {
  const std::filesystem::path dir =
      std::filesystem::path(G2P_SOURCE_DIR) / "tests/data/pathological";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::vector<std::filesystem::path> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) entries.push_back(entry.path());
  }
  ASSERT_GE(entries.size(), 8u);
  for (const auto& path : entries) {
    const std::string src = read_file(path);
    ASSERT_FALSE(src.empty()) << path;
    bool typed = false;
    try {
      frontend_pass(src, ResourceBudget{});
    } catch (const LexError&) {
      typed = true;
    } catch (const ParseError&) {
      typed = true;
    } catch (const ServeError&) {  // ResourceExhausted and kin
      typed = true;
    }
    // Anything else — std::bad_alloc, std::length_error, a crash — escapes
    // and fails the test. Every checked-in pathological entry is expected
    // to be rejected, not silently accepted.
    EXPECT_TRUE(typed) << path << " was accepted; corpus entries must fail";
  }
}

TEST(PathologicalCorpus, FuzzSeedsReplayCleanUnderDefaultBudget) {
  const std::filesystem::path dir =
      std::filesystem::path(G2P_SOURCE_DIR) / "tests/data/fuzz_seeds";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++n;
    frontend_pass(read_file(entry.path()), ResourceBudget{});  // must succeed
  }
  EXPECT_GE(n, 4u);
}

}  // namespace
}  // namespace g2p
