#include <gtest/gtest.h>

#include "core/aug_ast.h"
#include "frontend/parser.h"

namespace g2p {
namespace {

Vocab test_vocab(const Node& root) {
  std::unordered_map<std::string, int> counts;
  collect_text_attributes(root, counts);
  return Vocab::build(counts);
}

TEST(AugAst, NodeTypeMapping) {
  auto loop = parse_statement("for (i = 0; i < n; i++) sum += fabs(a[i]);");
  EXPECT_EQ(het_type_of(*loop), HetNodeType::kLoop);
  const auto calls = collect_kind(*loop, NodeKind::kCallExpr);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(het_type_of(*calls[0]), HetNodeType::kCall);
  const auto assigns = collect_kind(*loop, NodeKind::kAssignment);
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_EQ(het_type_of(*assigns[0]), HetNodeType::kAssign);
}

TEST(AugAst, TextAttributes) {
  auto e = parse_expression("sum += fabs(a[i] - 7)");
  const auto& assign = static_cast<const Assignment&>(*e);
  EXPECT_EQ(node_text_attribute(assign), "+=");
  EXPECT_EQ(node_text_attribute(*assign.lhs), "sum");
  const auto lits = collect_kind(*e, NodeKind::kIntLiteral);
  ASSERT_EQ(lits.size(), 1u);
  EXPECT_EQ(node_text_attribute(*lits[0]), "<int>");  // 7 collapses to class
  auto small = parse_expression("1");
  EXPECT_EQ(node_text_attribute(*small), "1");  // small ints stay verbatim
}

TEST(AugAst, GraphCoversWholeSubtree) {
  auto loop = parse_statement("for (i = 0; i < n; i++) a[i] = i * 2;");
  const auto vocab = test_vocab(*loop);
  AugAstBuilder builder(vocab);
  const auto lg = builder.build(*loop);
  EXPECT_EQ(static_cast<std::size_t>(lg.graph.num_nodes()), subtree_size(*loop));
  EXPECT_TRUE(lg.graph.valid());
  EXPECT_EQ(lg.graph.nodes[static_cast<std::size_t>(lg.root)].type, HetNodeType::kLoop);
}

TEST(AugAst, AstEdgesComeInPairs) {
  auto loop = parse_statement("for (i = 0; i < n; i++) a[i] = 0;");
  const auto vocab = test_vocab(*loop);
  const auto lg = AugAstBuilder(vocab).build(*loop);
  const int child = lg.graph.count_edges(HetEdgeType::kAstChild);
  const int parent = lg.graph.count_edges(HetEdgeType::kAstParent);
  EXPECT_EQ(child, parent);
  // A tree with N nodes has N-1 child edges.
  EXPECT_EQ(child, lg.graph.num_nodes() - 1);
}

TEST(AugAst, LexicalEdgesChainLeaves) {
  auto loop = parse_statement("for (i = 0; i < n; i++) sum += a[i];");
  const auto vocab = test_vocab(*loop);
  const auto lg = AugAstBuilder(vocab).build(*loop);
  // Leaves: i,0,i,n,i(++),sum,a,i — 8 leaves -> 7 lex-next edges.
  EXPECT_EQ(lg.graph.count_edges(HetEdgeType::kLexNext), 7);
  EXPECT_EQ(lg.graph.count_edges(HetEdgeType::kLexPrev), 7);
}

TEST(AugAst, CfgEdgesPresent) {
  auto loop = parse_statement("for (i = 0; i < n; i++) { a[i] = 0; b[i] = 1; }");
  const auto vocab = test_vocab(*loop);
  const auto lg = AugAstBuilder(vocab).build(*loop);
  EXPECT_GT(lg.graph.count_edges(HetEdgeType::kCfgNext), 3);
  EXPECT_EQ(lg.graph.count_edges(HetEdgeType::kCfgNext),
            lg.graph.count_edges(HetEdgeType::kCfgPrev));
}

TEST(AugAst, OptionsDisableEdgeFamilies) {
  auto loop = parse_statement("for (i = 0; i < n; i++) sum += a[i];");
  const auto vocab = test_vocab(*loop);
  AugAstOptions opts;
  opts.cfg_edges = false;
  opts.lexical_edges = false;
  const auto lg = AugAstBuilder(vocab, opts).build(*loop);
  EXPECT_EQ(lg.graph.count_edges(HetEdgeType::kCfgNext), 0);
  EXPECT_EQ(lg.graph.count_edges(HetEdgeType::kLexNext), 0);
  EXPECT_GT(lg.graph.count_edges(HetEdgeType::kAstChild), 0);
}

TEST(AugAst, CallEdgesMergeCalleeBody) {
  auto parsed = parse_translation_unit(
      "float square(int x) {\n"
      "  int k = 0;\n"
      "  while (k < 5000) k++;\n"
      "  return sqrt(x);\n"
      "}\n"
      "void kernel(float* v, int size) {\n"
      "  for (int i = 0; i < size; i++) v[i] = square(v[i]);\n"
      "}\n");
  const auto* kernel = parsed.tu->find_function("kernel");
  ASSERT_NE(kernel, nullptr);
  const auto loops = collect_kind(*kernel->body, NodeKind::kForStmt);
  ASSERT_EQ(loops.size(), 1u);
  const auto& loop = static_cast<const Stmt&>(*loops[0]);

  std::unordered_map<std::string, int> counts;
  collect_text_attributes(*parsed.tu, counts);
  const auto vocab = Vocab::build(counts);

  // Without TU context: no callee body merged.
  const auto without = AugAstBuilder(vocab).build(loop);
  EXPECT_EQ(without.num_callee_nodes, 0);

  // With TU: the body of square() is merged and linked from the call site.
  const auto with = AugAstBuilder(vocab).build(loop, parsed.tu);
  EXPECT_GT(with.num_callee_nodes, 5);
  EXPECT_TRUE(with.graph.valid());
  EXPECT_GT(with.graph.num_nodes(), without.graph.num_nodes());
}

TEST(AugAst, CallEdgesHandleRecursionWithoutLooping) {
  auto parsed = parse_translation_unit(
      "int fib(int n) {\n"
      "  if (n < 2) return n;\n"
      "  return fib(n - 1) + fib(n - 2);\n"
      "}\n"
      "void driver(int* out, int n) {\n"
      "  for (int i = 0; i < n; i++) out[i] = fib(i);\n"
      "}\n");
  const auto* driver = parsed.tu->find_function("driver");
  const auto loops = collect_kind(*driver->body, NodeKind::kForStmt);
  const auto& loop = static_cast<const Stmt&>(*loops[0]);
  std::unordered_map<std::string, int> counts;
  collect_text_attributes(*parsed.tu, counts);
  const auto vocab = Vocab::build(counts);
  const auto lg = AugAstBuilder(vocab).build(loop, parsed.tu);
  // fib body merged once, even though fib calls itself.
  EXPECT_GT(lg.num_callee_nodes, 0);
  EXPECT_TRUE(lg.graph.valid());
}

TEST(AugAst, ExternalCalleeIgnored) {
  auto loop = parse_statement("for (i = 0; i < n; i++) e += fabs(a[i]);");
  const auto vocab = test_vocab(*loop);
  auto parsed = parse_translation_unit("int unused;\n");
  const auto lg = AugAstBuilder(vocab).build(*loop, parsed.tu);
  EXPECT_EQ(lg.num_callee_nodes, 0);  // fabs is a builtin, no body to merge
}

TEST(AugAst, PositionAttributeReflectsChildOrder) {
  auto e = parse_expression("a - b");
  const auto vocab = test_vocab(*e);
  const auto lg = AugAstBuilder(vocab).build(
      *parse_statement("x = a - b;"));
  // Find the VarRef nodes of a and b by their text attribute: positions
  // must differ (0 vs 1).
  int pos_a = -1, pos_b = -1;
  for (const auto& node : lg.graph.nodes) {
    if (node.type != HetNodeType::kVarRef) continue;
    if (node.token_id == vocab.id("a")) pos_a = node.position;
    if (node.token_id == vocab.id("b")) pos_b = node.position;
  }
  EXPECT_EQ(pos_a, 0);
  EXPECT_EQ(pos_b, 1);
}

TEST(AugAst, TokenIdsUseVocab) {
  auto loop = parse_statement("for (i = 0; i < n; i++) total += a[i];");
  const auto vocab = test_vocab(*loop);
  const auto lg = AugAstBuilder(vocab).build(*loop);
  bool found_total = false;
  for (const auto& node : lg.graph.nodes) {
    if (node.token_id == vocab.id("total")) found_total = true;
  }
  EXPECT_TRUE(found_total);
  EXPECT_NE(vocab.id("total"), Vocab::kUnk);
}

TEST(AugAst, PaperListingOneGraphShape) {
  // Listing 1: the motivating reduction + function-call loop.
  auto loop = parse_statement(
      "for (i = 0; i < 30000000; i++)\n"
      "  error = error + fabs(a[i] - a[i + 1]);");
  const auto vocab = test_vocab(*loop);
  const auto lg = AugAstBuilder(vocab).build(*loop);
  EXPECT_TRUE(lg.graph.valid());
  EXPECT_GT(lg.graph.num_nodes(), 15);
  EXPECT_GT(lg.graph.count_edges(HetEdgeType::kLexNext), 5);
  EXPECT_GT(lg.graph.count_edges(HetEdgeType::kCfgNext), 2);
}

}  // namespace
}  // namespace g2p
