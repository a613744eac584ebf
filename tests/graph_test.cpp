#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "graph/cfg.h"
#include "graph/hetgraph.h"
#include "graph/hetgraph_index.h"
#include "graph/vocab.h"

namespace g2p {
namespace {

// ---- HetGraph ---------------------------------------------------------------

TEST(HetGraph, AddNodesAndEdges) {
  HetGraph g;
  const int a = g.add_node(HetNodeType::kLoop, 1, 0);
  const int b = g.add_node(HetNodeType::kVarRef, 2, 1);
  g.add_edge(a, b, HetEdgeType::kAstChild);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.valid());
}

TEST(HetGraph, EdgePairAddsBothDirections) {
  HetGraph g;
  const int a = g.add_node(HetNodeType::kLoop, 0, 0);
  const int b = g.add_node(HetNodeType::kLiteral, 0, 0);
  g.add_edge_pair(a, b, HetEdgeType::kAstChild, HetEdgeType::kAstParent);
  EXPECT_EQ(g.count_edges(HetEdgeType::kAstChild), 1);
  EXPECT_EQ(g.count_edges(HetEdgeType::kAstParent), 1);
  EXPECT_EQ(g.edges[1].src, b);
  EXPECT_EQ(g.edges[1].dst, a);
}

TEST(HetGraph, ValidRejectsOutOfRange) {
  HetGraph g;
  g.add_node(HetNodeType::kLoop, 0, 0);
  g.add_edge(0, 5, HetEdgeType::kCfgNext);
  EXPECT_FALSE(g.valid());
}

TEST(HetGraph, BatchGraphsOffsetsIndices) {
  HetGraph a;
  a.add_node(HetNodeType::kLoop, 1, 0);
  a.add_node(HetNodeType::kVarRef, 2, 0);
  a.add_edge(0, 1, HetEdgeType::kAstChild);
  HetGraph b;
  b.add_node(HetNodeType::kCall, 3, 0);
  b.add_node(HetNodeType::kLiteral, 4, 0);
  b.add_edge(1, 0, HetEdgeType::kLexNext);

  const auto batch = batch_graphs({&a, &b});
  EXPECT_EQ(batch.num_graphs, 2);
  EXPECT_EQ(batch.merged.num_nodes(), 4);
  EXPECT_EQ(batch.merged.num_edges(), 2);
  EXPECT_EQ(batch.merged.edges[1].src, 3);
  EXPECT_EQ(batch.merged.edges[1].dst, 2);
  EXPECT_EQ(batch.segment_of_node, (std::vector<int>{0, 0, 1, 1}));
  EXPECT_TRUE(batch.merged.valid());
}

TEST(HetGraph, IndexPerDestinationWalk) {
  // Each slice must list exactly its edges sorted by destination, in
  // insertion order per destination, and entry p of a slice must line up
  // with entry concat_offset + p of the type-major dst_concat/meta_concat
  // order (the contract the fused HGT kernel builds on). All nodes share
  // one type, so positions are node ids.
  g2p::HetGraph g;
  for (int i = 0; i < 5; ++i) g.add_node(g2p::HetNodeType::kBinaryOp, 0, 0);
  g.add_edge(0, 1, g2p::HetEdgeType::kAstChild);
  g.add_edge(2, 1, g2p::HetEdgeType::kAstChild);
  g.add_edge(3, 1, g2p::HetEdgeType::kCfgNext);
  g.add_edge(1, 4, g2p::HetEdgeType::kAstChild);
  const g2p::HetGraphIndex index(g);

  int walked = 0;
  std::vector<int> in_degree(static_cast<std::size_t>(index.num_nodes), 0);
  for (const auto& slice : index.per_edge_type) {
    for (int p = 0; p < slice.size(); ++p) {
      const auto at = static_cast<std::size_t>(p);
      if (p > 0) {
        EXPECT_LE(slice.dst[at - 1], slice.dst[at]);
      }
      EXPECT_EQ(index.dst_concat[static_cast<std::size_t>(slice.concat_offset + p)],
                slice.dst[at]);
      ++in_degree[static_cast<std::size_t>(slice.dst[at])];
      ++walked;
    }
  }
  EXPECT_EQ(walked, index.num_edges);
  EXPECT_EQ(in_degree, (std::vector<int>{0, 3, 0, 0, 1}));

  // Insertion order within node 1's kAstChild run: sources 0 then 2.
  const auto& ast = index.per_edge_type[static_cast<std::size_t>(g2p::HetEdgeType::kAstChild)];
  EXPECT_EQ(ast.dst, (std::vector<int>{1, 1, 4}));
  EXPECT_EQ(ast.src, (std::vector<int>{0, 2, 1}));
}

TEST(HetGraph, TypeNamesAreDistinct) {
  EXPECT_NE(het_node_type_name(HetNodeType::kLoop), het_node_type_name(HetNodeType::kCall));
  EXPECT_NE(het_edge_type_name(HetEdgeType::kAstChild),
            het_edge_type_name(HetEdgeType::kLexNext));
}

// ---- Vocab --------------------------------------------------------------------

TEST(Vocab, SpecialsReserved) {
  Vocab v;
  EXPECT_EQ(v.id("<unk>"), Vocab::kUnk);
  EXPECT_EQ(v.id("<pad>"), Vocab::kPad);
  EXPECT_EQ(v.id("<cls>"), Vocab::kCls);
  EXPECT_EQ(v.size(), 3);
}

TEST(Vocab, AddAndLookup) {
  Vocab v;
  const int id1 = v.add("for");
  EXPECT_EQ(v.add("for"), id1);
  EXPECT_EQ(v.id("for"), id1);
  EXPECT_EQ(v.id("never-seen"), Vocab::kUnk);
  EXPECT_EQ(v.token(id1), "for");
}

TEST(Vocab, BuildByFrequency) {
  std::unordered_map<std::string, int> counts = {
      {"common", 100}, {"mid", 10}, {"rare", 1}};
  const auto v = Vocab::build(counts, /*min_freq=*/2);
  EXPECT_NE(v.id("common"), Vocab::kUnk);
  EXPECT_NE(v.id("mid"), Vocab::kUnk);
  EXPECT_EQ(v.id("rare"), Vocab::kUnk);
  // Most frequent token gets the first non-special slot.
  EXPECT_EQ(v.id("common"), 3);
}

TEST(Vocab, BuildRespectsMaxSize) {
  std::unordered_map<std::string, int> counts;
  for (int i = 0; i < 100; ++i) counts["tok" + std::to_string(i)] = i + 1;
  const auto v = Vocab::build(counts, 1, /*max_size=*/10);
  EXPECT_EQ(v.size(), 10);
  EXPECT_NE(v.id("tok99"), Vocab::kUnk);
}

TEST(Vocab, SerializeRoundTrip) {
  Vocab v;
  v.add("alpha");
  v.add("+=");
  const auto text = v.serialize();
  const auto w = Vocab::deserialize(text);
  EXPECT_EQ(w.size(), v.size());
  EXPECT_EQ(w.id("alpha"), v.id("alpha"));
  EXPECT_EQ(w.id("+="), v.id("+="));
  EXPECT_EQ(w.id("<unk>"), Vocab::kUnk);
}

// ---- CFG ------------------------------------------------------------------------

const Stmt& as_stmt(const ParsedStmt& p) { return *p; }

TEST(Cfg, StraightLineSequence) {
  auto s = parse_statement("{ a = 1; b = 2; c = 3; }");
  const auto cfg = build_cfg(as_stmt(s));
  ASSERT_EQ(cfg.nodes.size(), 3u);
  ASSERT_EQ(cfg.edges.size(), 2u);
  EXPECT_TRUE(cfg.has_edge(cfg.nodes[0], cfg.nodes[1]));
  EXPECT_TRUE(cfg.has_edge(cfg.nodes[1], cfg.nodes[2]));
}

TEST(Cfg, IfWithoutElseFallsThrough) {
  auto s = parse_statement("{ if (x > 0) y = 1; z = 2; }");
  const auto cfg = build_cfg(as_stmt(s));
  // Nodes: cond, then-stmt, z-stmt.
  ASSERT_EQ(cfg.nodes.size(), 3u);
  const Node* cond = cfg.nodes[0];
  const Node* then_stmt = cfg.nodes[1];
  const Node* after = cfg.nodes[2];
  EXPECT_TRUE(cfg.has_edge(cond, then_stmt));
  EXPECT_TRUE(cfg.has_edge(then_stmt, after));
  EXPECT_TRUE(cfg.has_edge(cond, after));  // false path
}

TEST(Cfg, IfElseBothBranches) {
  auto s = parse_statement("{ if (x) a = 1; else b = 2; c = 3; }");
  const auto cfg = build_cfg(as_stmt(s));
  ASSERT_EQ(cfg.nodes.size(), 4u);
  const Node* cond = cfg.nodes[0];
  EXPECT_TRUE(cfg.has_edge(cond, cfg.nodes[1]));
  EXPECT_TRUE(cfg.has_edge(cond, cfg.nodes[2]));
  EXPECT_TRUE(cfg.has_edge(cfg.nodes[1], cfg.nodes[3]));
  EXPECT_TRUE(cfg.has_edge(cfg.nodes[2], cfg.nodes[3]));
  EXPECT_FALSE(cfg.has_edge(cond, cfg.nodes[3]));  // no fall-through with else
}

TEST(Cfg, ForLoopBackEdgeThroughIncrement) {
  auto s = parse_statement("for (i = 0; i < n; i++) sum += a[i];");
  const auto cfg = build_cfg(as_stmt(s));
  // Nodes: init, cond, inc, body.
  ASSERT_EQ(cfg.nodes.size(), 4u);
  const Node* init = cfg.nodes[0];
  const Node* cond = cfg.nodes[1];
  const Node* inc = cfg.nodes[2];
  const Node* body = cfg.nodes[3];
  EXPECT_TRUE(cfg.has_edge(init, cond));
  EXPECT_TRUE(cfg.has_edge(cond, body));
  EXPECT_TRUE(cfg.has_edge(body, inc));
  EXPECT_TRUE(cfg.has_edge(inc, cond));  // back edge
}

TEST(Cfg, WhileLoopBackEdge) {
  auto s = parse_statement("while (k < 5000) k++;");
  const auto cfg = build_cfg(as_stmt(s));
  ASSERT_EQ(cfg.nodes.size(), 2u);
  EXPECT_TRUE(cfg.has_edge(cfg.nodes[0], cfg.nodes[1]));
  EXPECT_TRUE(cfg.has_edge(cfg.nodes[1], cfg.nodes[0]));
}

TEST(Cfg, DoWhileBodyFirst) {
  auto s = parse_statement("do { x--; } while (x > 0);");
  const auto cfg = build_cfg(as_stmt(s));
  ASSERT_EQ(cfg.nodes.size(), 2u);
  const Node* cond = cfg.nodes[0];
  const Node* body = cfg.nodes[1];
  EXPECT_TRUE(cfg.has_edge(body, cond));
  EXPECT_TRUE(cfg.has_edge(cond, body));
}

TEST(Cfg, BreakJumpsPastLoop) {
  auto s = parse_statement("{ while (1) { if (x) break; y++; } z = 1; }");
  const auto cfg = build_cfg(as_stmt(s));
  // Find the break node and the trailing statement.
  const Node* brk = nullptr;
  const Node* after = nullptr;
  for (const Node* n : cfg.nodes) {
    if (n->kind() == NodeKind::kBreakStmt) brk = n;
  }
  after = cfg.nodes.back();
  ASSERT_NE(brk, nullptr);
  EXPECT_TRUE(cfg.has_edge(brk, after));
}

TEST(Cfg, ContinueJumpsToIncrement) {
  auto s = parse_statement("for (i = 0; i < n; i++) { if (a[i]) continue; b++; }");
  const auto cfg = build_cfg(as_stmt(s));
  const Node* cont = nullptr;
  const Node* inc = nullptr;
  for (const Node* n : cfg.nodes) {
    if (n->kind() == NodeKind::kContinueStmt) cont = n;
    if (n->kind() == NodeKind::kUnaryOperator) inc = n;  // i++ header node
  }
  ASSERT_NE(cont, nullptr);
  ASSERT_NE(inc, nullptr);
  EXPECT_TRUE(cfg.has_edge(cont, inc));
}

TEST(Cfg, NestedLoopsHaveTwoBackEdges) {
  auto s = parse_statement(
      "for (i = 0; i < 4; i++)\n"
      "  for (j = 0; j < 5; j++)\n"
      "    l++;");
  const auto cfg = build_cfg(as_stmt(s));
  int back_edges = 0;
  // A back edge in this structured CFG targets a loop condition node from
  // an increment node.
  for (const auto& [src, dst] : cfg.edges) {
    if (src->kind() == NodeKind::kUnaryOperator &&
        dst->kind() == NodeKind::kBinaryOperator) {
      ++back_edges;
    }
  }
  EXPECT_GE(back_edges, 2);
}

TEST(Cfg, ForWithoutCondition) {
  auto s = parse_statement("for (i = 0;; i++) { if (i > 3) break; }");
  const auto cfg = build_cfg(as_stmt(s));
  EXPECT_GE(cfg.nodes.size(), 3u);
  // Increment links back to the body entry (the if condition).
  const Node* inc = nullptr;
  for (const Node* n : cfg.nodes) {
    if (n->kind() == NodeKind::kUnaryOperator) inc = n;
  }
  ASSERT_NE(inc, nullptr);
  bool inc_has_successor = false;
  for (const auto& [src, dst] : cfg.edges) {
    if (src == inc) inc_has_successor = true;
  }
  EXPECT_TRUE(inc_has_successor);
}

TEST(Cfg, ReturnHasNoSuccessor) {
  auto s = parse_statement("{ if (x) return; y = 1; }");
  const auto cfg = build_cfg(as_stmt(s));
  const Node* ret = nullptr;
  for (const Node* n : cfg.nodes) {
    if (n->kind() == NodeKind::kReturnStmt) ret = n;
  }
  ASSERT_NE(ret, nullptr);
  for (const auto& [src, dst] : cfg.edges) EXPECT_NE(src, ret);
}

}  // namespace
}  // namespace g2p
