#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "nn/hgt.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "support/rng.h"
#include "tensor/optim.h"

namespace g2p {
namespace {

TEST(Linear, ShapesAndBias) {
  Rng rng(1);
  Linear lin(4, 3, rng);
  auto x = Tensor::randn({5, 4}, rng);
  auto y = lin.forward(x);
  EXPECT_EQ(y.shape(), (Shape{5, 3}));
  EXPECT_EQ(lin.parameters().size(), 2u);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(1);
  Linear lin(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
}

TEST(Linear, LearnsIdentityMap) {
  Rng rng(2);
  Linear lin(2, 2, rng);
  Adam opt(lin.parameters(), 0.05f);
  // Fit y = x on random data.
  for (int step = 0; step < 300; ++step) {
    auto x = Tensor::randn({8, 2}, rng);
    opt.zero_grad();
    auto diff = add(lin.forward(x), scale(x, -1.0f));
    scale(sum_all(mul(diff, diff)), 1.0f / static_cast<float>(diff.numel())).backward();
    opt.step();
  }
  auto x = Tensor::randn({4, 2}, rng);
  auto y = lin.forward(x);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(y.data()[i], x.data()[i], 0.15f);
  }
}

TEST(Embedding, LookupRows) {
  Rng rng(3);
  Embedding emb(10, 4, rng);
  const std::vector<int> ids = {7, 0, 7};
  auto y = emb.forward(ids);
  EXPECT_EQ(y.shape(), (Shape{3, 4}));
  for (int j = 0; j < 4; ++j) EXPECT_EQ(y.at({0, j}), y.at({2, j}));
}

TEST(LayerNormModule, NormalizesRows) {
  Rng rng(4);
  LayerNorm ln(6);
  auto x = Tensor::randn({3, 6}, rng, 5.0f);
  auto y = ln.forward(x);
  for (int i = 0; i < 3; ++i) {
    float mean = 0;
    for (int j = 0; j < 6; ++j) mean += y.at({i, j});
    EXPECT_NEAR(mean / 6.0f, 0.0f, 1e-4f);
  }
}

TEST(Module, SaveLoadRoundTrip) {
  Rng rng(5);
  Linear a(3, 3, rng), b(3, 3, rng);
  std::stringstream buf;
  a.save(buf);
  b.load(buf);
  auto x = Tensor::randn({2, 3}, rng);
  auto ya = a.forward(x);
  auto yb = b.forward(x);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(Module, LoadRejectsMismatchedModel) {
  Rng rng(6);
  Linear a(3, 3, rng);
  FeedForward ffn(4, 8, rng);
  std::stringstream buf;
  a.save(buf);
  EXPECT_THROW(ffn.load(buf), std::runtime_error);
}

TEST(Mha, OutputShapePreserved) {
  Rng rng(7);
  MultiHeadAttention mha(16, 4, rng);
  auto x = Tensor::randn({9, 16}, rng);
  auto y = mha.forward(x);
  EXPECT_EQ(y.shape(), (Shape{9, 16}));
}

TEST(Mha, RejectsIndivisibleHeads) {
  Rng rng(8);
  EXPECT_THROW(MultiHeadAttention(10, 3, rng), std::invalid_argument);
}

TEST(TransformerEncoder, EncodesVariableLengths) {
  Rng rng(9);
  TransformerEncoder::Config cfg;
  cfg.vocab_size = 50;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_hidden = 32;
  cfg.max_len = 32;
  TransformerEncoder enc(cfg, rng);
  const std::vector<int> short_seq = {3, 4, 5};
  std::vector<int> long_seq(100, 6);  // longer than max_len -> truncated
  EXPECT_EQ(enc.encode(short_seq).shape(), (Shape{1, 16}));
  EXPECT_EQ(enc.encode(long_seq).shape(), (Shape{1, 16}));
  EXPECT_EQ(enc.encode(std::vector<int>{}).shape(), (Shape{1, 16}));
}

TEST(TransformerEncoder, TrainsOnTokenOrderTask) {
  // Distinguish sequences by whether token 3 precedes token 4 — requires
  // positional information to be usable.
  Rng rng(10);
  TransformerEncoder::Config cfg;
  cfg.vocab_size = 8;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_hidden = 32;
  cfg.max_len = 8;
  TransformerEncoder enc(cfg, rng);
  Linear head(16, 2, rng);
  std::vector<Tensor> params = enc.parameters();
  for (const auto& p : head.parameters()) params.push_back(p);
  Adam opt(params, 1e-2f);

  const std::vector<std::vector<int>> pos = {{3, 5, 4}, {3, 4, 6}, {7, 3, 4}};
  const std::vector<std::vector<int>> negs = {{4, 5, 3}, {4, 3, 6}, {7, 4, 3}};
  for (int epoch = 0; epoch < 60; ++epoch) {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      for (int cls = 0; cls < 2; ++cls) {
        opt.zero_grad();
        const auto& seq = cls ? pos[i] : negs[i];
        auto logits = head.forward(enc.encode(seq));
        const std::vector<int> label = {cls};
        cross_entropy(logits, label).backward();
        opt.step();
      }
    }
  }
  int correct = 0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    correct += argmax_rows(head.forward(enc.encode(pos[i])))[0] == 1;
    correct += argmax_rows(head.forward(enc.encode(negs[i])))[0] == 0;
  }
  EXPECT_GE(correct, 5);
}

// ---- HGT ------------------------------------------------------------------------

HetGraph two_type_graph() {
  // 0 (Loop) -> 1,2 (VarRef) children; lexical chain 1->2.
  HetGraph g;
  g.add_node(HetNodeType::kLoop, 1, 0);
  g.add_node(HetNodeType::kVarRef, 2, 0);
  g.add_node(HetNodeType::kVarRef, 3, 1);
  g.add_edge_pair(0, 1, HetEdgeType::kAstChild, HetEdgeType::kAstParent);
  g.add_edge_pair(0, 2, HetEdgeType::kAstChild, HetEdgeType::kAstParent);
  g.add_edge_pair(1, 2, HetEdgeType::kLexNext, HetEdgeType::kLexPrev);
  return g;
}

TEST(Hgt, ForwardShapeAndFiniteness) {
  Rng rng(11);
  HgtLayer layer(8, 2, rng);
  const auto g = two_type_graph();
  auto x = Tensor::randn({3, 8}, rng);
  auto y = layer.forward(x, g);
  EXPECT_EQ(y.shape(), (Shape{3, 8}));
  for (float v : y.data()) EXPECT_TRUE(std::isfinite(v));
}

// A node with no incoming edges aggregates nothing, so its row is
// A(GELU(0)) + b_A + x = x + b_A exactly (GELU(0) = 0). Linear biases start
// at zero, so every bias is first set to its own non-zero values; the taped
// and the fused path must both add exactly the node type's A bias.
TEST(Hgt, EdgelessNodeIsResidualPlusABias) {
  Rng rng(12);
  HgtLayer layer(8, 2, rng);
  std::vector<Tensor> params = layer.parameters();
  for (std::size_t p = 0; p < params.size(); ++p) {
    if (params[p].shape().size() != 1) continue;
    auto& bias = params[p].data();
    for (std::size_t j = 0; j < bias.size(); ++j) bias[j] = 0.01f * static_cast<float>(p + j + 1);
  }
  // Parameters register per node type as K, Q, V, A, each weight then bias.
  const Tensor a_bias = params[8 * static_cast<std::size_t>(HetNodeType::kLoop) + 7];
  ASSERT_EQ(a_bias.shape(), (Shape{8}));
  HetGraph g;
  g.add_node(HetNodeType::kLoop, 0, 0);
  const auto x = Tensor::randn({1, 8}, rng);
  const auto expect_residual_plus_bias = [&](const Tensor& y) {
    for (std::size_t i = 0; i < x.numel(); ++i) {
      EXPECT_EQ(y.data()[i], x.data()[i] + a_bias.data()[i]) << "column " << i;
    }
  };
  expect_residual_plus_bias(layer.forward(x, g));
  NoGradGuard no_grad;
  expect_residual_plus_bias(layer.forward(x, g));
}

TEST(Hgt, GradientsFlowToAllParameterGroups) {
  Rng rng(13);
  HgtLayer layer(8, 2, rng);
  const auto g = two_type_graph();
  auto x = Tensor::randn({3, 8}, rng, 1.0f, true);
  auto y = layer.forward(x, g);
  sum_all(y).backward();
  // Input must receive gradient.
  float x_grad_norm = 0;
  for (float v : x.grad()) x_grad_norm += std::fabs(v);
  EXPECT_GT(x_grad_norm, 0.0f);
  // At least one parameter in each family must receive nonzero gradient.
  float total = 0;
  for (const auto& p : layer.parameters()) {
    if (p.grad().empty()) continue;
    for (float v : p.grad()) total += std::fabs(v);
  }
  EXPECT_GT(total, 0.0f);
}

TEST(Hgt, StateChangesWithConnectivity) {
  // The same features under different topology must produce different
  // outputs (the layer actually uses the edges).
  Rng rng(14);
  HgtLayer layer(8, 2, rng);
  auto x = Tensor::randn({3, 8}, rng);

  HetGraph chain;
  chain.add_node(HetNodeType::kLoop, 0, 0);
  chain.add_node(HetNodeType::kVarRef, 0, 0);
  chain.add_node(HetNodeType::kVarRef, 0, 0);
  chain.add_edge(0, 1, HetEdgeType::kAstChild);
  chain.add_edge(1, 2, HetEdgeType::kLexNext);

  HetGraph star;
  star.add_node(HetNodeType::kLoop, 0, 0);
  star.add_node(HetNodeType::kVarRef, 0, 0);
  star.add_node(HetNodeType::kVarRef, 0, 0);
  star.add_edge(0, 1, HetEdgeType::kAstChild);
  star.add_edge(0, 2, HetEdgeType::kAstChild);

  auto ya = layer.forward(x, chain);
  auto yb = layer.forward(x, star);
  float diff = 0;
  for (std::size_t i = 0; i < ya.numel(); ++i) diff += std::fabs(ya.data()[i] - yb.data()[i]);
  EXPECT_GT(diff, 1e-4f);
}

TEST(Hgt, EdgeTypeMattersForOutput) {
  // Same topology, different edge types -> different outputs (heterogeneous
  // W_ATT / W_MSG are per-edge-type).
  Rng rng(15);
  HgtLayer layer(8, 2, rng);
  auto x = Tensor::randn({2, 8}, rng);
  HetGraph ast;
  ast.add_node(HetNodeType::kLoop, 0, 0);
  ast.add_node(HetNodeType::kVarRef, 0, 0);
  ast.add_edge(0, 1, HetEdgeType::kAstChild);
  HetGraph lex = ast;
  lex.edges[0].type = HetEdgeType::kLexNext;
  auto ya = layer.forward(x, ast);
  auto yb = layer.forward(x, lex);
  float diff = 0;
  for (std::size_t i = 0; i < ya.numel(); ++i) diff += std::fabs(ya.data()[i] - yb.data()[i]);
  EXPECT_GT(diff, 1e-4f);
}

TEST(HgtEncoder, StackedLayersRun) {
  Rng rng(16);
  HgtEncoder enc(8, 2, 3, rng);
  const auto g = two_type_graph();
  auto x = Tensor::randn({3, 8}, rng);
  auto y = enc.forward(x, g);
  EXPECT_EQ(y.shape(), (Shape{3, 8}));
  EXPECT_GT(enc.parameters().size(), 50u);
}

TEST(HgtEncoder, OverfitsTinyGraphClassification) {
  // Two 3-node graphs differing only in edge type; mean-pooled HGT output
  // must separate them. This is the end-to-end learnability smoke test.
  Rng rng(17);
  HgtEncoder enc(8, 2, 1, rng);
  Linear head(8, 2, rng);
  std::vector<Tensor> params = enc.parameters();
  for (const auto& p : head.parameters()) params.push_back(p);
  Adam opt(params, 2e-2f);

  HetGraph g_ast = two_type_graph();
  HetGraph g_cfg = two_type_graph();
  for (auto& e : g_cfg.edges) {
    if (e.type == HetEdgeType::kLexNext) e.type = HetEdgeType::kCfgNext;
    if (e.type == HetEdgeType::kLexPrev) e.type = HetEdgeType::kCfgPrev;
  }
  auto features = Tensor::randn({3, 8}, rng);
  const std::vector<int> seg = {0, 0, 0};

  for (int step = 0; step < 150; ++step) {
    for (int cls = 0; cls < 2; ++cls) {
      opt.zero_grad();
      const auto& g = cls ? g_cfg : g_ast;
      auto pooled = segment_mean_rows(enc.forward(features, g), seg, 1);
      const std::vector<int> label = {cls};
      cross_entropy(head.forward(pooled), label).backward();
      opt.step();
    }
  }
  auto pa = argmax_rows(head.forward(segment_mean_rows(enc.forward(features, g_ast), seg, 1)));
  auto pb = argmax_rows(head.forward(segment_mean_rows(enc.forward(features, g_cfg), seg, 1)));
  EXPECT_EQ(pa[0], 0);
  EXPECT_EQ(pb[0], 1);
}

}  // namespace
}  // namespace g2p
