// Fused HGT inference kernel vs the taped reference implementation.
//
// The fused path (HgtLayer::forward_fused) must agree with the reference
// (HgtLayer::forward_reference) within 1e-5 relative tolerance on any graph:
// the two compute the same formulas with different op fusion, so only float
// rounding may differ. Also covered: the fused weight cache noticing
// parameter mutation (optimizer step, checkpoint load), the LayerNorm row
// epilogue the encoder fuses into each layer, scalar vs SIMD backend
// dispatch agreement, and bitwise invariance of the encoder output under
// node relabelling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <string>

#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "support/rng.h"
#include "tensor/backend.h"
#include "tensor/ops.h"
#include "tensor/optim.h"

namespace g2p {
namespace {

constexpr double kTol = 1e-5;

/// Random heterogeneous graph over a subset of edge types — leaving types
/// out exercises the empty-edge-type-slice paths on both implementations.
HetGraph random_graph(Rng& rng, int nodes, int edges,
                      std::initializer_list<HetEdgeType> edge_types) {
  HetGraph g;
  for (int i = 0; i < nodes; ++i) {
    g.add_node(static_cast<HetNodeType>(static_cast<int>(rng.uniform_int(0, kNumHetNodeTypes - 1))), 0,
               static_cast<int>(rng.uniform_int(0, 3)));
  }
  std::vector<HetEdgeType> types(edge_types);
  for (int e = 0; e < edges && !types.empty(); ++e) {
    g.add_edge(static_cast<int>(rng.uniform_int(0, nodes - 1)), static_cast<int>(rng.uniform_int(0, nodes - 1)),
               types[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(types.size()) - 1))]);
  }
  return g;
}

double max_rel_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double av = a.data()[i], bv = b.data()[i];
    const double scale = std::max({1.0, std::fabs(av), std::fabs(bv)});
    worst = std::max(worst, std::fabs(av - bv) / scale);
  }
  return worst;
}

void expect_fused_matches_reference(const HgtLayer& layer, const Tensor& x,
                                    const HetGraphIndex& index, const char* what) {
  const NoGradGuard no_grad;
  const Tensor ref = layer.forward_reference(x, index);
  const Tensor fused = layer.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(ref, fused), kTol) << what;
}

TEST(HgtFused, RandomizedGraphsMatchReferenceAcrossHeads) {
  Rng rng(1234);
  struct Shape {
    int dim, heads;
  };
  // dim 16 with head_dim 16 / 8 / 4 hits every generic block width; dim 32
  // with 4 heads is the serving shape, with its own (h4d8) SIMD kernels. The
  // single-edge-type trials put at least N edges on one type.
  for (const Shape shape : {Shape{16, 1}, Shape{16, 2}, Shape{16, 4}, Shape{32, 4}}) {
    const int dim = shape.dim;
    HgtLayer layer(dim, shape.heads, rng);
    for (int trial = 0; trial < 6; ++trial) {
      const int nodes = 3 + static_cast<int>(rng.uniform_int(0, 39));
      const HetGraph g = random_graph(
          rng, nodes, nodes * (1 + static_cast<int>(rng.uniform_int(0, 3))),
          trial % 2 == 0
              ? std::initializer_list<HetEdgeType>{HetEdgeType::kAstChild,
                                                   HetEdgeType::kAstParent,
                                                   HetEdgeType::kCfgNext, HetEdgeType::kLexNext}
              : std::initializer_list<HetEdgeType>{HetEdgeType::kLexPrev});
      const HetGraphIndex index(g);
      const Tensor x = Tensor::randn({nodes, dim}, rng, 0.8f);
      expect_fused_matches_reference(layer, x, index, "randomized graph");
    }
  }
}

TEST(HgtFused, SingleNodeGraphs) {
  Rng rng(77);
  HgtLayer layer(16, 4, rng);
  // Biases start at zero; move every parameter so the A bias shows.
  for (Tensor p : layer.parameters()) {
    for (auto& v : p.data()) v += static_cast<float>(rng.uniform(-0.2, 0.2));
  }
  // No edges: the node aggregates nothing, and both paths still run the
  // A projection (A bias plus residual), as for an isolated node of a union
  // that has edges.
  HetGraph isolated;
  isolated.add_node(HetNodeType::kLoop, 0, 0);
  const Tensor x = Tensor::randn({1, 16}, rng, 1.0f);
  expect_fused_matches_reference(layer, x, HetGraphIndex(isolated), "isolated node");
  // Self-loop: a real softmax over exactly one edge.
  HetGraph self_loop = isolated;
  self_loop.add_edge(0, 0, HetEdgeType::kCfgNext);
  expect_fused_matches_reference(layer, x, HetGraphIndex(self_loop), "self loop");
}

TEST(HgtFused, EmptyGraph) {
  Rng rng(5);
  HgtLayer layer(16, 2, rng);
  const HetGraph empty;
  const Tensor x = Tensor::zeros({0, 16});
  const NoGradGuard no_grad;
  const Tensor out = layer.forward_fused(x, HetGraphIndex(empty));
  EXPECT_EQ(out.dim(0), 0);
  EXPECT_EQ(out.dim(1), 16);
}

TEST(HgtFused, NodesWithoutIncomingEdgesKeepResidualState) {
  Rng rng(42);
  HgtLayer layer(16, 2, rng);
  // Node 2 has no incoming edges; its h~ row is zero, so its output must be
  // a_lin(gelu(0)) + x — identical between the two paths.
  HetGraph g;
  for (int i = 0; i < 3; ++i) g.add_node(HetNodeType::kBinaryOp, 0, 0);
  g.add_edge(2, 0, HetEdgeType::kAstChild);
  g.add_edge(0, 1, HetEdgeType::kAstChild);
  const Tensor x = Tensor::randn({3, 16}, rng, 1.0f);
  expect_fused_matches_reference(layer, x, HetGraphIndex(g), "isolated-target node");
}

TEST(HgtFused, ForwardRoutesToFusedUnderNoGrad) {
  Rng rng(9);
  HgtLayer layer(16, 4, rng);
  const HetGraph g = random_graph(rng, 12, 30,
                                  {HetEdgeType::kAstChild, HetEdgeType::kAstParent});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({12, 16}, rng, 0.5f);
  {
    const NoGradGuard no_grad;
    const Tensor routed = layer.forward(x, index);
    const Tensor fused = layer.forward_fused(x, index);
    for (std::size_t i = 0; i < routed.numel(); ++i) {
      EXPECT_EQ(routed.data()[i], fused.data()[i]);
    }
  }
  // With grad enabled (training), forward is the taped reference.
  ASSERT_TRUE(grad_enabled());
  const Tensor taped = layer.forward(x, index);
  const Tensor ref = layer.forward_reference(x, index);
  for (std::size_t i = 0; i < taped.numel(); ++i) {
    EXPECT_EQ(taped.data()[i], ref.data()[i]);
  }
}

TEST(HgtFused, EncoderReferenceMatchesFusedOnBatchedGraph) {
  // HgtEncoder::forward_reference (taped layers + norms) is the oracle for
  // the encoder's fused forward — and the reference arm of bench_hgt_kernel.
  Rng rng(8080);
  HgtEncoder encoder(32, 4, 2, rng);
  const HetGraph a = random_graph(rng, 40, 90,
                                  {HetEdgeType::kAstChild, HetEdgeType::kAstParent,
                                   HetEdgeType::kCfgNext, HetEdgeType::kLexNext});
  const HetGraph b = random_graph(rng, 25, 60, {HetEdgeType::kLexPrev});
  const HetGraph empty;
  const HetGraph c = random_graph(rng, 7, 5, {HetEdgeType::kCfgPrev});
  const BatchedGraph batch = batch_graphs({&a, &b, &empty, &c});
  const Tensor x = Tensor::randn({batch.index.num_nodes, 32}, rng, 0.5f);
  const NoGradGuard no_grad;
  const Tensor fused = encoder.forward(x, batch.index);
  const Tensor ref = encoder.forward_reference(x, batch.index);
  EXPECT_LE(max_rel_diff(ref, fused), kTol);
}

TEST(HgtFused, OptimizerStepInvalidatesWeightCache) {
  Rng rng(2024);
  HgtLayer layer(16, 2, rng);
  const HetGraph g = random_graph(rng, 20, 60,
                                  {HetEdgeType::kAstChild, HetEdgeType::kCfgNext});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({20, 16}, rng, 0.7f);

  Tensor before;
  {
    const NoGradGuard no_grad;
    before = layer.forward_fused(x, index);  // builds the fused weight cache
  }

  // One taped training step mutates every parameter (incl. W_ATT / W_MSG).
  Adam opt(layer.parameters(), 0.05f);
  opt.zero_grad();
  sum_all(layer.forward_reference(x, index)).backward();
  opt.step();

  const NoGradGuard no_grad;
  const Tensor ref = layer.forward_reference(x, index);
  const Tensor fused = layer.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(ref, fused), kTol)
      << "fused cache served stale weights after optimizer step";
  EXPECT_GT(max_rel_diff(before, fused), 1e-4) << "step had no observable effect";
}

TEST(HgtFused, CheckpointLoadInvalidatesWeightCache) {
  Rng rng_a(1), rng_b(999);
  HgtLayer source(16, 2, rng_a);
  HgtLayer target(16, 2, rng_b);  // different init
  const HetGraph g = random_graph(rng_a, 15, 40, {HetEdgeType::kAstChild});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({15, 16}, rng_a, 0.6f);

  Tensor expected, stale;
  {
    const NoGradGuard no_grad;
    expected = source.forward_fused(x, index);
    stale = target.forward_fused(x, index);  // builds target's cache pre-load
  }

  std::stringstream checkpoint;
  source.save(checkpoint);
  target.load(checkpoint);

  const NoGradGuard no_grad;
  const Tensor fused = target.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(expected, fused), kTol)
      << "fused cache served stale weights after checkpoint load";
  EXPECT_LE(max_rel_diff(target.forward_reference(x, index), fused), kTol);
  EXPECT_GT(max_rel_diff(stale, fused), 1e-4) << "load had no observable effect";
}

TEST(HgtFused, EncoderOutputIsInvariantUnderNodeRelabelling) {
  // Node ids fix each node's position in the type-major order (and so its
  // row inside its type's projection call), but a position must never enter
  // a node's numerics: relabelling the nodes, with the edges remapped and
  // kept in insertion order, gives every node bitwise the same output row.
  // Serving shape; enough nodes per type for the projection kernel's full
  // row blocks and every remainder.
  Rng rng(2718);
  HgtEncoder encoder(32, 4, 2, rng);
  const int n = 400;
  const HetGraph g = random_graph(rng, n, 1400,
                                  {HetEdgeType::kAstChild, HetEdgeType::kAstParent,
                                   HetEdgeType::kCfgNext, HetEdgeType::kCfgPrev,
                                   HetEdgeType::kLexNext, HetEdgeType::kLexPrev});
  const Tensor x = Tensor::randn({n, 32}, rng, 0.5f);

  std::vector<int> new_id(static_cast<std::size_t>(n));
  std::iota(new_id.begin(), new_id.end(), 0);
  rng.shuffle(new_id);
  HetGraph relabelled;
  relabelled.nodes.resize(g.nodes.size());
  std::vector<float> moved(x.numel());
  for (int v = 0; v < n; ++v) {
    const auto to = static_cast<std::size_t>(new_id[static_cast<std::size_t>(v)]);
    relabelled.nodes[to] = g.nodes[static_cast<std::size_t>(v)];
    std::copy_n(x.data().begin() + static_cast<std::ptrdiff_t>(v) * 32, 32,
                moved.begin() + static_cast<std::ptrdiff_t>(to) * 32);
  }
  for (const auto& e : g.edges) {
    relabelled.add_edge(new_id[static_cast<std::size_t>(e.src)],
                        new_id[static_cast<std::size_t>(e.dst)], e.type);
  }
  const Tensor x_relabelled = Tensor::from_vector({n, 32}, std::move(moved));

  const NoGradGuard no_grad;
  const Tensor out = encoder.forward(x, HetGraphIndex(g));
  const Tensor out_relabelled = encoder.forward(x_relabelled, HetGraphIndex(relabelled));
  for (int v = 0; v < n; ++v) {
    const int w = new_id[static_cast<std::size_t>(v)];
    for (int d = 0; d < 32; ++d) {
      ASSERT_EQ(out.at({v, d}), out_relabelled.at({w, d})) << "node " << v << " dim " << d;
    }
  }
}

TEST(HgtFused, FusedProjectionsMatchPerTypeLinears) {
  // The fused path computes K/Q/V as one wide [rows, dim] x [dim, 3*dim]
  // projection per node type (and A as a cached-operand projection over
  // the activated aggregate) through the backend's packed-panel kernel; the
  // reference path runs the four taped per-type Linears. Same math,
  // different fusion — they must agree to float rounding.
  Rng rng(4242);
  for (const int heads : {2, 4}) {
    const int dim = 32;  // the serving shape's wide projection is [N, 32] x [32, 96]
    HgtLayer layer(dim, heads, rng);
    const HetGraph g = random_graph(rng, 200, 700,
                                    {HetEdgeType::kAstChild, HetEdgeType::kAstParent,
                                     HetEdgeType::kCfgNext, HetEdgeType::kLexNext});
    const HetGraphIndex index(g);
    const Tensor x = Tensor::randn({200, dim}, rng, 0.7f);
    expect_fused_matches_reference(layer, x, index, "fused projections");
  }
}

TEST(HgtFused, LayerNormEpilogueMatchesReferenceThenNorm) {
  // With a norm, the fused layer applies it in the A stage's row epilogue;
  // the oracle is the taped reference followed by the separate LayerNorm.
  // The norm's parameters are moved off their identity init so gamma and
  // beta both matter, and an edge-less graph is covered too. The layer's
  // parameters move as well, so its zero-initialized A bias shows.
  Rng rng(9001);
  for (const int dim : {16, 32}) {
    HgtLayer layer(dim, 4, rng);
    LayerNorm norm(dim);
    for (Tensor p : layer.parameters()) {
      for (auto& v : p.data()) v += static_cast<float>(rng.uniform(-0.2, 0.2));
    }
    for (Tensor p : norm.parameters()) {
      for (auto& v : p.data()) v += static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    const HetGraph g = random_graph(rng, 150, 500,
                                    {HetEdgeType::kAstChild, HetEdgeType::kAstParent,
                                     HetEdgeType::kCfgNext, HetEdgeType::kLexPrev});
    const HetGraph edgeless = random_graph(rng, 9, 0, {});
    for (const HetGraph* graph : {&g, &edgeless}) {
      const HetGraphIndex index(*graph);
      const Tensor x = Tensor::randn({index.num_nodes, dim}, rng, 0.6f);
      const NoGradGuard no_grad;
      const Tensor want = norm.forward(layer.forward_reference(x, index));
      const Tensor got = layer.forward_fused(x, index, &norm);
      EXPECT_LE(max_rel_diff(want, got), kTol) << "dim " << dim << " nodes " << index.num_nodes;
    }
  }
}

TEST(HgtFused, DirectProjectionWeightPokeInvalidatesCache) {
  // The repack now also covers the K/Q/V/A Linears: mutating one of their
  // parameters directly (what a checkpoint load or a test poke does) must
  // rebuild the fused projection operands.
  Rng rng(555);
  HgtLayer layer(16, 2, rng);
  const HetGraph g = random_graph(rng, 25, 80, {HetEdgeType::kAstChild, HetEdgeType::kCfgPrev});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({25, 16}, rng, 0.6f);

  Tensor before;
  {
    const NoGradGuard no_grad;
    before = layer.forward_fused(x, index);  // builds the projection repack
  }
  // parameters() order starts with the per-type K/Q/V/A Linears; poke the
  // first weight (a K projection) through the mutation-counting accessor.
  Tensor first = layer.parameters().front();
  for (auto& v : first.data()) v += 0.25f;

  const NoGradGuard no_grad;
  const Tensor ref = layer.forward_reference(x, index);
  const Tensor fused = layer.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(ref, fused), kTol)
      << "fused projection cache served stale K weights after direct poke";
  EXPECT_GT(max_rel_diff(before, fused), 1e-4) << "poke had no observable effect";
}

TEST(HgtFused, ScalarAndDispatchedBackendsAgree) {
  Rng rng(31337);
  HgtLayer layer(32, 4, rng);  // the serving shape: dim 32, head_dim 8
  const HetGraph g = random_graph(rng, 30, 120,
                                  {HetEdgeType::kAstChild, HetEdgeType::kAstParent,
                                   HetEdgeType::kCfgNext, HetEdgeType::kCfgPrev,
                                   HetEdgeType::kLexNext, HetEdgeType::kLexPrev});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({30, 32}, rng, 0.5f);

  // Restore whatever the suite ran under when done — CI forces the scalar
  // table via G2P_BACKEND, and later tests must keep seeing it.
  const std::string entry_backend = backend::active_name();

  ASSERT_TRUE(backend::set_active("scalar"));
  Tensor scalar_fused, scalar_ref;
  {
    const NoGradGuard no_grad;
    scalar_ref = layer.forward_reference(x, index);
    scalar_fused = layer.forward_fused(x, index);
  }
  EXPECT_LE(max_rel_diff(scalar_ref, scalar_fused), kTol) << "scalar backend";

  // Whatever dispatch picks for this machine (avx2, or scalar again).
  ASSERT_TRUE(backend::set_active("auto"));
  {
    const NoGradGuard no_grad;
    const Tensor auto_fused = layer.forward_fused(x, index);
    const Tensor auto_ref = layer.forward_reference(x, index);
    EXPECT_LE(max_rel_diff(auto_ref, auto_fused), kTol)
        << "dispatched backend " << backend::active_name();
    EXPECT_LE(max_rel_diff(scalar_fused, auto_fused), kTol)
        << "scalar vs " << backend::active_name();
  }
  ASSERT_TRUE(backend::set_active(entry_backend));
}

}  // namespace
}  // namespace g2p
