// Fused HGT inference kernel vs the taped reference implementation.
//
// The fused path (HgtLayer::forward_fused) must agree with the reference
// (HgtLayer::forward_reference) within 1e-5 relative tolerance on any graph:
// the two compute the same formulas with different op fusion, so only float
// rounding may differ. Also covered: the fused weight cache noticing
// parameter mutation (optimizer step, checkpoint load), and scalar vs SIMD
// backend dispatch agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>

#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "support/rng.h"
#include "support/thread_pool.h"
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
  // No edges: both paths degenerate to the residual.
  HetGraph isolated;
  isolated.add_node(HetNodeType::kLoop, 0, 0);
  const Tensor x = Tensor::randn({1, 16}, rng, 1.0f);
  {
    const NoGradGuard no_grad;
    const Tensor out = layer.forward_fused(x, HetGraphIndex(isolated));
    for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(out.data()[i], x.data()[i]);
  }
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
  Sgd opt(layer.parameters(), 0.05f);
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

TEST(HgtFused, FusedProjectionsMatchPerTypeLinears) {
  // The fused path computes K/Q/V as one wide [rows, dim] x [dim, 3*dim]
  // GEMM per node type (and A as a cached-operand GEMM over the activated
  // aggregate); the reference path runs the four taped per-type Linears.
  // Same math, different fusion — they must agree to float rounding, with
  // and without a worker pool fanning the GEMM into row panels.
  Rng rng(4242);
  auto pool = std::make_shared<ThreadPool>(3);
  for (const int heads : {2, 4}) {
    const int dim = 32;  // the serving shape's wide GEMM is [N, 32] x [32, 96]
    HgtLayer layer(dim, heads, rng);
    const HetGraph g = random_graph(rng, 200, 700,
                                    {HetEdgeType::kAstChild, HetEdgeType::kAstParent,
                                     HetEdgeType::kCfgNext, HetEdgeType::kLexNext});
    const HetGraphIndex index(g);
    const Tensor x = Tensor::randn({200, dim}, rng, 0.7f);
    expect_fused_matches_reference(layer, x, index, "fused projections, no pool");
    const NoGradGuard no_grad;
    const Tensor single = layer.forward_fused(x, index);
    layer.set_thread_pool(pool);
    const Tensor pooled = layer.forward_fused(x, index);
    // Row panels change no element's reduction order: bitwise equal.
    for (std::size_t i = 0; i < single.numel(); ++i) {
      ASSERT_EQ(pooled.data()[i], single.data()[i]) << "heads " << heads;
    }
    expect_fused_matches_reference(layer, x, index, "fused projections, pooled");
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

// ---------------------------------------------------------------------------
// Int8 serving path
// ---------------------------------------------------------------------------

/// Int8-vs-fp32 drift is quantization noise, not float rounding: 7-bit
/// activations and 8-bit weights through a dim-32 contraction, then through
/// softmax/GELU nonlinearities. The serving accuracy gate is suggestion-level
/// agreement (bench/hgt_kernel.cpp); this bound just pins the layer output to
/// the same ballpark so a broken dequant (wrong scale, stale repack, zcomp
/// sign) fails loudly rather than as a subtle accuracy regression.
constexpr double kInt8Tol = 0.08;

TEST(HgtFused, Int8MatchesFp32WithinQuantizationNoise) {
  if (std::getenv("G2P_PRECISION") != nullptr) {
    GTEST_SKIP() << "precision pinned by G2P_PRECISION; the engagement check "
                    "below needs the configured precision to win";
  }
  Rng rng(909);
  HgtLayer layer(32, 4, rng);
  const HetGraph g = random_graph(rng, 60, 220,
                                  {HetEdgeType::kAstChild, HetEdgeType::kAstParent,
                                   HetEdgeType::kCfgNext, HetEdgeType::kLexNext});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({60, 32}, rng, 0.5f);

  const NoGradGuard no_grad;
  const Tensor fp32 = layer.forward_fused(x, index);
  layer.set_precision(Precision::kInt8);
  const Tensor int8 = layer.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(fp32, int8), kInt8Tol) << "int8 drifted past quantization noise";
  EXPECT_GT(max_rel_diff(fp32, int8), 0.0) << "int8 path identical to fp32 — not quantizing?";

  // Flipping back re-serves the fp32 repack from the same cache generation.
  layer.set_precision(Precision::kFp32);
  const Tensor fp32_again = layer.forward_fused(x, index);
  for (std::size_t i = 0; i < fp32.numel(); ++i) {
    ASSERT_EQ(fp32_again.data()[i], fp32.data()[i]);
  }
}

TEST(HgtFused, Int8RepacksInvalidatedByOptimizerStep) {
  Rng rng(910);
  HgtLayer layer(16, 2, rng);
  layer.set_precision(Precision::kInt8);
  const HetGraph g = random_graph(rng, 20, 60,
                                  {HetEdgeType::kAstChild, HetEdgeType::kCfgNext});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({20, 16}, rng, 0.7f);

  Tensor before;
  {
    const NoGradGuard no_grad;
    before = layer.forward_fused(x, index);  // builds fp32 + int8 repacks
  }
  Sgd opt(layer.parameters(), 0.05f);
  opt.zero_grad();
  sum_all(layer.forward_reference(x, index)).backward();
  opt.step();

  const NoGradGuard no_grad;
  const Tensor ref = layer.forward_reference(x, index);
  const Tensor int8 = layer.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(ref, int8), kInt8Tol)
      << "int8 repack served stale weights after optimizer step";
  EXPECT_GT(max_rel_diff(before, int8), 1e-4) << "step had no observable effect";
}

TEST(HgtFused, Int8RepacksInvalidatedByCheckpointLoad) {
  Rng rng_a(1), rng_b(999);
  HgtLayer source(16, 2, rng_a);
  HgtLayer target(16, 2, rng_b);
  target.set_precision(Precision::kInt8);
  const HetGraph g = random_graph(rng_a, 15, 40, {HetEdgeType::kAstChild});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({15, 16}, rng_a, 0.6f);

  Tensor stale;
  {
    const NoGradGuard no_grad;
    stale = target.forward_fused(x, index);  // builds target's repacks pre-load
  }
  std::stringstream checkpoint;
  source.save(checkpoint);
  target.load(checkpoint);

  const NoGradGuard no_grad;
  const Tensor int8 = target.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(source.forward_reference(x, index), int8), kInt8Tol)
      << "int8 repack served stale weights after checkpoint load";
  EXPECT_GT(max_rel_diff(stale, int8), 1e-4) << "load had no observable effect";
}

TEST(HgtFused, Int8RepacksInvalidatedByDirectPoke) {
  Rng rng(911);
  HgtLayer layer(16, 2, rng);
  layer.set_precision(Precision::kInt8);
  const HetGraph g = random_graph(rng, 25, 80,
                                  {HetEdgeType::kAstChild, HetEdgeType::kCfgPrev});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({25, 16}, rng, 0.6f);

  Tensor before;
  {
    const NoGradGuard no_grad;
    before = layer.forward_fused(x, index);
  }
  Tensor first = layer.parameters().front();  // a K projection weight
  for (auto& v : first.data()) v += 0.25f;

  const NoGradGuard no_grad;
  const Tensor ref = layer.forward_reference(x, index);
  const Tensor int8 = layer.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(ref, int8), kInt8Tol)
      << "int8 repack served stale weights after direct poke";
  EXPECT_GT(max_rel_diff(before, int8), 1e-4) << "poke had no observable effect";
}

TEST(HgtFused, PrecisionEnvOverridesConfigured) {
  // G2P_PRECISION is read once (static); this test only checks the resolver's
  // pass-through default — the env-forced paths are covered by the CI jobs
  // that run the whole suite under G2P_PRECISION=fp32/int8.
  if (std::getenv("G2P_PRECISION") == nullptr) {
    EXPECT_EQ(resolve_precision(Precision::kFp32), Precision::kFp32);
    EXPECT_EQ(resolve_precision(Precision::kInt8), Precision::kInt8);
  }
  EXPECT_STREQ(precision_name(Precision::kFp32), "fp32");
  EXPECT_STREQ(precision_name(Precision::kInt8), "int8");
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

  // Whatever dispatch picks for this machine (avx2 / neon / scalar again).
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
