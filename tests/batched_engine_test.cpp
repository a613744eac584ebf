// Tests for the batched graph engine: CSR indexing, disjoint-union batching
// with empty graphs, batched-vs-sequential forward parity, the worker pool,
// and the parallel suggest pipeline (including in-batch dedup and clones).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "support/failpoint.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "tensor/ops.h"
#include "testing_env.h"

namespace g2p {
namespace {

/// One small trained pipeline shared by the pipeline tests that only read
/// it (or work on clones of it).
const Pipeline& trained_pipeline() {
  static const Pipeline pipeline = [] {
    Pipeline::Options options;
    options.corpus.scale = 0.01;
    options.train.epochs = 1;
    return Pipeline::train(options);
  }();
  return pipeline;
}

/// Field-by-field equality, confidences compared bit for bit.
void expect_bitwise(const std::vector<LoopSuggestion>& got,
                    const std::vector<LoopSuggestion>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].loop_source, want[i].loop_source) << what << " loop " << i;
    EXPECT_EQ(got[i].line, want[i].line) << what << " loop " << i;
    EXPECT_EQ(got[i].function_name, want[i].function_name) << what << " loop " << i;
    EXPECT_EQ(got[i].parallel, want[i].parallel) << what << " loop " << i;
    EXPECT_EQ(std::memcmp(&got[i].confidence, &want[i].confidence, sizeof(double)), 0)
        << what << " loop " << i;
    EXPECT_EQ(got[i].category, want[i].category) << what << " loop " << i;
    EXPECT_EQ(got[i].suggested_pragma, want[i].suggested_pragma) << what << " loop " << i;
    EXPECT_EQ(got[i].verdict, want[i].verdict) << what << " loop " << i;
    EXPECT_EQ(got[i].veto_reason, want[i].veto_reason) << what << " loop " << i;
    EXPECT_EQ(got[i].repaired_clauses, want[i].repaired_clauses) << what << " loop " << i;
  }
}

/// Random connected graph with a mix of node and edge types.
HetGraph make_graph(Rng& rng, int n) {
  HetGraph g;
  for (int i = 0; i < n; ++i) {
    g.add_node(static_cast<HetNodeType>(rng.uniform_int(0, kNumHetNodeTypes - 1)),
               static_cast<int>(rng.uniform_int(0, 40)),
               static_cast<int>(rng.uniform_int(0, 7)));
  }
  for (int i = 1; i < n; ++i) {
    g.add_edge_pair(static_cast<int>(rng.uniform_int(0, i - 1)), i, HetEdgeType::kAstChild,
                    HetEdgeType::kAstParent);
  }
  for (int i = 0; i + 1 < n; i += 2) {
    g.add_edge_pair(i, i + 1, HetEdgeType::kCfgNext, HetEdgeType::kCfgPrev);
  }
  if (n >= 3) g.add_edge_pair(0, n - 1, HetEdgeType::kLexNext, HetEdgeType::kLexPrev);
  return g;
}

// ---- HetGraphIndex ----------------------------------------------------------

TEST(HetGraphIndex, CsrStructureOfHandBuiltGraph) {
  HetGraph g;
  g.add_node(HetNodeType::kLoop, 1, 0);     // 0
  g.add_node(HetNodeType::kVarRef, 2, 0);   // 1
  g.add_node(HetNodeType::kLiteral, 3, 1);  // 2
  g.add_edge(0, 1, HetEdgeType::kAstChild);
  g.add_edge(0, 2, HetEdgeType::kAstChild);
  g.add_edge(2, 1, HetEdgeType::kAstChild);  // second in-edge of node 1
  g.add_edge(1, 2, HetEdgeType::kLexNext);

  const HetGraphIndex index(g);
  EXPECT_EQ(index.num_nodes, 3);
  EXPECT_EQ(index.num_edges, 4);

  const auto& ast = index.per_edge_type[static_cast<std::size_t>(HetEdgeType::kAstChild)];
  // Incoming kAstChild edges: node 0 none, node 1 two (from 0 then 2, original
  // order preserved), node 2 one (from 0).
  EXPECT_EQ(ast.src, (std::vector<int>{0, 2, 0}));
  EXPECT_EQ(ast.dst, (std::vector<int>{1, 1, 2}));
  EXPECT_EQ(ast.concat_offset, 0);

  const auto& lex = index.per_edge_type[static_cast<std::size_t>(HetEdgeType::kLexNext)];
  EXPECT_EQ(lex.src, (std::vector<int>{1}));
  EXPECT_EQ(lex.dst, (std::vector<int>{2}));
  EXPECT_EQ(lex.concat_offset, 3);  // after the three kAstChild edges

  // Type-major concat order: the three AST edges, then the lexical one.
  EXPECT_EQ(index.dst_concat, (std::vector<int>{1, 1, 2, 2}));
  const int loop_t = static_cast<int>(HetNodeType::kLoop);
  const int var_t = static_cast<int>(HetNodeType::kVarRef);
  const int ast_e = static_cast<int>(HetEdgeType::kAstChild);
  EXPECT_EQ(index.meta_concat[0],
            (loop_t * kNumHetEdgeTypes + ast_e) * kNumHetNodeTypes + var_t);

  // Node-type grouping used by the per-type projections.
  EXPECT_EQ(index.rows_of_type[static_cast<std::size_t>(HetNodeType::kLoop)],
            (std::vector<int>{0}));
  EXPECT_EQ(index.rows_of_type[static_cast<std::size_t>(HetNodeType::kVarRef)],
            (std::vector<int>{1}));
}

TEST(HetGraphIndex, TypeMajorPositions) {
  // Node types interleave, so positions differ from node ids: Loop nodes
  // {1, 3} take positions {0, 1}, BinaryOp nodes {0, 4} positions {2, 3},
  // the VarRef node 2 position 4.
  HetGraph g;
  g.add_node(HetNodeType::kBinaryOp, 1, 0);  // 0
  g.add_node(HetNodeType::kLoop, 2, 0);      // 1
  g.add_node(HetNodeType::kVarRef, 3, 0);    // 2
  g.add_node(HetNodeType::kLoop, 4, 0);      // 3
  g.add_node(HetNodeType::kBinaryOp, 5, 0);  // 4
  g.add_edge(4, 3, HetEdgeType::kAstChild);
  g.add_edge(0, 3, HetEdgeType::kAstChild);
  g.add_edge(2, 1, HetEdgeType::kAstChild);
  g.add_edge(1, 4, HetEdgeType::kLexNext);
  g.add_edge(2, 3, HetEdgeType::kAstChild);  // third in-edge of node 3
  g.add_edge(3, 0, HetEdgeType::kCfgNext);
  const HetGraphIndex index(g);

  ASSERT_EQ(index.type_offsets.size(), static_cast<std::size_t>(kNumHetNodeTypes) + 1);
  EXPECT_EQ(index.type_offsets.front(), 0);
  EXPECT_EQ(index.type_offsets.back(), 5);
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    EXPECT_EQ(index.type_offsets[ts + 1] - index.type_offsets[ts],
              static_cast<int>(index.rows_of_type[ts].size()))
        << "node type " << t;
  }
  EXPECT_EQ(index.type_offsets[static_cast<std::size_t>(HetNodeType::kBinaryOp)], 2);
  EXPECT_EQ(index.type_offsets[static_cast<std::size_t>(HetNodeType::kVarRef)], 4);

  EXPECT_EQ(index.nodes_by_type, (std::vector<int>{1, 3, 0, 4, 2}));
  EXPECT_EQ(index.position_of_node, (std::vector<int>{2, 0, 4, 1, 3}));
  for (int v = 0; v < index.num_nodes; ++v) {
    EXPECT_EQ(index.nodes_by_type[static_cast<std::size_t>(
                  index.position_of_node[static_cast<std::size_t>(v)])],
              v);
  }

  // CSR by destination position, sources as positions: position 0 (node 1)
  // has one kAstChild in-edge from node 2 (position 4); position 1 (node 3)
  // has three, from nodes 4, 0, 2 (positions 3, 2, 4) in insertion order.
  const auto& ast = index.per_edge_type[static_cast<std::size_t>(HetEdgeType::kAstChild)];
  EXPECT_EQ(ast.src, (std::vector<int>{4, 3, 2, 4}));
  EXPECT_EQ(ast.dst, (std::vector<int>{0, 1, 1, 1}));
  const auto& cfg = index.per_edge_type[static_cast<std::size_t>(HetEdgeType::kCfgNext)];
  EXPECT_EQ(cfg.src, (std::vector<int>{1}));
  EXPECT_EQ(cfg.dst, (std::vector<int>{2}));
  const auto& lex = index.per_edge_type[static_cast<std::size_t>(HetEdgeType::kLexNext)];
  EXPECT_EQ(lex.src, (std::vector<int>{0}));
  EXPECT_EQ(lex.dst, (std::vector<int>{3}));
  EXPECT_EQ(index.dst_concat, (std::vector<int>{0, 1, 1, 1, 2, 3}));

  // Meta-relation ids are computed from node types, whatever the numbering.
  const auto meta = [](HetNodeType s, HetEdgeType e, HetNodeType t) {
    return (static_cast<int>(s) * kNumHetEdgeTypes + static_cast<int>(e)) * kNumHetNodeTypes +
           static_cast<int>(t);
  };
  EXPECT_EQ(index.meta_concat,
            (std::vector<int>{
                meta(HetNodeType::kVarRef, HetEdgeType::kAstChild, HetNodeType::kLoop),
                meta(HetNodeType::kBinaryOp, HetEdgeType::kAstChild, HetNodeType::kLoop),
                meta(HetNodeType::kBinaryOp, HetEdgeType::kAstChild, HetNodeType::kLoop),
                meta(HetNodeType::kVarRef, HetEdgeType::kAstChild, HetNodeType::kLoop),
                meta(HetNodeType::kLoop, HetEdgeType::kCfgNext, HetNodeType::kBinaryOp),
                meta(HetNodeType::kLoop, HetEdgeType::kLexNext, HetNodeType::kBinaryOp),
            }));
}

TEST(HetGraphIndex, ThrowsOnOutOfRangeEdge) {
  HetGraph g;
  g.add_node(HetNodeType::kLoop, 1, 0);
  g.add_edge(0, 3, HetEdgeType::kAstChild);
  EXPECT_THROW(HetGraphIndex{g}, std::invalid_argument);
}

TEST(HetGraphIndex, EmptyGraph) {
  const HetGraphIndex index{HetGraph{}};
  EXPECT_EQ(index.num_nodes, 0);
  EXPECT_EQ(index.num_edges, 0);
  EXPECT_TRUE(index.dst_concat.empty());
}

// ---- batch_graphs with empty graphs ----------------------------------------

TEST(BatchGraphs, EmptyGraphsKeepTheirSegments) {
  Rng rng(11);
  HetGraph empty;
  HetGraph a = make_graph(rng, 4);
  HetGraph b = make_graph(rng, 3);

  const auto batch = batch_graphs({&empty, &a, &empty, &b, &empty});
  EXPECT_EQ(batch.num_graphs, 5);
  EXPECT_EQ(batch.merged.num_nodes(), 7);
  EXPECT_EQ(batch.merged.num_edges(), a.num_edges() + b.num_edges());
  EXPECT_TRUE(batch.merged.valid());
  // Nodes of `a` map to segment 1, nodes of `b` to segment 3.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch.segment_of_node[static_cast<std::size_t>(i)], 1);
  for (int i = 4; i < 7; ++i) EXPECT_EQ(batch.segment_of_node[static_cast<std::size_t>(i)], 3);
  // Edge endpoints of `b` must be offset by the nodes of `a` only (the empty
  // graphs contribute no offset).
  for (int e = a.num_edges(); e < batch.merged.num_edges(); ++e) {
    EXPECT_GE(batch.merged.edges[static_cast<std::size_t>(e)].src, 4);
    EXPECT_GE(batch.merged.edges[static_cast<std::size_t>(e)].dst, 4);
  }
  EXPECT_EQ(batch.index.num_nodes, 7);
  EXPECT_EQ(batch.index.num_edges, batch.merged.num_edges());
}

TEST(BatchGraphs, AllEmptyAndNone) {
  HetGraph empty;
  const auto batch = batch_graphs({&empty, &empty});
  EXPECT_EQ(batch.num_graphs, 2);
  EXPECT_EQ(batch.merged.num_nodes(), 0);
  const auto none = batch_graphs({});
  EXPECT_EQ(none.num_graphs, 0);
}

TEST(BatchGraphs, RejectsNullAndCorruptGraphs) {
  EXPECT_THROW(batch_graphs({nullptr}), std::invalid_argument);
  HetGraph corrupt;
  corrupt.add_node(HetNodeType::kLoop, 1, 0);
  corrupt.add_edge(0, 9, HetEdgeType::kAstChild);
  EXPECT_THROW(batch_graphs({&corrupt}), std::invalid_argument);
}

// ---- batched-vs-sequential parity ------------------------------------------

TEST(BatchedEngine, EncoderForwardMatchesPerGraphWithin1e6) {
  Rng rng(42);
  const int dim = 16, heads = 4, layers = 2;
  HgtEncoder encoder(dim, heads, layers, rng);

  std::vector<HetGraph> graphs;
  graphs.push_back(make_graph(rng, 5));
  graphs.push_back(make_graph(rng, 9));
  graphs.push_back(make_graph(rng, 7));

  std::vector<Tensor> features;
  std::vector<Tensor> singles;
  for (const auto& g : graphs) {
    features.push_back(Tensor::randn({g.num_nodes(), dim}, rng, 0.5f));
    singles.push_back(encoder.forward(features.back(), g));
  }

  const auto batch = batch_graphs({&graphs[0], &graphs[1], &graphs[2]});
  const Tensor batched = encoder.forward(concat_rows(features), batch.index);

  int row = 0;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (int i = 0; i < graphs[g].num_nodes(); ++i, ++row) {
      for (int d = 0; d < dim; ++d) {
        EXPECT_NEAR(batched.at({row, d}), singles[g].at({i, d}), 1e-6f)
            << "graph " << g << " node " << i << " dim " << d;
      }
    }
  }
}

TEST(BatchedEngine, IndexedForwardMatchesWrapperExactly) {
  // The HetGraph wrapper takes node-order rows; the index overload takes
  // the index's position order. Permuting in and back out by hand must
  // reproduce the wrapper bit for bit.
  Rng rng(43);
  const int dim = 8;
  HgtLayer layer(dim, 2, rng);
  const HetGraph g = make_graph(rng, 6);
  const Tensor x = Tensor::randn({g.num_nodes(), dim}, rng, 0.5f);
  const Tensor via_graph = layer.forward(x, g);
  const HetGraphIndex index(g);
  const Tensor via_index = index_select_rows(
      layer.forward(index_select_rows(x, index.nodes_by_type), index), index.position_of_node);
  ASSERT_EQ(via_graph.shape(), via_index.shape());
  for (std::size_t i = 0; i < via_graph.numel(); ++i) {
    EXPECT_EQ(via_graph.data()[i], via_index.data()[i]);
  }
}

TEST(BatchedEngine, EncodeTiledPoolsBitwiseEqualForAnyTileBudget) {
  // The serving path cuts a batch into kEncodeTileNodes-sized tiles of
  // whole graphs. Those tiles, one tile holding the whole batch and one
  // graph per tile must pool every graph to the same bits: a node's numbers
  // may not depend on its batch-mates. Graph sizes straddle the budget; an
  // empty graph rides along (it pools to zeros wherever it lands), and
  // single-node graphs have no edges, so they are encoded alone as an
  // edge-less union but share a tile with edges when batched.
  const Graph2ParModel& model = trained_pipeline().model();
  Rng rng(2601);
  std::vector<HetGraph> graphs;
  for (int g = 0; g < 40; ++g) {
    graphs.push_back(make_graph(rng, static_cast<int>(rng.uniform_int(2, 160))));
  }
  graphs.insert(graphs.begin() + 7, HetGraph{});
  for (const int at : {0, 12, 25}) graphs.insert(graphs.begin() + at, make_graph(rng, 1));
  graphs.push_back(make_graph(rng, 2 * static_cast<int>(kEncodeTileNodes)));  // over budget
  std::vector<const HetGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  ThreadPool pool(4);
  const NoGradGuard no_grad;
  const Tensor tiled = model.encode_tiled(ptrs, pool);
  const Tensor one_tile = model.encode(batch_graphs(ptrs));
  const int dim = model.config().dim;
  ASSERT_EQ(tiled.shape(), (Shape{static_cast<int>(graphs.size()), dim}));
  ASSERT_EQ(one_tile.shape(), tiled.shape());
  for (std::size_t i = 0; i < tiled.numel(); ++i) {
    ASSERT_EQ(tiled.data()[i], one_tile.data()[i])
        << "budget-sized tiles vs one tile, graph " << i / static_cast<std::size_t>(dim);
  }
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const Tensor alone = model.encode(graphs[g]);
    for (int j = 0; j < dim; ++j) {
      ASSERT_EQ(alone.data()[static_cast<std::size_t>(j)],
                tiled.data()[g * static_cast<std::size_t>(dim) + static_cast<std::size_t>(j)])
          << "one graph per tile, graph " << g << " (" << graphs[g].nodes.size() << " nodes)";
    }
  }
}

TEST(BatchedEngine, SegmentSumGradcheck) {
  // Central-difference check of the new segment_sum_rows backward.
  Rng rng(5);
  Tensor x = Tensor::randn({5, 3}, rng, 0.5f, /*requires_grad=*/true);
  const std::vector<int> seg = {0, 2, 0, 2, 1};
  Tensor w = Tensor::randn({4, 3}, rng, 0.5f);  // segment 3 stays empty

  const auto loss_fn = [&] { return sum_all(mul(segment_sum_rows(x, seg, 4), w)); };
  Tensor loss = loss_fn();
  loss.backward();
  const FloatVec analytic = x.grad();

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float saved = x.data()[i];
    x.data()[i] = saved + eps;
    const float up = loss_fn().item();
    x.data()[i] = saved - eps;
    const float down = loss_fn().item();
    x.data()[i] = saved;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric, 2e-2f * std::max(1.0f, std::fabs(numeric)));
  }
}

TEST(BatchedEngine, SegmentSumMatchesRowLoopAndRejectsBadIds) {
  Rng rng(6);
  const Tensor x = Tensor::randn({6, 4}, rng);
  const std::vector<int> seg = {1, 0, 1, 2, 0, 1};
  const Tensor a = segment_sum_rows(x, seg, 3);
  std::vector<float> want(3 * 4, 0.0f);
  for (std::size_t i = 0; i < seg.size(); ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      want[static_cast<std::size_t>(seg[i]) * 4 + j] += x.data()[i * 4 + j];
    }
  }
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.data()[i], want[i]);
  EXPECT_THROW(segment_sum_rows(x, seg, 2), std::out_of_range);
}

// ---- thread pool ------------------------------------------------------------

TEST(ThreadPool, RunsAllTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForAtFullSaturationDoesNotDeadlock) {
  // Regression: parallel_for used to enqueue-and-wait even when called from
  // one of the pool's own workers. With every worker blocked in future::get()
  // on chunks stuck behind the waiters, the pool deadlocked — exactly what a
  // server doing suggest_batch on pool threads triggers. Nested calls must
  // run inline on the calling worker.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { ++count; });  // two levels deep
    });
  });
  EXPECT_EQ(count.load(), 8 * 8 * 4);

  // Same at task granularity: a submitted task blocking on parallel_for.
  std::vector<std::future<int>> futures;
  for (int t = 0; t < 8; ++t) {
    futures.push_back(pool.submit([&pool] {
      std::atomic<int> inner{0};
      pool.parallel_for(16, [&](std::size_t) { ++inner; });
      return inner.load();
    }));
  }
  for (auto& f : futures) EXPECT_EQ(f.get(), 16);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);

  // Two throwing indices: every index still runs, and the lowest one's
  // exception is the one rethrown, whichever thread finished first.
  std::vector<std::atomic<int>> ran(8);
  try {
    pool.parallel_for(8, [&](std::size_t i) {
      ++ran[i];
      if (i == 3) throw std::runtime_error("index 3");
      if (i == 6) throw std::runtime_error("index 6");
    });
    ADD_FAILURE() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPool, ParallelForCompletesWhileEveryWorkerIsBusy) {
  // The caller runs indices itself and waits only for claimed ones, so a
  // loop finishes even when no worker is free to pick up its helpers.
  ThreadPool pool(2);
  std::latch busy(static_cast<std::ptrdiff_t>(pool.size()));
  std::latch release(1);
  std::vector<std::future<void>> blockers;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    blockers.push_back(pool.submit([&] {
      busy.count_down();
      release.wait();
    }));
  }
  busy.wait();
  std::vector<std::atomic<int>> hits(8);
  auto loop = std::async(std::launch::async, [&] {
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  });
  const auto status = loop.wait_for(test_env::scaled_ms(10000));
  release.count_down();
  EXPECT_EQ(status, std::future_status::ready) << "parallel_for waited for a busy worker";
  loop.get();
  for (auto& b : blockers) b.get();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRunsOnAtMostPoolWidthThreadsCallerIncluded) {
  const std::thread::id caller = std::this_thread::get_id();
  {
    ThreadPool pool(1);
    std::vector<std::thread::id> ran_on(16);
    pool.parallel_for(ran_on.size(),
                      [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    for (const auto& id : ran_on) EXPECT_EQ(id, caller);
  }

  // Each loop runs on the caller plus at most one helper; which worker the
  // helper lands on may differ from loop to loop.
  ThreadPool pool(2);
  std::mutex mutex;
  for (int rep = 0; rep < 200; ++rep) {
    std::set<std::thread::id> threads;
    pool.parallel_for(16, [&](std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
    });
    EXPECT_LE(threads.size(), 2u) << "loop " << rep;
    EXPECT_LE(threads.size() - threads.count(caller), 1u) << "loop " << rep;
  }

  // A nested loop inside a body running on the caller stays on the caller.
  // A helper's body waits (bounded) until the caller has run one, so the
  // caller is sure to claim an index even if a hot worker grabs the first.
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<bool> caller_ran{false};
    std::vector<std::thread::id> nested_on;
    pool.parallel_for(2, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) {
        const auto deadline = std::chrono::steady_clock::now() + test_env::scaled_ms(10000);
        while (!caller_ran.load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        return;
      }
      pool.parallel_for(8, [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        nested_on.push_back(std::this_thread::get_id());
      });
      caller_ran = true;
    });
    ASSERT_FALSE(nested_on.empty()) << "loop " << rep;
    for (const auto& id : nested_on) EXPECT_EQ(id, caller) << "loop " << rep;
  }
}

TEST(ThreadPool, SingleIndexRunsInlineOnTheCaller) {
  ThreadPool pool(2);
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_THROW(pool.parallel_for(1, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(ThreadPool, ConcurrentEncodesMatchSerial) {
  // The serving path encodes tiles concurrently on a shared const model;
  // concurrent forwards must reproduce serial results.
  Rng rng(77);
  const int dim = 16;
  HgtEncoder encoder(dim, 4, 2, rng);
  std::vector<HetGraph> graphs;
  std::vector<Tensor> features;
  std::vector<Tensor> serial;
  for (int g = 0; g < 8; ++g) {
    graphs.push_back(make_graph(rng, 5 + g));
    features.push_back(Tensor::randn({graphs.back().num_nodes(), dim}, rng, 0.5f));
    // Serving configuration on both sides (NoGradGuard routes through the
    // fused kernel): this test is about concurrent-vs-serial determinism,
    // not fused-vs-reference numerics (hgt_fused_test covers those).
    const NoGradGuard no_grad;
    serial.push_back(encoder.forward(features.back(), graphs.back()));
  }
  std::vector<Tensor> concurrent(graphs.size());
  ThreadPool pool(4);
  pool.parallel_for(graphs.size(), [&](std::size_t g) {
    const NoGradGuard no_grad;  // thread-local, as in Pipeline::suggest_batch
    concurrent[g] = encoder.forward(features[g], graphs[g]);
  });
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    ASSERT_EQ(concurrent[g].numel(), serial[g].numel());
    for (std::size_t i = 0; i < serial[g].numel(); ++i) {
      EXPECT_EQ(concurrent[g].data()[i], serial[g].data()[i]) << "graph " << g;
    }
  }
}

// ---- suggest_batch ----------------------------------------------------------

TEST(SuggestBatch, MatchesSequentialSuggest) {
  const Pipeline& pipeline = trained_pipeline();

  const std::vector<std::string> sources = {
      "void a(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) x[i] = x[i] * 2.0;\n"
      "}\n",
      "int b(void) { return 3; }\n",  // no loops: empty suggestion list
      "void c(double* x, double* y, int n) {\n"
      "  int i;\n"
      "  double s = 0;\n"
      "  for (i = 0; i < n; i++) s += x[i] * y[i];\n"
      "  for (i = 1; i < n; i++) x[i] = x[i - 1];\n"
      "}\n"};
  std::vector<std::string_view> views(sources.begin(), sources.end());

  const auto batched = pipeline.suggest_batch(views);
  ASSERT_EQ(batched.size(), sources.size());
  EXPECT_TRUE(batched[1].empty());

  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto sequential = pipeline.suggest(sources[s]);
    ASSERT_EQ(batched[s].size(), sequential.size()) << "source " << s;
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(batched[s][i].parallel, sequential[i].parallel);
      EXPECT_EQ(batched[s][i].category, sequential[i].category);
      EXPECT_EQ(batched[s][i].suggested_pragma, sequential[i].suggested_pragma);
      EXPECT_EQ(batched[s][i].line, sequential[i].line);
      EXPECT_EQ(batched[s][i].function_name, sequential[i].function_name);
      EXPECT_NEAR(batched[s][i].confidence, sequential[i].confidence, 1e-6);
    }
  }
}

TEST(SuggestBatch, DuplicateSourcesAreComputedOnceWithOrWithoutCache) {
  const std::string cold =
      "void dedup_scale(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) x[i] = x[i] * 3.0;\n"
      "}\n";
  std::string cold_crlf = cold;
  for (std::size_t p = 0; (p = cold_crlf.find('\n', p)) != std::string::npos; p += 2) {
    cold_crlf.replace(p, 1, "\r\n");
  }
  const std::string broken = "int broken( {";
  const std::string other =
      "double dedup_dot(double* x, double* y, int n) {\n"
      "  int i;\n"
      "  double s = 0;\n"
      "  for (i = 0; i < n; i++) s += x[i] * y[i];\n"
      "  return s;\n"
      "}\n";
  // Five copies of the cold source (one CRLF-encoded), two copies of a
  // source that fails to parse, one distinct source.
  const std::vector<std::string_view> batch = {cold,   broken, cold, cold_crlf,
                                               other,  cold,   broken, cold};

  for (const std::size_t cache_bytes : {std::size_t{64} << 20, std::size_t{0}}) {
    const std::string what = cache_bytes == 0 ? "cache off" : "cache on";
    Pipeline pipeline = trained_pipeline().clone();  // fresh, cold cache
    pipeline.set_cache_bytes(cache_bytes);

    // A schedule that never fires still counts every frontend build.
    failpoint::configure("frontend.parse=error@0");
    const auto results = pipeline.suggest_batch_results(batch);
    const auto counters = failpoint::counters();
    failpoint::disarm();

    ASSERT_EQ(counters.size(), 1u) << what;
    EXPECT_EQ(counters[0].hits, 3u) << what << ": each distinct source is parsed once";
    ASSERT_EQ(results.size(), batch.size()) << what;

    ASSERT_TRUE(results[0].ok()) << what;
    EXPECT_FALSE(results[0].suggestions.empty()) << what;
    EXPECT_FALSE(results[0].duplicate) << what;
    for (const std::size_t dup : {2u, 3u, 5u, 7u}) {
      ASSERT_TRUE(results[dup].ok()) << what << " slot " << dup;
      EXPECT_TRUE(results[dup].duplicate) << what << " slot " << dup;
      expect_bitwise(results[dup].suggestions, results[0].suggestions,
                     what + " slot " + std::to_string(dup));
    }
    EXPECT_FALSE(results[1].ok()) << what;
    EXPECT_FALSE(results[6].ok()) << what;
    EXPECT_FALSE(results[1].duplicate) << what;
    EXPECT_TRUE(results[6].duplicate) << what;
    ASSERT_TRUE(results[4].ok()) << what;
    EXPECT_FALSE(results[4].duplicate) << what;
    EXPECT_FALSE(results[4].suggestions.empty()) << what;
  }
}

TEST(SuggestBatch, CloneServesBitwiseIdenticalSuggestions) {
  const std::vector<std::string> sources = {
      "void k(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) x[i] = x[i] + 1.0;\n"
      "}\n",
      "double r(double* x, int n) {\n"
      "  int i;\n"
      "  double s = 0;\n"
      "  for (i = 0; i < n; i++) s += x[i];\n"
      "  for (i = 1; i < n; i++) x[i] = x[i - 1];\n"
      "  return s;\n"
      "}\n"};
  Pipeline copy = trained_pipeline().clone();
  copy.set_cache_bytes(0);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    expect_bitwise(copy.suggest(sources[s]), trained_pipeline().suggest(sources[s]),
                   "source " + std::to_string(s));
  }
}

TEST(SuggestBatch, EmptyInputAndParseErrors) {
  const Pipeline& pipeline = trained_pipeline();

  EXPECT_TRUE(pipeline.suggest_batch({}).empty());

  const std::vector<std::string_view> bad = {"void ok(void) {}", "int broken( {"};
  EXPECT_THROW(pipeline.suggest_batch(bad), std::exception);
}

}  // namespace
}  // namespace g2p
