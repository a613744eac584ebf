// Graph2Par: the paper's model — heterogeneous aug-AST in, pragma
// predictions out (§5.2).
//
// Architecture: node features = type-embedding + token-embedding +
// position-embedding (the heterogeneous attributes of §5.1.1), a stack of
// HGT layers, mean pooling over each graph, and five 2-way heads:
// pragma existence (Table 2/3/4) plus private / reduction / simd / target
// (Table 5). The same class with cfg/lexical/call edges disabled at graph
// construction is the "HGT-AST" vanilla baseline of Table 3.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "core/aug_ast.h"
#include "graph/hetgraph.h"
#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "nn/layers.h"

namespace g2p {

class ThreadPool;

/// Node budget of one encode tile in the batched serving path
/// (Graph2ParModel::encode_tiled). Measured, not tuned per deployment: a
/// sweep of 150 / 300 / 600 nodes and one tile per worker on cold_batch is
/// recorded in CHANGES.md.
inline constexpr std::size_t kEncodeTileNodes = 300;

struct Graph2ParConfig {
  int vocab_size = 0;   // required
  int dim = 32;
  int heads = 4;
  int layers = 2;
  int max_position = 8;  // sibling-position attribute clamp + 1
};

/// Task heads, indexable for uniform evaluation.
enum class PredictionTask {
  kParallel = 0,  // pragma existence
  kPrivate = 1,
  kReduction = 2,
  kSimd = 3,
  kTarget = 4,
};
inline constexpr int kNumPredictionTasks = 5;

std::string_view prediction_task_name(PredictionTask task);

class Graph2ParModel : public Module {
 public:
  Graph2ParModel(const Graph2ParConfig& config, Rng& rng);

  /// Initial node features from the heterogeneous attributes.
  Tensor node_features(const HetGraph& graph) const;

  /// Pooled graph representations [num_graphs, dim] for a batched graph.
  /// The batch's precomputed CSR index drives every HGT layer; the readout
  /// is a segment-mean keyed by `segment_of_node` (empty graphs pool to 0).
  /// Under NoGradGuard the node features are written straight into the
  /// index's position order, bitwise what node_features then the permute
  /// would give.
  Tensor encode(const BatchedGraph& batch) const;

  /// Pooled rows [graphs.size(), dim] for many graphs, in order. The graphs
  /// are cut into tiles of whole consecutive graphs holding at most
  /// kEncodeTileNodes nodes (a larger graph is a tile of its own); each
  /// tile is one disjoint union encoded on `pool`, whose threads — the
  /// caller among them — claim tiles from one shared counter. Disjoint
  /// unions pool per graph and every kernel computes a node's row
  /// independently of its batch-mates (edge-less graphs included), so the
  /// rows are bitwise what one encode of the whole batch, or of each graph
  /// alone, gives. Inference only: runs under NoGradGuard.
  Tensor encode_tiled(std::span<const HetGraph* const> graphs, ThreadPool& pool) const;

  /// Single-graph convenience wrapper -> pooled [1, dim].
  Tensor encode(const HetGraph& graph) const;

  /// Logits [num_graphs, 2] for one task head.
  Tensor task_logits(const Tensor& pooled, PredictionTask task) const;

  const Graph2ParConfig& config() const { return config_; }

 private:
  /// node_features for a batch, written in its index's position order.
  Tensor position_features(const BatchedGraph& batch) const;

  Graph2ParConfig config_;
  Embedding type_embed_;
  Embedding token_embed_;
  Embedding position_embed_;
  HgtEncoder encoder_;
  std::vector<std::unique_ptr<Linear>> heads_;
};

}  // namespace g2p
