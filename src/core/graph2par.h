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

#include <memory>
#include <utility>

#include "core/aug_ast.h"
#include "graph/hetgraph.h"
#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "nn/layers.h"

namespace g2p {

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
  Tensor encode(const BatchedGraph& batch) const;

  /// Single-graph convenience wrapper -> pooled [1, dim].
  Tensor encode(const HetGraph& graph) const;

  /// Logits [num_graphs, 2] for one task head.
  Tensor task_logits(const Tensor& pooled, PredictionTask task) const;

  /// Worker pool for the fused forward's projection GEMMs (see HgtLayer):
  /// the encoder's K/Q/V/A stages fan row panels across it, so a single
  /// batch-shaped forward scales across cores. Null pins them to one thread.
  void set_thread_pool(std::shared_ptr<ThreadPool> pool) {
    encoder_.set_thread_pool(std::move(pool));
  }

  const Graph2ParConfig& config() const { return config_; }

 private:
  Graph2ParConfig config_;
  Embedding type_embed_;
  Embedding token_embed_;
  Embedding position_embed_;
  HgtEncoder encoder_;
  std::vector<std::unique_ptr<Linear>> heads_;
};

}  // namespace g2p
