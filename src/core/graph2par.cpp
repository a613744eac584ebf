#include "core/graph2par.h"

#include <algorithm>
#include <stdexcept>

#include "support/thread_pool.h"

namespace g2p {

std::string_view prediction_task_name(PredictionTask task) {
  switch (task) {
    case PredictionTask::kParallel: return "parallel";
    case PredictionTask::kPrivate: return "private";
    case PredictionTask::kReduction: return "reduction";
    case PredictionTask::kSimd: return "simd";
    case PredictionTask::kTarget: return "target";
  }
  return "?";
}

Graph2ParModel::Graph2ParModel(const Graph2ParConfig& config, Rng& rng)
    : config_(config),
      type_embed_(kNumHetNodeTypes, config.dim, rng),
      token_embed_(config.vocab_size, config.dim, rng),
      position_embed_(config.max_position, config.dim, rng),
      encoder_(config.dim, config.heads, config.layers, rng) {
  if (config.vocab_size <= 0) {
    throw std::invalid_argument("Graph2ParModel: vocab_size must be set");
  }
  register_child(type_embed_);
  register_child(token_embed_);
  register_child(position_embed_);
  register_child(encoder_);
  for (int t = 0; t < kNumPredictionTasks; ++t) {
    heads_.push_back(std::make_unique<Linear>(config.dim, 2, rng));
    register_child(*heads_.back());
  }
}

Tensor Graph2ParModel::node_features(const HetGraph& graph) const {
  std::vector<int> types, tokens, positions;
  types.reserve(graph.nodes.size());
  tokens.reserve(graph.nodes.size());
  positions.reserve(graph.nodes.size());
  for (const auto& node : graph.nodes) {
    types.push_back(static_cast<int>(node.type));
    tokens.push_back(node.token_id < config_.vocab_size ? node.token_id : 0);
    positions.push_back(std::min(node.position, config_.max_position - 1));
  }
  return add(add(type_embed_.forward(types), token_embed_.forward(tokens)),
             position_embed_.forward(positions));
}

Tensor Graph2ParModel::position_features(const BatchedGraph& batch) const {
  const HetGraphIndex& index = batch.index;
  const auto dim = static_cast<std::size_t>(config_.dim);
  const float* type_table = type_embed_.table().data().data();
  const float* token_table = token_embed_.table().data().data();
  const float* position_table = position_embed_.table().data().data();
  FloatVec out(static_cast<std::size_t>(index.num_nodes) * dim);
  for (int p = 0; p < index.num_nodes; ++p) {
    const HetNode& node =
        batch.merged.nodes[static_cast<std::size_t>(index.nodes_by_type[static_cast<std::size_t>(p)])];
    const int token = node.token_id < config_.vocab_size ? node.token_id : 0;
    const int position = std::min(node.position, config_.max_position - 1);
    if (token < 0 || position < 0) {
      throw std::out_of_range("Graph2ParModel::encode: bad token or position id");
    }
    const float* type_row = type_table + static_cast<std::size_t>(node.type) * dim;
    const float* token_row = token_table + static_cast<std::size_t>(token) * dim;
    const float* position_row = position_table + static_cast<std::size_t>(position) * dim;
    float* row = out.data() + static_cast<std::size_t>(p) * dim;
    // (type + token) + position, node_features' order of adds.
    for (std::size_t j = 0; j < dim; ++j) row[j] = type_row[j] + token_row[j] + position_row[j];
  }
  return make_result({index.num_nodes, config_.dim}, std::move(out), {}, nullptr);
}

Tensor Graph2ParModel::encode(const BatchedGraph& batch) const {
  const Tensor states =
      grad_enabled() ? encoder_.forward(node_features(batch.merged), batch.index)
                     : encoder_.forward_positions(position_features(batch), batch.index);
  return segment_mean_rows(states, batch.segment_of_node, batch.num_graphs);
}

Tensor Graph2ParModel::encode_tiled(std::span<const HetGraph* const> graphs,
                                    ThreadPool& pool) const {
  std::vector<std::size_t> tile_begin;  // first graph of each tile
  std::size_t nodes = 0;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const std::size_t size = graphs[g]->nodes.size();
    if (tile_begin.empty() || nodes + size > kEncodeTileNodes) {
      tile_begin.push_back(g);
      nodes = 0;
    }
    nodes += size;
  }
  tile_begin.push_back(graphs.size());
  const std::size_t tiles = tile_begin.size() - 1;
  std::vector<Tensor> pooled(tiles);
  pool.parallel_for(tiles, [&](std::size_t t) {
    const NoGradGuard no_grad;  // thread-local: set on every thread
    pooled[t] = encode(batch_graphs({graphs.begin() + static_cast<std::ptrdiff_t>(tile_begin[t]),
                                     graphs.begin() + static_cast<std::ptrdiff_t>(tile_begin[t + 1])}));
  });
  if (pooled.empty()) return Tensor::zeros({0, config_.dim});
  return pooled.size() == 1 ? pooled.front() : concat_rows(pooled);
}

Tensor Graph2ParModel::encode(const HetGraph& graph) const {
  return encode(batch_graphs({&graph}));
}

Tensor Graph2ParModel::task_logits(const Tensor& pooled, PredictionTask task) const {
  return heads_[static_cast<std::size_t>(task)]->forward(pooled);
}

}  // namespace g2p
