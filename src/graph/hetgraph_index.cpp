#include "graph/hetgraph_index.h"

#include <stdexcept>

namespace g2p {

HetGraphIndex::HetGraphIndex(const HetGraph& graph) {
  num_nodes = graph.num_nodes();
  num_edges = graph.num_edges();
  per_edge_type.resize(static_cast<std::size_t>(kNumHetEdgeTypes));
  rows_of_type.resize(static_cast<std::size_t>(kNumHetNodeTypes));

  for (int i = 0; i < num_nodes; ++i) {
    rows_of_type[static_cast<std::size_t>(graph.nodes[static_cast<std::size_t>(i)].type)]
        .push_back(i);
  }
  type_offsets.assign(static_cast<std::size_t>(kNumHetNodeTypes) + 1, 0);
  nodes_by_type.reserve(static_cast<std::size_t>(num_nodes));
  for (std::size_t t = 0; t < rows_of_type.size(); ++t) {
    type_offsets[t + 1] = type_offsets[t] + static_cast<int>(rows_of_type[t].size());
    nodes_by_type.insert(nodes_by_type.end(), rows_of_type[t].begin(), rows_of_type[t].end());
  }
  position_of_node.resize(static_cast<std::size_t>(num_nodes));
  for (int p = 0; p < num_nodes; ++p) {
    position_of_node[static_cast<std::size_t>(nodes_by_type[static_cast<std::size_t>(p)])] = p;
  }
  const auto position = [&](int node) {
    return position_of_node[static_cast<std::size_t>(node)];
  };

  // Pass 1: count incoming edges per (edge type, destination position),
  // then turn the counts into each destination's first CSR entry.
  std::vector<std::vector<int>> cursor(
      per_edge_type.size(), std::vector<int>(static_cast<std::size_t>(num_nodes) + 1, 0));
  for (const auto& e : graph.edges) {
    if (e.src < 0 || e.src >= num_nodes || e.dst < 0 || e.dst >= num_nodes) {
      throw std::invalid_argument("HetGraphIndex: edge endpoint out of range");
    }
    ++cursor[static_cast<std::size_t>(e.type)][static_cast<std::size_t>(position(e.dst)) + 1];
  }
  int concat_offset = 0;
  for (std::size_t t = 0; t < per_edge_type.size(); ++t) {
    auto& starts = cursor[t];
    for (int v = 0; v < num_nodes; ++v) {
      starts[static_cast<std::size_t>(v) + 1] += starts[static_cast<std::size_t>(v)];
    }
    auto& slice = per_edge_type[t];
    const int count = starts[static_cast<std::size_t>(num_nodes)];
    slice.src.resize(static_cast<std::size_t>(count));
    slice.dst.resize(static_cast<std::size_t>(count));
    slice.concat_offset = concat_offset;
    concat_offset += count;
  }

  // Pass 2: stable scatter of the original edge list into CSR order
  // (insertion order kept per destination), filling the type-major concat
  // arrays alongside.
  dst_concat.resize(static_cast<std::size_t>(num_edges));
  meta_concat.resize(static_cast<std::size_t>(num_edges));
  for (const auto& e : graph.edges) {
    const auto t = static_cast<std::size_t>(e.type);
    auto& slice = per_edge_type[t];
    const int dst = position(e.dst);
    const auto at = static_cast<std::size_t>(cursor[t][static_cast<std::size_t>(dst)]++);
    slice.src[at] = position(e.src);
    slice.dst[at] = dst;
    const auto edge = static_cast<std::size_t>(slice.concat_offset) + at;
    dst_concat[edge] = dst;
    const int src_type = static_cast<int>(graph.nodes[static_cast<std::size_t>(e.src)].type);
    const int dst_type = static_cast<int>(graph.nodes[static_cast<std::size_t>(e.dst)].type);
    meta_concat[edge] =
        (src_type * kNumHetEdgeTypes + static_cast<int>(t)) * kNumHetNodeTypes + dst_type;
  }
}

BatchedGraph batch_graphs(const std::vector<const HetGraph*>& graphs) {
  BatchedGraph out;
  out.num_graphs = static_cast<int>(graphs.size());
  std::size_t total_nodes = 0, total_edges = 0;
  for (const HetGraph* graph : graphs) {
    if (graph == nullptr) throw std::invalid_argument("batch_graphs: null graph");
    total_nodes += graph->nodes.size();
    total_edges += graph->edges.size();
  }
  out.merged.nodes.reserve(total_nodes);
  out.merged.edges.reserve(total_edges);
  out.segment_of_node.reserve(total_nodes);

  int offset = 0;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const HetGraph& graph = *graphs[g];
    const int n = graph.num_nodes();
    for (const auto& node : graph.nodes) {
      out.merged.nodes.push_back(node);
      out.segment_of_node.push_back(static_cast<int>(g));
    }
    for (const auto& e : graph.edges) {
      if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n) {
        throw std::invalid_argument("batch_graphs: edge endpoint out of range");
      }
      out.merged.edges.push_back(HetEdge{e.src + offset, e.dst + offset, e.type});
    }
    offset += n;  // empty graphs contribute no nodes but keep their segment id
  }
  out.index = HetGraphIndex(out.merged);
  return out;
}

}  // namespace g2p
