// Precomputed adjacency for heterogeneous message passing.
//
// The HGT layer (formulas 1-5 of §5.2) needs, for every edge type φ(e), the
// list of edges grouped by destination node: attention is softmax-normalized
// over the incoming edges of each target, and W_ATT / W_MSG are φ-indexed.
// Rebuilding those groupings from the flat edge list costs O(E) per layer per
// forward; a HetGraphIndex computes them once per graph (or per batch) as
// per-edge-type CSR adjacency and is shared by every layer of the encoder.
//
// Layout. Nodes are numbered type-major once, here: all nodes of node type
// 0 first, then type 1, ..., ties in node-id order. A node's place in that
// order is its *position*; type τ owns positions [type_offsets[τ],
// type_offsets[τ+1]), so every per-node-type projection of the HGT layer is
// one GEMM on a contiguous slice of a position-order buffer. Everything
// below the node-type grouping speaks positions: src / dst / dst_concat
// hold positions. `nodes_by_type` maps position -> node id and
// `position_of_node` maps back; `rows_of_type` holds node ids and
// `meta_concat` node types.
//
// Edges are ordered type-major: all edges of edge type 0 first, then type
// 1, ... Within one type they are in CSR order — sorted by destination
// position, ties kept in insertion order (the counting sort is stable and
// walks the original edge list), so the incoming-edge list of each node
// preserves the original edge order. This makes a batched forward
// accumulate per-node sums in exactly the same order as a single-graph
// forward, which is what the batched-vs-sequential parity tests rely on,
// and keeps a node's numbers independent of the position it lands on.
#pragma once

#include <vector>

#include "graph/hetgraph.h"

namespace g2p {

struct HetGraphIndex {
  /// CSR block of one edge type φ: its edges sorted by destination
  /// position, so the incoming edges of each node are one contiguous run of
  /// `src` / `dst`. Entry p is edge `concat_offset + p` of the type-major
  /// order (the dst_concat / meta_concat index).
  struct EdgeTypeSlice {
    std::vector<int> src;          // source position of each edge, CSR order
    std::vector<int> dst;          // destination position of each edge, CSR order
    int concat_offset = 0;         // block start in the type-major edge order
    bool empty() const { return src.empty(); }
    int size() const { return static_cast<int>(src.size()); }
  };

  int num_nodes = 0;
  int num_edges = 0;

  /// One CSR block per edge type, φ-indexed (size kNumHetEdgeTypes).
  std::vector<EdgeTypeSlice> per_edge_type;
  /// Node ids grouped by node type τ (size kNumHetNodeTypes), ascending.
  std::vector<std::vector<int>> rows_of_type;
  /// Positions owned by node type τ: [type_offsets[τ], type_offsets[τ+1])
  /// (size kNumHetNodeTypes + 1).
  std::vector<int> type_offsets;
  /// rows_of_type concatenated: the node id at each position. Gathering
  /// node-order rows through it yields position order.
  std::vector<int> nodes_by_type;
  /// Inverse of nodes_by_type: the position of each node id. Gathering
  /// position-order rows through it yields node order.
  std::vector<int> position_of_node;
  /// Destination position of every edge in the type-major order (size
  /// num_edges); the segment key for attention softmax and message
  /// aggregation.
  std::vector<int> dst_concat;
  /// Meta-relation id (τ(s), φ(e), τ(t)) of every edge, same order; gathers
  /// the µ prior of formula 2.
  std::vector<int> meta_concat;

  HetGraphIndex() = default;
  /// Build in O(V + E) with a stable counting sort. Throws
  /// std::invalid_argument if an edge endpoint is out of range.
  explicit HetGraphIndex(const HetGraph& graph);
};

/// Disjoint union of graphs for mini-batching. `segment_of_node[i]` gives the
/// index of the source graph of node i (graph readout pooling key); graphs
/// with no nodes contribute an empty segment, so readouts stay aligned with
/// the input list. `index` is the precomputed adjacency of `merged`.
struct BatchedGraph {
  HetGraph merged;
  std::vector<int> segment_of_node;
  int num_graphs = 0;
  HetGraphIndex index;
};

/// Merge graphs into one disjoint union and index it. Null entries and
/// out-of-range edges throw; empty graphs are legal and keep their segment.
BatchedGraph batch_graphs(const std::vector<const HetGraph*>& graphs);

}  // namespace g2p
