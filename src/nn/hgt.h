// Heterogeneous Graph Transformer layer (Hu et al. 2020), as restated by the
// paper's formulas (1)-(5).
//
// Per layer, for a target node t with incoming edges e = (s, t):
//   * Heterogeneous Mutual Attention (formula 2): per head i,
//       ATT-head_i(s,e,t) = (K_i(s) W_ATT^{φ(e)} · Q_i(t)) µ(τ(s),φ(e),τ(t)) / sqrt(d/h)
//     where K_i / Q_i are per-node-type linear projections, W_ATT is a
//     per-edge-type head matrix, and µ is a learnable meta-relation prior.
//     Attention is softmax-normalized over all incoming edges of t.
//   * Heterogeneous Message Passing (formula 3): MSG-head_i = V_i(s) W_MSG^{φ(e)}.
//   * Target-Specific Aggregation (formulas 4-5):
//       H~[t] = Σ_s Attention · Message        (per head, heads concatenated)
//       H[t]  = A-Linear_{τ(t)}(σ(H~[t])) + H^{l-1}[t]
//
// Temporal encoding / inductive timestamp assignment are disabled (§5.2: the
// aug-AST is static).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/hetgraph.h"
#include "graph/hetgraph_index.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace g2p {

class HgtLayer : public Module {
 public:
  HgtLayer(int dim, int heads, Rng& rng);

  /// One round of heterogeneous message passing over a precomputed CSR
  /// index (single graph or disjoint batch union — the math is identical).
  /// `x`: [N, dim] node states in the index's *position* order (row p is
  /// node index.nodes_by_type[p]); the result is in position order too, so
  /// each node type's rows are one contiguous slice and stacked layers pass
  /// states along without permuting. A node with no incoming edges
  /// aggregates nothing and gets A(σ(0)) + x — its type's A bias plus the
  /// residual — whether or not other nodes of the union have edges.
  ///
  /// Routing: under grad (training) this is the taped reference
  /// implementation; in inference mode (NoGradGuard active) it is the fused
  /// kernel. The two paths agree within float rounding (~1e-7 relative), not
  /// bitwise.
  Tensor forward(const Tensor& x, const HetGraphIndex& index) const;

  /// Single-graph convenience wrapper: indexes `graph` and forwards. Takes
  /// and returns node-order rows (row v is node v), permuting into position
  /// order on entry and back on exit. Callers running several layers should
  /// index once and use the overload above (HgtEncoder does).
  Tensor forward(const Tensor& x, const HetGraph& graph) const;

  /// The taped per-head implementation (formulas 2-5 op by op): the training
  /// path, and the equivalence oracle for the fused kernel. Under
  /// NoGradGuard it runs the same ops without recording a tape. Position
  /// order in and out, like forward(x, index).
  Tensor forward_reference(const Tensor& x, const HetGraphIndex& index) const;

  /// Fused inference kernel, position order in and out: per node type one
  /// backend `project` call (packed K|Q|V panels, bias in its epilogue)
  /// from the type's contiguous slice of `x` into its slice of one
  /// [N, 3*dim] buffer, then cached per-edge-type W_ATT/W_MSG head blocks
  /// applied per edge in registers during an edge-blocked pass over the
  /// per-edge-type CSR that computes all-head logits, applies the µ prior,
  /// runs a streaming-max online segment softmax per destination, and
  /// scatters weighted messages straight into the [N, dim] aggregate — no
  /// [E, head_dim] intermediates, no per-head gather/concat tensors — and
  /// finally one A-stage `project` call per node type with bias + residual
  /// in its row epilogue. With `norm` set, that epilogue also applies the
  /// LayerNorm, so the result is norm(layer(x)) (what HgtEncoder runs).
  /// Always runs under NoGradGuard (the result carries no tape). The fused
  /// weight cache rebuilds automatically when parameters mutate (optimizer
  /// step, checkpoint load — keyed on tensor mutation versions); the norm's
  /// parameters are read live.
  Tensor forward_fused(const Tensor& x, const HetGraphIndex& index,
                       const LayerNorm* norm = nullptr) const;

  int dim() const { return dim_; }
  int heads() const { return heads_; }

 private:
  int dim_, heads_, head_dim_;

  // Per-node-type projections K/Q/V and output A-Linear (τ-indexed).
  std::vector<std::unique_ptr<Linear>> k_lin_, q_lin_, v_lin_, a_lin_;
  // Per-edge-type, per-head W_ATT and W_MSG [head_dim, head_dim] (φ-indexed).
  std::vector<std::vector<Tensor>> w_att_, w_msg_;
  // Meta-relation prior µ, one scalar per (src-type, edge-type, dst-type),
  // stored as [T*R*T, 1] for differentiable gathering.
  Tensor mu_;

  /// Cached repack of every weight the fused forward consumes. `stamp` is
  /// the sum of the source parameters' mutation versions; a mismatch
  /// (optimizer step, checkpoint load, direct data poke) triggers a rebuild
  /// on the next fused forward.
  ///
  /// Per edge type φ: the `heads` [head_dim, head_dim] W_ATT / W_MSG
  /// matrices laid out back to back — the weight blocks the backend's
  /// hgt_logits / hgt_accumulate apply per edge.
  ///
  /// Per node type τ: the K/Q/V projection weights side by side as one
  /// [dim, 3*dim] operand (columns [K | Q | V]) with the biases
  /// concatenated to [3*dim] — all three projections of a type's slice cost
  /// one wide projection instead of three square ones, and its
  /// [rows, 3*dim] output is the type's slice of one K|Q|V buffer that the
  /// edge kernels read with row stride 3*dim. The A-Linear block rides in
  /// the same cache but stays a separate [dim, dim] operand: it applies to
  /// the *activated aggregate*, not to x, so it cannot join the x-side
  /// projection. Both weight operands are stored in
  /// backend::pack_projection's column-panel layout, packed here once per
  /// weight generation rather than per call.
  struct FusedWeights {
    std::uint64_t stamp = 0;
    std::vector<FloatVec> att, msg;      // φ-indexed; block layout is [h][k][j]
    std::vector<FloatVec> kqv_w, kqv_b;  // τ-indexed: packed [dim, 3*dim] / [3*dim]
    std::vector<FloatVec> a_w, a_b;      // τ-indexed: packed [dim, dim] / [dim]
  };
  const FusedWeights* fused_weights() const;
  std::uint64_t weight_stamp() const;

  // Concurrent serving reads the warm cache lock-free: the current repack
  // is published through an atomic raw pointer (one acquire load per layer
  // per forward); the mutex is taken only to rebuild on a stamp mismatch.
  // Superseded repacks are retired into fused_retired_ rather than freed,
  // so a reader that loaded the old pointer mid-rebuild stays valid; the
  // retire list is bounded by the number of rebuilds (one per parameter
  // mutation followed by a fused forward, ~KBs each).
  mutable std::mutex fused_mutex_;
  mutable std::vector<std::unique_ptr<const FusedWeights>> fused_retired_;
  mutable std::atomic<const FusedWeights*> fused_current_{nullptr};

  /// Apply the per-type linear `lins[type]` to each type's contiguous slice
  /// of the position-order `x`; the projected slices, concatenated, are the
  /// full position-order [N, dim] result.
  Tensor per_type_projection(const Tensor& x, const HetGraphIndex& index,
                             const std::vector<std::unique_ptr<Linear>>& lins) const;
};

/// Stacked HGT encoder over an initial node embedding.
class HgtEncoder : public Module {
 public:
  HgtEncoder(int dim, int heads, int layers, Rng& rng);

  /// Run all layers over one precomputed index (built once per batch).
  /// Node order in and out (row v is node v): the states are permuted into
  /// the index's position order once on entry and back once on exit.
  Tensor forward(const Tensor& x, const HetGraphIndex& index) const;

  /// The same forward from states already in the index's position order
  /// (row p is node index.nodes_by_type[p]); node order out. Under
  /// NoGradGuard each layer runs fused with its norm in the A-stage
  /// epilogue, otherwise taped reference + norm.
  Tensor forward_positions(Tensor state, const HetGraphIndex& index) const;

  /// Single-graph convenience wrapper: indexes `graph` once, then forwards.
  Tensor forward(const Tensor& x, const HetGraph& graph) const;

  /// Every layer's taped reference forward followed by its norm — the
  /// encoder-level equivalence oracle for `forward` under NoGradGuard (and
  /// the reference arm of bench_hgt_kernel). Node order in and out.
  Tensor forward_reference(const Tensor& x, const HetGraphIndex& index) const;

 private:
  std::vector<std::unique_ptr<HgtLayer>> layers_;
  std::vector<std::unique_ptr<LayerNorm>> norms_;
};

}  // namespace g2p
