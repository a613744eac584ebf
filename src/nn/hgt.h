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
#include "tensor/gemm_s8.h"

namespace g2p {

class ThreadPool;

/// Serving precision of the fused inference path. kFp32 is the default and
/// is numerically identical to the pre-quantization fused kernel; kInt8
/// routes every projection GEMM through the quantized Kernels::gemm_s8
/// contract (gemm_s8.h): dynamic asymmetric per-row activation quantization
/// fused into the gather, cached symmetric per-output-channel int8 weight
/// repacks, fp32 dequantization folded into the bias/residual scatters.
/// Training and the taped reference path always run fp32 regardless.
enum class Precision { kFp32, kInt8 };

/// The precision actually served: the G2P_PRECISION environment override
/// ("fp32" | "int8", read once) when set and valid, else `configured`.
Precision resolve_precision(Precision configured);

/// "fp32" / "int8" — stable strings for stats and --json reporting.
const char* precision_name(Precision p);

class HgtLayer : public Module {
 public:
  HgtLayer(int dim, int heads, Rng& rng);

  /// One round of heterogeneous message passing over a precomputed CSR
  /// index (single graph or disjoint batch union — the math is identical).
  /// `x`: [N, dim] node states. Nodes with no incoming edges keep their
  /// residual state.
  ///
  /// Routing: under grad (training) this is the taped reference
  /// implementation; in inference mode (NoGradGuard active) it is the fused
  /// kernel. The two paths agree within float rounding (~1e-7 relative), not
  /// bitwise.
  Tensor forward(const Tensor& x, const HetGraphIndex& index) const;

  /// Single-graph convenience wrapper: indexes `graph` and forwards.
  /// Callers running several layers should index once and use the overload
  /// above (HgtEncoder does).
  Tensor forward(const Tensor& x, const HetGraph& graph) const;

  /// The taped per-head implementation (formulas 2-5 op by op): the training
  /// path, and the equivalence oracle for the fused kernel. Under
  /// NoGradGuard it runs the same ops without recording a tape.
  Tensor forward_reference(const Tensor& x, const HetGraphIndex& index) const;

  /// Fused inference kernel: cached per-edge-type W_ATT/W_MSG head blocks,
  /// applied per edge in registers during an edge-blocked pass over the
  /// per-edge-type CSR that computes all-head logits, applies the µ prior,
  /// runs a streaming-max online segment softmax per destination, and
  /// scatters weighted messages straight into the [N, dim] output — no
  /// [E, head_dim] intermediates, no per-head gather/concat tensors. Always
  /// runs under NoGradGuard (the result carries no tape). The fused weight
  /// cache rebuilds automatically when parameters mutate (optimizer step,
  /// checkpoint load — keyed on tensor mutation versions).
  Tensor forward_fused(const Tensor& x, const HetGraphIndex& index) const;

  /// Configure the fused forward's serving precision (default fp32; the
  /// G2P_PRECISION env var overrides it — see resolve_precision). Configure
  /// at setup: not thread-safe against concurrent forwards. The int8 weight repacks live in the same fused
  /// cache and share its stamp, so flipping precision never serves stale
  /// weights and costs no rebuild.
  void set_precision(Precision p) { precision_ = p; }
  Precision precision() const { return precision_; }

  /// Worker pool for the fused forward's projection GEMMs (matmul_mt row
  /// panels) — batch-shaped forwards scale across cores with it, null runs
  /// them single-threaded. Nested use is safe: on a pool worker the panels
  /// run inline. Not thread-safe against concurrent forwards (configure at
  /// setup, like set_precision).
  void set_thread_pool(std::shared_ptr<ThreadPool> pool) { pool_ = std::move(pool); }

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
  /// Per node type τ: the K/Q/V projection weights packed side by side as
  /// one [dim, 3*dim] GEMM operand (columns [K | Q | V]) with the biases
  /// concatenated to [3*dim] — all three projections of a type's rows cost
  /// one wide GEMM instead of three square ones. The A-Linear block rides in
  /// the same cache but stays a separate [dim, dim] operand: it applies to
  /// the *activated aggregate*, not to x, so it cannot join the x-side GEMM.
  struct FusedWeights {
    std::uint64_t stamp = 0;
    std::vector<FloatVec> att, msg;      // φ-indexed; block layout is [h][k][j]
    std::vector<FloatVec> kqv_w, kqv_b;  // τ-indexed: [dim, 3*dim] / [3*dim]
    std::vector<FloatVec> a_w, a_b;      // τ-indexed: [dim, dim] / [dim]
    // Int8 images of the projection operands for the quantized serving
    // path (gemm_s8.h), built unconditionally at rebuild — they are a few KB
    // per layer, and sharing the stamp means a precision flip (option or
    // env) never races a rebuild. Each quantizes its τ-indexed GEMM operand
    // per output column. The edge phases stay fp32 at either precision.
    std::vector<backend::detail::QuantOperand> kqv_q, a_q;  // τ-indexed
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
  Precision precision_ = Precision::kFp32;
  std::shared_ptr<ThreadPool> pool_;  // null: single-threaded projections

  /// Apply the per-type linear `lins[type]` to the rows of each type and
  /// reassemble a full [N, dim] tensor.
  Tensor per_type_projection(const Tensor& x, const HetGraphIndex& index,
                             const std::vector<std::unique_ptr<Linear>>& lins) const;
};

/// Stacked HGT encoder over an initial node embedding.
class HgtEncoder : public Module {
 public:
  HgtEncoder(int dim, int heads, int layers, Rng& rng);

  /// Run all layers over one precomputed index (built once per batch).
  Tensor forward(const Tensor& x, const HetGraphIndex& index) const;

  /// Single-graph convenience wrapper: indexes `graph` once, then forwards.
  Tensor forward(const Tensor& x, const HetGraph& graph) const;

  /// Every layer's taped reference forward followed by its norm — the
  /// encoder-level equivalence oracle for `forward` under NoGradGuard (and
  /// the reference arm of bench_hgt_kernel).
  Tensor forward_reference(const Tensor& x, const HetGraphIndex& index) const;

  /// Propagate the serving precision to every layer (see HgtLayer).
  void set_precision(Precision p);

  /// Propagate the projection-GEMM worker pool to every layer (see HgtLayer).
  void set_thread_pool(std::shared_ptr<ThreadPool> pool);

 private:
  std::vector<std::unique_ptr<HgtLayer>> layers_;
  std::vector<std::unique_ptr<LayerNorm>> norms_;
};

}  // namespace g2p
