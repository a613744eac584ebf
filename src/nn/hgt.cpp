#include "nn/hgt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "support/failpoint.h"
#include "tensor/backend.h"
#include "tensor/fastmath.h"

namespace g2p {

namespace {

/// Node-order rows -> position order (row p = x[nodes_by_type[p]]).
Tensor to_positions(const Tensor& x, const HetGraphIndex& index) {
  if (x.rank() != 2 || x.dim(0) != index.num_nodes) {
    throw std::invalid_argument("HgtLayer::forward: state shape mismatch");
  }
  return index_select_rows(x, index.nodes_by_type);
}

/// Position-order rows -> node order (row v = x[position_of_node[v]]).
Tensor to_nodes(const Tensor& x, const HetGraphIndex& index) {
  return index_select_rows(x, index.position_of_node);
}

}  // namespace

HgtLayer::HgtLayer(int dim, int heads, Rng& rng)
    : dim_(dim), heads_(heads), head_dim_(dim / heads) {
  if (dim % heads != 0) throw std::invalid_argument("HgtLayer: dim must divide by heads");

  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    k_lin_.push_back(std::make_unique<Linear>(dim, dim, rng));
    q_lin_.push_back(std::make_unique<Linear>(dim, dim, rng));
    v_lin_.push_back(std::make_unique<Linear>(dim, dim, rng));
    a_lin_.push_back(std::make_unique<Linear>(dim, dim, rng));
    register_child(*k_lin_.back());
    register_child(*q_lin_.back());
    register_child(*v_lin_.back());
    register_child(*a_lin_.back());
  }
  const float bound = std::sqrt(6.0f / static_cast<float>(2 * head_dim_));
  w_att_.resize(static_cast<std::size_t>(kNumHetEdgeTypes));
  w_msg_.resize(static_cast<std::size_t>(kNumHetEdgeTypes));
  for (int e = 0; e < kNumHetEdgeTypes; ++e) {
    for (int h = 0; h < heads_; ++h) {
      w_att_[static_cast<std::size_t>(e)].push_back(
          register_param(Tensor::rand_uniform({head_dim_, head_dim_}, rng, bound)));
      w_msg_[static_cast<std::size_t>(e)].push_back(
          register_param(Tensor::rand_uniform({head_dim_, head_dim_}, rng, bound)));
    }
  }
  const int num_meta = kNumHetNodeTypes * kNumHetEdgeTypes * kNumHetNodeTypes;
  mu_ = register_param(Tensor::full({num_meta, 1}, 1.0f));
}

Tensor HgtLayer::per_type_projection(const Tensor& x, const HetGraphIndex& index,
                                     const std::vector<std::unique_ptr<Linear>>& lins) const {
  std::vector<Tensor> parts;  // projected slices, in position order
  std::vector<int> rows;
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    const int begin = index.type_offsets[ts];
    const int count = index.type_offsets[ts + 1] - begin;
    if (count == 0) continue;
    rows.resize(static_cast<std::size_t>(count));
    std::iota(rows.begin(), rows.end(), begin);
    parts.push_back(lins[ts]->forward(index_select_rows(x, rows)));
  }
  if (parts.empty()) return Tensor::zeros({index.num_nodes, dim_});
  return concat_rows(parts);
}

Tensor HgtLayer::forward(const Tensor& x, const HetGraphIndex& index) const {
  return grad_enabled() ? forward_reference(x, index) : forward_fused(x, index);
}

Tensor HgtLayer::forward_reference(const Tensor& x, const HetGraphIndex& index) const {
  const int n = index.num_nodes;
  const int total_edges = index.num_edges;
  if (x.dim(0) != n || x.dim(1) != dim_) {
    throw std::invalid_argument("HgtLayer::forward: state shape mismatch");
  }

  const Tensor k_all = per_type_projection(x, index, k_lin_);
  const Tensor q_all = per_type_projection(x, index, q_lin_);
  const Tensor v_all = per_type_projection(x, index, v_lin_);

  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  // µ prior per edge, shared across heads (formula 2). Edge order is the
  // index's type-major CSR order throughout.
  const Tensor mu_per_edge =
      reshape(index_select_rows(mu_, index.meta_concat), {total_edges});

  // Apply the φ-indexed head maps per NODE, then gather per edge: K W_ATT
  // and V W_MSG are transforms of the source node state, so computing them
  // over the N node rows and gathering E edge rows afterwards does the same
  // math with N-row instead of E-row matmuls (N < E for every aug-AST, which
  // has at least the forward/reverse AST edge pair per non-root node).
  std::vector<std::vector<Tensor>> logits_parts(static_cast<std::size_t>(heads_));
  std::vector<std::vector<Tensor>> msg_parts(static_cast<std::size_t>(heads_));
  for (int h = 0; h < heads_; ++h) {
    const int off = h * head_dim_;
    const Tensor k_h = col_slice(k_all, off, head_dim_);
    const Tensor q_h = col_slice(q_all, off, head_dim_);
    const Tensor v_h = col_slice(v_all, off, head_dim_);
    for (int et = 0; et < kNumHetEdgeTypes; ++et) {
      const auto& slice = index.per_edge_type[static_cast<std::size_t>(et)];
      if (slice.empty()) continue;
      // ATT-head: (K W_ATT) · Q / sqrt(d); MSG-head: V W_MSG.
      const Tensor k_mapped = matmul(
          k_h, w_att_[static_cast<std::size_t>(et)][static_cast<std::size_t>(h)]);
      const Tensor att = row_dot(index_select_rows(k_mapped, slice.src),
                                 index_select_rows(q_h, slice.dst));
      logits_parts[static_cast<std::size_t>(h)].push_back(reshape(att, {slice.size(), 1}));
      const Tensor v_mapped = matmul(
          v_h, w_msg_[static_cast<std::size_t>(et)][static_cast<std::size_t>(h)]);
      msg_parts[static_cast<std::size_t>(h)].push_back(
          index_select_rows(v_mapped, slice.src));
    }
  }

  std::vector<Tensor> head_aggregates;
  head_aggregates.reserve(static_cast<std::size_t>(heads_));
  for (int h = 0; h < heads_; ++h) {
    if (total_edges == 0) {  // no target has an incoming edge: H~ is all zero
      head_aggregates.push_back(Tensor::zeros({n, head_dim_}));
      continue;
    }
    const Tensor logits_raw = reshape(concat_rows(logits_parts[static_cast<std::size_t>(h)]),
                                      {total_edges});  // concat = dst_concat order
    const Tensor logits = mul(scale(logits_raw, inv_sqrt_d), mu_per_edge);
    // Softmax over all incoming edges of each target (formula 2's Softmax
    // over s ∈ N(t)).
    const Tensor attention = segment_softmax(logits, index.dst_concat, n);
    const Tensor messages =
        concat_rows(msg_parts[static_cast<std::size_t>(h)]);        // [E, head_dim]
    // Formula 4: attention-weighted aggregation, fused so the weighted
    // messages are never materialized.
    head_aggregates.push_back(
        segment_weighted_sum_rows(messages, attention, index.dst_concat, n));
  }

  const Tensor h_tilde = concat_cols(head_aggregates);  // [N, dim]
  // Formula 5: per-target-type output projection of σ(H~) plus residual.
  const Tensor activated = gelu(h_tilde);
  const Tensor projected = per_type_projection(activated, index, a_lin_);
  return add(projected, x);
}

Tensor HgtLayer::forward(const Tensor& x, const HetGraph& graph) const {
  const HetGraphIndex index(graph);
  return to_nodes(forward(to_positions(x, index), index), index);
}

std::uint64_t HgtLayer::weight_stamp() const {
  std::uint64_t stamp = 0;
  for (const auto& heads : w_att_) {
    for (const auto& w : heads) stamp += w.version();
  }
  for (const auto& heads : w_msg_) {
    for (const auto& w : heads) stamp += w.version();
  }
  // The projection repacks key on the same stamp: any K/Q/V/A parameter
  // mutation must rebuild the cache too.
  for (const auto* lins : {&k_lin_, &q_lin_, &v_lin_, &a_lin_}) {
    for (const auto& lin : *lins) {
      stamp += lin->weight().version();
      if (lin->bias().defined()) stamp += lin->bias().version();
    }
  }
  return stamp;
}

const HgtLayer::FusedWeights* HgtLayer::fused_weights() const {
  // Versions only ever increase, so the summed stamp is monotone: any
  // parameter mutation since the cache was built changes it. The warm path
  // is one acquire load — no lock contention between serving workers.
  const std::uint64_t stamp = weight_stamp();
  const FusedWeights* current = fused_current_.load(std::memory_order_acquire);
  if (current != nullptr && current->stamp == stamp) return current;

  std::lock_guard<std::mutex> lock(fused_mutex_);
  current = fused_current_.load(std::memory_order_acquire);
  if (current != nullptr && current->stamp == stamp) return current;
  auto fresh = std::make_unique<FusedWeights>();
  fresh->stamp = stamp;
  fresh->att.resize(static_cast<std::size_t>(kNumHetEdgeTypes));
  fresh->msg.resize(static_cast<std::size_t>(kNumHetEdgeTypes));
  const std::size_t block = static_cast<std::size_t>(head_dim_) * head_dim_;
  for (int et = 0; et < kNumHetEdgeTypes; ++et) {
    const auto e = static_cast<std::size_t>(et);
    fresh->att[e].resize(static_cast<std::size_t>(heads_) * block);
    fresh->msg[e].resize(static_cast<std::size_t>(heads_) * block);
    for (int h = 0; h < heads_; ++h) {
      const auto& att = w_att_[e][static_cast<std::size_t>(h)].data();
      const auto& msg = w_msg_[e][static_cast<std::size_t>(h)].data();
      std::copy(att.begin(), att.end(),
                fresh->att[e].begin() + static_cast<std::ptrdiff_t>(h * block));
      std::copy(msg.begin(), msg.end(),
                fresh->msg[e].begin() + static_cast<std::ptrdiff_t>(h * block));
    }
  }
  // Projection repack, per node type: K/Q/V weights interleaved row-wise
  // into one [dim, 3*dim] operand (row r = [W_K row r | W_Q row r |
  // W_V row r]), biases concatenated; the A block stays square. Both are
  // then packed into the projection kernel's column panels.
  const auto dim_sz = static_cast<std::size_t>(dim_);
  fresh->kqv_w.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  fresh->kqv_b.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  fresh->a_w.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  fresh->a_b.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  FloatVec w(dim_sz * 3 * dim_sz);
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    const Linear* kqv[3] = {k_lin_[ts].get(), q_lin_[ts].get(), v_lin_[ts].get()};
    auto& b = fresh->kqv_b[ts];
    b.assign(3 * dim_sz, 0.0f);
    for (int p = 0; p < 3; ++p) {
      const float* src = kqv[p]->weight().data().data();
      for (int r = 0; r < dim_; ++r) {
        std::copy(src + static_cast<std::size_t>(r) * dim_sz,
                  src + static_cast<std::size_t>(r + 1) * dim_sz,
                  w.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(r) * 3 * dim_sz + p * dim_sz));
      }
      if (kqv[p]->bias().defined()) {
        const auto& bias = kqv[p]->bias().data();
        std::copy(bias.begin(), bias.end(),
                  b.begin() + static_cast<std::ptrdiff_t>(p * dim_sz));
      }
    }
    fresh->kqv_w[ts] = backend::pack_projection(w.data(), dim_, 3 * dim_);
    fresh->a_w[ts] = backend::pack_projection(a_lin_[ts]->weight().data().data(), dim_, dim_);
    if (a_lin_[ts]->bias().defined()) {
      const auto& ab = a_lin_[ts]->bias().data();
      fresh->a_b[ts].assign(ab.begin(), ab.end());
    } else {
      fresh->a_b[ts].assign(dim_sz, 0.0f);
    }
  }
  const FusedWeights* published = fresh.get();
  fused_retired_.push_back(std::move(fresh));  // freed with the layer, never earlier
  fused_current_.store(published, std::memory_order_release);
  return published;
}

Tensor HgtLayer::forward_fused(const Tensor& x, const HetGraphIndex& index,
                               const LayerNorm* norm) const {
  const int n = index.num_nodes;
  if (x.dim(0) != n || x.dim(1) != dim_) {
    throw std::invalid_argument("HgtLayer::forward: state shape mismatch");
  }
  const NoGradGuard no_grad;  // the fused path never tapes, even if entered directly
  const auto& kern = backend::active();
  const auto fused = fused_weights();

  // Fused projection stage: per node type, one backend `project` call
  // against the cached packed K|Q|V panels computes all three projections
  // of the type's contiguous slice of x at once, bias included, straight
  // into that slice of the position-order [N, 3*dim] K|Q|V buffer.
  const std::size_t dim_sz = static_cast<std::size_t>(dim_);
  const int kqv_cols = 3 * dim_;
  const std::size_t row_elems = static_cast<std::size_t>(n) * dim_sz;
  const float* xdata = x.data().data();
  FloatVec kqv(static_cast<std::size_t>(n) * kqv_cols);
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    const int begin = index.type_offsets[ts];
    const int rows = index.type_offsets[ts + 1] - begin;
    if (rows == 0) continue;
    backend::RowEpilogue epilogue;
    epilogue.bias = fused->kqv_b[ts].data();
    kern.project(xdata + static_cast<std::size_t>(begin) * dim_sz, fused->kqv_w[ts].data(),
                 kqv.data() + static_cast<std::size_t>(begin) * kqv_cols, rows, dim_, kqv_cols,
                 epilogue);
  }

  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const float* mu = mu_.data().data();
  const float* k_all = kqv.data();
  const float* q_all = k_all + dim_;
  const float* v_all = q_all + dim_;
  const int* meta = index.meta_concat.data();

  // Edge-blocked pass, one backend call per edge type per phase (the CSR
  // blocks are dst-sorted, so per-node accumulation order stays type-major
  // and matches the reference segment ops):
  //   phase 1 (hgt_logits)     — all-head logits with the µ prior applied,
  //                              streaming the per-(destination, head) max
  //                              (the online-softmax max, shared across
  //                              edge types);
  //   phase 2 (hgt_accumulate) — exponentiate against that max, accumulate
  //                              per-(destination, head) denominators, and
  //                              scatter weighted messages straight into
  //                              the [N, dim] output;
  //   phase 3 (below)          — normalize each head block by its
  //                              denominator.
  // The only edge-shaped scratch is the [E, heads] logit buffer — no
  // [E, head_dim] message/gather tensors, no per-head concats.
  FloatVec h_tilde(row_elems, 0.0f);
  FloatVec logits(static_cast<std::size_t>(index.num_edges) * heads_);
  std::vector<float> node_max(static_cast<std::size_t>(n) * heads_,
                              -std::numeric_limits<float>::infinity());
  std::vector<float> denom(static_cast<std::size_t>(n) * heads_, 0.0f);
  for (int et = 0; et < kNumHetEdgeTypes; ++et) {
    const auto e = static_cast<std::size_t>(et);
    const auto& slice = index.per_edge_type[e];
    if (slice.empty()) continue;
    float* block = logits.data() + static_cast<std::size_t>(slice.concat_offset) * heads_;
    kern.hgt_logits(k_all, q_all, fused->att[e].data(), slice.src.data(), slice.dst.data(),
                    meta + slice.concat_offset, mu, slice.size(), heads_, head_dim_, kqv_cols,
                    inv_sqrt_d, block, node_max.data());
  }
  for (int et = 0; et < kNumHetEdgeTypes; ++et) {
    const auto e = static_cast<std::size_t>(et);
    const auto& slice = index.per_edge_type[e];
    if (slice.empty()) continue;
    const float* block =
        logits.data() + static_cast<std::size_t>(slice.concat_offset) * heads_;
    kern.hgt_accumulate(v_all, fused->msg[e].data(), slice.src.data(), slice.dst.data(),
                        slice.size(), block, node_max.data(), heads_, head_dim_, kqv_cols,
                        h_tilde.data(), denom.data());
  }
  for (int v = 0; v < n; ++v) {
    float* out_row = h_tilde.data() + static_cast<std::size_t>(v) * dim_;
    const float* drow = denom.data() + static_cast<std::size_t>(v) * heads_;
    for (int h = 0; h < heads_; ++h) {
      // Isolated targets have denom 0 and an all-zero row; the clamped
      // divisor keeps them exactly zero (matching the reference's empty
      // segments) without a branch.
      const float inv = 1.0f / std::max(drow[h], 1e-12f);
      float* oh = out_row + h * head_dim_;
      for (int j = 0; j < head_dim_; ++j) oh[j] *= inv;
    }
  }

  // Formula 5 on raw buffers: σ(H~) through the backend GELU (in place),
  // then the per-target-type A-Linear as one `project` call per node type
  // on the cached A panels, writing the type's slice of y with bias and
  // residual — and the encoder's LayerNorm, when given — in its row
  // epilogue.
  kern.gelu(h_tilde.data(), h_tilde.data(), static_cast<int>(row_elems));
  FloatVec y(row_elems);
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    const int begin = index.type_offsets[ts];
    const int rows = index.type_offsets[ts + 1] - begin;
    if (rows == 0) continue;
    const std::size_t first = static_cast<std::size_t>(begin) * dim_sz;
    backend::RowEpilogue epilogue;
    epilogue.bias = fused->a_b[ts].data();
    epilogue.residual = xdata + first;
    if (norm != nullptr) {
      epilogue.ln_gamma = norm->gamma().data().data();
      epilogue.ln_beta = norm->beta().data().data();
      epilogue.ln_eps = norm->eps();
    }
    kern.project(h_tilde.data() + first, fused->a_w[ts].data(), y.data() + first, rows, dim_,
                 dim_, epilogue);
  }
  return make_result({n, dim_}, std::move(y), {}, nullptr);
}

HgtEncoder::HgtEncoder(int dim, int heads, int layers, Rng& rng) {
  for (int i = 0; i < layers; ++i) {
    layers_.push_back(std::make_unique<HgtLayer>(dim, heads, rng));
    norms_.push_back(std::make_unique<LayerNorm>(dim));
    register_child(*layers_.back());
    register_child(*norms_.back());
  }
}

Tensor HgtEncoder::forward(const Tensor& x, const HetGraphIndex& index) const {
  return forward_positions(to_positions(x, index), index);
}

Tensor HgtEncoder::forward_positions(Tensor state, const HetGraphIndex& index) const {
  // Failpoint: a forward-stage fault fails the whole encode call — in the
  // batched serving path that is a batch-level error the scheduler's retry
  // ladder classifies as transient. delay() here models a slow forward.
  if (failpoint::triggered("encode.forward")) {
    throw failpoint::FailpointError("encode.forward");
  }
  if (state.rank() != 2 || state.dim(0) != index.num_nodes) {
    throw std::invalid_argument("HgtEncoder::forward: state shape mismatch");
  }
  const bool taped = grad_enabled();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    // Fused, the norm runs in the layer's A-stage row epilogue.
    state = taped ? norms_[i]->forward(layers_[i]->forward_reference(state, index))
                  : layers_[i]->forward_fused(state, index, norms_[i].get());
  }
  return to_nodes(state, index);
}

Tensor HgtEncoder::forward(const Tensor& x, const HetGraph& graph) const {
  return forward(x, HetGraphIndex(graph));
}

Tensor HgtEncoder::forward_reference(const Tensor& x, const HetGraphIndex& index) const {
  Tensor state = to_positions(x, index);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    state = norms_[i]->forward(layers_[i]->forward_reference(state, index));
  }
  return to_nodes(state, index);
}

}  // namespace g2p
