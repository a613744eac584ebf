#include "nn/hgt.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "support/failpoint.h"
#include "tensor/backend.h"
#include "tensor/fastmath.h"

namespace g2p {

Precision resolve_precision(Precision configured) {
  // -1: no override, 0: force fp32, 1: force int8. Read once, like the
  // other G2P_* knobs (docs/tuning.md).
  static const int forced = [] {
    const char* e = std::getenv("G2P_PRECISION");
    if (e == nullptr) return -1;
    const std::string_view v(e);
    if (v == "int8") return 1;
    if (v == "fp32") return 0;
    if (!v.empty()) {
      std::fprintf(stderr, "g2p: unknown G2P_PRECISION '%s' (want fp32|int8), ignoring\n", e);
    }
    return -1;
  }();
  if (forced == 0) return Precision::kFp32;
  if (forced == 1) return Precision::kInt8;
  return configured;
}

const char* precision_name(Precision p) {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

namespace {

/// One node type's projection stage: gather the type's rows of the [*, dim]
/// source buffer into contiguous scratch, multiply by the cached [dim,
/// out_cols] operand (pool-parallel row panels). Callers scatter `projected`
/// back to node order with their own epilogue (bias / residual folds).
void project_type_rows(const float* src, int dim, const std::vector<int>& rows,
                       const float* weights, int out_cols, ThreadPool* pool,
                       FloatVec& gathered, FloatVec& projected) {
  const auto dim_sz = static_cast<std::size_t>(dim);
  const int rt = static_cast<int>(rows.size());
  gathered.resize(static_cast<std::size_t>(rt) * dim_sz);
  for (int r = 0; r < rt; ++r) {
    std::copy_n(src + static_cast<std::size_t>(rows[static_cast<std::size_t>(r)]) * dim_sz,
                dim_sz, gathered.data() + static_cast<std::size_t>(r) * dim_sz);
  }
  projected.resize(static_cast<std::size_t>(rt) * out_cols);
  backend::matmul_mt(gathered.data(), weights, projected.data(), rt, dim, out_cols, pool);
}

/// Quantize the [*, dim] rows selected by `rows` straight out of the source
/// buffer — the int8 path's gather and quantize are one pass, no float
/// scratch. Sizes the outputs, then dispatches the scan/round work to
/// Kernels::quantize_rows.
void quantize_rows(const float* src, int dim, const std::vector<int>& rows,
                   backend::detail::U8Vec& qa, FloatVec& scales, FloatVec& zeros) {
  const auto count = rows.size();
  qa.resize(count * static_cast<std::size_t>(dim));
  scales.resize(count);
  zeros.resize(count);
  backend::active().quantize_rows(src, rows.data(), static_cast<int>(count), dim, qa.data(),
                                  scales.data(), zeros.data());
}

/// Dequantize one GEMM accumulator row segment into fp32, folding the bias
/// and, optionally, the residual in the same pass:
///   out[j] = sa * (wsc[j] * acc[j]) + za * wzc[j] + bias[j] [+ res[j]]
/// The __restrict contracts (all streams distinct) are what let the
/// contiguous loops vectorize — the int8 epilogue's cost lives here.
inline void dequant_row(const std::int32_t* __restrict acc, const float* __restrict wsc,
                        const float* __restrict wzc, float sa, float za, int m,
                        float* __restrict out, const float* __restrict bias,
                        const float* __restrict res = nullptr) {
  if (res != nullptr) {
    for (int j = 0; j < m; ++j) {
      out[j] = sa * (wsc[j] * static_cast<float>(acc[j])) + za * wzc[j] + bias[j] + res[j];
    }
  } else {
    for (int j = 0; j < m; ++j) {
      out[j] = sa * (wsc[j] * static_cast<float>(acc[j])) + za * wzc[j] + bias[j];
    }
  }
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
  const int n = index.num_nodes;
  std::vector<Tensor> parts;  // projected rows, type-major order
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    const auto& rows = index.rows_of_type[static_cast<std::size_t>(t)];
    if (rows.empty()) continue;
    parts.push_back(lins[static_cast<std::size_t>(t)]->forward(index_select_rows(x, rows)));
  }
  if (parts.empty()) return Tensor::zeros({n, dim_});
  // One fused scatter-on-write pass places the per-type blocks back into
  // node order — cheaper than per-type scatter-add chains over full
  // [N, dim] buffers or a concat followed by a gather.
  return concat_rows_to(parts, index.nodes_by_type);
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
  if (total_edges == 0) {
    // Formula 5 degenerates to the residual path.
    return x;
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
  return forward(x, HetGraphIndex(graph));
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
  // W_V row r]), biases concatenated; the A block stays square.
  const auto dim_sz = static_cast<std::size_t>(dim_);
  fresh->kqv_w.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  fresh->kqv_b.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  fresh->a_w.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  fresh->a_b.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    const Linear* kqv[3] = {k_lin_[ts].get(), q_lin_[ts].get(), v_lin_[ts].get()};
    auto& w = fresh->kqv_w[ts];
    auto& b = fresh->kqv_b[ts];
    w.resize(dim_sz * 3 * dim_sz);
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
    const auto& aw = a_lin_[ts]->weight().data();
    fresh->a_w[ts].assign(aw.begin(), aw.end());
    if (a_lin_[ts]->bias().defined()) {
      const auto& ab = a_lin_[ts]->bias().data();
      fresh->a_b[ts].assign(ab.begin(), ab.end());
    } else {
      fresh->a_b[ts].assign(dim_sz, 0.0f);
    }
  }
  // Int8 images of every fused operand (see FusedWeights). Built even when
  // serving fp32: they cost a few KB and one pass per rebuild, and keying
  // them on the same stamp makes precision flips race-free by construction —
  // the invalidation tests poke parameters and expect BOTH repacks fresh.
  fresh->kqv_q.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  fresh->a_q.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    backend::detail::quantize_weights(fresh->kqv_w[ts].data(), dim_, 3 * dim_,
                                      fresh->kqv_q[ts]);
    backend::detail::quantize_weights(fresh->a_w[ts].data(), dim_, dim_, fresh->a_q[ts]);
  }
  const FusedWeights* published = fresh.get();
  fused_retired_.push_back(std::move(fresh));  // freed with the layer, never earlier
  fused_current_.store(published, std::memory_order_release);
  return published;
}

Tensor HgtLayer::forward_fused(const Tensor& x, const HetGraphIndex& index) const {
  const int n = index.num_nodes;
  if (x.dim(0) != n || x.dim(1) != dim_) {
    throw std::invalid_argument("HgtLayer::forward: state shape mismatch");
  }
  if (index.num_edges == 0) return x;  // residual path, as in the reference
  const NoGradGuard no_grad;  // the fused path never tapes, even if entered directly
  const auto& kern = backend::active();
  const auto fused = fused_weights();
  // Int8 serving: every projection GEMM goes through Kernels::gemm_s8 on
  // the cached weight repacks — activations quantized per row during the
  // gather, fp32 dequant folded into the same bias/residual scatters the
  // fp32 path uses. The edge phases (logits, softmax, accumulate,
  // normalize) are precision-invariant and shared.
  const bool int8 = resolve_precision(precision_) == Precision::kInt8;
  // G2P_HGT_PROFILE (docs/tuning.md): per-stage wall times to stderr, one
  // line per stage per layer forward. Dev-only instrumentation for placing
  // regressions (and the fp32/int8 A-B) without a profiler. Read once, like
  // every other knob: unset, it costs a handful of predictable branches.
  static const bool prof = std::getenv("G2P_HGT_PROFILE") != nullptr;
  auto tp = std::chrono::steady_clock::now();
  const auto mark = [&](const char* what) {
    if (!prof) return;
    const auto now = std::chrono::steady_clock::now();
    std::fprintf(stderr, "  %-10s %7.1f us\n", what,
                 std::chrono::duration<double>(now - tp).count() * 1e6);
    tp = now;
  };

  // Fused projection stage: per node type, one wide [rows, dim] x
  // [dim, 3*dim] GEMM against the cached K|Q|V repack computes all three
  // projections of the type's rows at once — one packed-operand GEMM (with
  // matmul_mt row panels on the configured pool) instead of three taped
  // square matmuls and their gather/concat tensors. The bias folds into the
  // scatter pass that places rows back into node order.
  const std::size_t dim_sz = static_cast<std::size_t>(dim_);
  const std::size_t row_elems = static_cast<std::size_t>(index.num_nodes) * dim_sz;
  FloatVec k_all(row_elems), q_all(row_elems), v_all(row_elems);
  {
    FloatVec gathered, projected;
    backend::detail::U8Vec qa;
    FloatVec a_scale, a_zero;
    backend::detail::I32Vec acc;
    ThreadPool* pool = pool_.get();
    const float* xdata = x.data().data();
    for (int t = 0; t < kNumHetNodeTypes; ++t) {
      const auto ts = static_cast<std::size_t>(t);
      const auto& rows = index.rows_of_type[ts];
      if (rows.empty()) continue;
      const int rt = static_cast<int>(rows.size());
      const float* bias = fused->kqv_b[ts].data();
      if (int8) {
        // Quantize straight out of x (the gather and the row quantizer are
        // one pass), integer GEMM, dequantize in the scatter.
        quantize_rows(xdata, dim_, rows, qa, a_scale, a_zero);
        acc.resize(static_cast<std::size_t>(rt) * 3 * dim_sz);
        backend::gemm_s8_mt(qa.data(), dim_, fused->kqv_q[ts].q.data(), acc.data(),
                            3 * dim_, rt, dim_, 3 * dim_, pool);
        const float* wsc = fused->kqv_q[ts].scale.data();
        const float* wzc = fused->kqv_q[ts].zcomp.data();
        for (int r = 0; r < rt; ++r) {
          const std::int32_t* prow = acc.data() + static_cast<std::size_t>(r) * 3 * dim_sz;
          const float sa = a_scale[static_cast<std::size_t>(r)];
          const float za = a_zero[static_cast<std::size_t>(r)];
          const std::size_t node =
              static_cast<std::size_t>(rows[static_cast<std::size_t>(r)]) * dim_sz;
          dequant_row(prow, wsc, wzc, sa, za, dim_, k_all.data() + node, bias);
          dequant_row(prow + dim_, wsc + dim_, wzc + dim_, sa, za, dim_,
                      q_all.data() + node, bias + dim_);
          dequant_row(prow + 2 * dim_, wsc + 2 * dim_, wzc + 2 * dim_, sa, za, dim_,
                      v_all.data() + node, bias + 2 * dim_);
        }
        continue;
      }
      project_type_rows(xdata, dim_, rows, fused->kqv_w[ts].data(), 3 * dim_, pool, gathered,
                        projected);
      for (int r = 0; r < rt; ++r) {
        const float* prow = projected.data() + static_cast<std::size_t>(r) * 3 * dim_sz;
        const std::size_t node =
            static_cast<std::size_t>(rows[static_cast<std::size_t>(r)]) * dim_sz;
        float* krow = k_all.data() + node;
        float* qrow = q_all.data() + node;
        float* vrow = v_all.data() + node;
        for (int j = 0; j < dim_; ++j) {
          krow[j] = prow[j] + bias[j];
          qrow[j] = prow[dim_ + j] + bias[dim_ + j];
          vrow[j] = prow[2 * dim_ + j] + bias[2 * dim_ + j];
        }
      }
    }
  }

  mark("kqv");
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const float* mu = mu_.data().data();
  const float* q = q_all.data();
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
    kern.hgt_logits(k_all.data(), q, fused->att[e].data(), slice.src.data(), slice.dst.data(),
                    meta + slice.concat_offset, mu, slice.size(), heads_, head_dim_, inv_sqrt_d,
                    block, node_max.data());
  }
  mark("logits");
  for (int et = 0; et < kNumHetEdgeTypes; ++et) {
    const auto e = static_cast<std::size_t>(et);
    const auto& slice = index.per_edge_type[e];
    if (slice.empty()) continue;
    const float* block =
        logits.data() + static_cast<std::size_t>(slice.concat_offset) * heads_;
    kern.hgt_accumulate(v_all.data(), fused->msg[e].data(), slice.src.data(), slice.dst.data(),
                        slice.size(), block, node_max.data(), heads_, head_dim_, h_tilde.data(),
                        denom.data());
  }
  mark("accum");
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
  // then the per-target-type A-Linear as one cached-operand GEMM per node
  // type — the A block lives in the same repack as K|Q|V but applies here,
  // to the activated aggregate — with bias and residual folded into the
  // scatter back to node order.
  mark("norm");
  kern.gelu(h_tilde.data(), h_tilde.data(), static_cast<int>(row_elems));
  mark("gelu");
  FloatVec y(row_elems);
  {
    FloatVec gathered, projected;
    backend::detail::U8Vec qa;
    FloatVec a_scale, a_zero;
    backend::detail::I32Vec acc;
    ThreadPool* pool = pool_.get();
    const float* xdata = x.data().data();
    for (int t = 0; t < kNumHetNodeTypes; ++t) {
      const auto ts = static_cast<std::size_t>(t);
      const auto& rows = index.rows_of_type[ts];
      if (rows.empty()) continue;
      const int rt = static_cast<int>(rows.size());
      const float* bias = fused->a_b[ts].data();
      if (int8) {
        quantize_rows(h_tilde.data(), dim_, rows, qa, a_scale, a_zero);
        acc.resize(static_cast<std::size_t>(rt) * dim_sz);
        backend::gemm_s8_mt(qa.data(), dim_, fused->a_q[ts].q.data(), acc.data(), dim_, rt,
                            dim_, dim_, pool);
        const float* wsc = fused->a_q[ts].scale.data();
        const float* wzc = fused->a_q[ts].zcomp.data();
        for (int r = 0; r < rt; ++r) {
          const std::size_t node =
              static_cast<std::size_t>(rows[static_cast<std::size_t>(r)]) * dim_sz;
          dequant_row(acc.data() + static_cast<std::size_t>(r) * dim_sz, wsc, wzc,
                      a_scale[static_cast<std::size_t>(r)], a_zero[static_cast<std::size_t>(r)],
                      dim_, y.data() + node, bias, xdata + node);
        }
        continue;
      }
      project_type_rows(h_tilde.data(), dim_, rows, fused->a_w[ts].data(), dim_, pool,
                        gathered, projected);
      for (int r = 0; r < rt; ++r) {
        const float* prow = projected.data() + static_cast<std::size_t>(r) * dim_sz;
        const std::size_t node =
            static_cast<std::size_t>(rows[static_cast<std::size_t>(r)]) * dim_sz;
        const float* xrow = xdata + node;
        float* yrow = y.data() + node;
        for (int j = 0; j < dim_; ++j) yrow[j] = prow[j] + bias[j] + xrow[j];
      }
    }
  }
  mark("a_stage");
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
  // Failpoint: a forward-stage fault fails the whole encode call — in the
  // batched serving path that is a batch-level error the scheduler's retry
  // ladder classifies as transient. delay() here models a slow forward.
  if (failpoint::triggered("encode.forward")) {
    throw failpoint::FailpointError("encode.forward");
  }
  Tensor state = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    state = norms_[i]->forward(layers_[i]->forward(state, index));
  }
  return state;
}

Tensor HgtEncoder::forward(const Tensor& x, const HetGraph& graph) const {
  return forward(x, HetGraphIndex(graph));
}

Tensor HgtEncoder::forward_reference(const Tensor& x, const HetGraphIndex& index) const {
  Tensor state = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    state = norms_[i]->forward(layers_[i]->forward_reference(state, index));
  }
  return state;
}

void HgtEncoder::set_precision(Precision p) {
  for (auto& layer : layers_) layer->set_precision(p);
}

void HgtEncoder::set_thread_pool(std::shared_ptr<ThreadPool> pool) {
  for (auto& layer : layers_) layer->set_thread_pool(pool);
}

}  // namespace g2p
