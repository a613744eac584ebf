// Differentiable tensor operations.
//
// Everything the HGT layer, the transformer baseline, and the training loop
// need: dense linear algebra, GELU, softmax/cross-entropy, and the irregular
// graph ops (gather / segment-softmax / segment sums and means) that make
// heterogeneous message passing efficient on CPU.
//
// All ops are pure: they return fresh tensors wired into the autograd tape.
#pragma once

#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace g2p {

// ---- elementwise / broadcast ----
Tensor add(const Tensor& a, const Tensor& b);        // same shape
Tensor mul(const Tensor& a, const Tensor& b);        // Hadamard, same shape
Tensor scale(const Tensor& a, float factor);
Tensor add_rowvec(const Tensor& x, const Tensor& bias);  // [N,D] + [D]

// ---- activations ----
Tensor gelu(const Tensor& x);     // tanh approximation

// ---- linear algebra ----
Tensor matmul(const Tensor& a, const Tensor& b);     // [N,K] x [K,M] -> [N,M]
/// Fused x W + b: one output pass instead of matmul followed by add_rowvec.
Tensor matmul_bias(const Tensor& x, const Tensor& w, const Tensor& bias);
Tensor transpose(const Tensor& a);                   // [N,M] -> [M,N]
Tensor reshape(const Tensor& a, Shape new_shape);

// ---- reductions ----
Tensor sum_all(const Tensor& x);    // -> scalar

// ---- softmax & losses ----
Tensor softmax_rows(const Tensor& x);       // [N,C] row-wise
/// Mean cross-entropy of logits [N,C] against integer labels (size N).
Tensor cross_entropy(const Tensor& logits, std::span<const int> labels);

// ---- irregular / graph ops ----
/// rows[i] = x[index[i]]; the embedding-lookup / neighbor-gather primitive.
Tensor index_select_rows(const Tensor& x, std::span<const int> index);
/// Softmax over groups: entries sharing segment[i] form one softmax.
/// `logits` is rank-1 [E]; segment ids are in [0, num_segments).
Tensor segment_softmax(const Tensor& logits, std::span<const int> segment, int num_segments);
/// Sum of rows per segment: [N,D] with segment ids -> [S,D], rows added in
/// ascending order. Empty segments yield zero rows; segment ids are
/// validated against num_segments up front.
Tensor segment_sum_rows(const Tensor& x, std::span<const int> segment, int num_segments);
/// Mean of rows per segment: [N,D] with segment ids -> [S,D]. Empty segments
/// yield zero rows.
Tensor segment_mean_rows(const Tensor& x, std::span<const int> segment, int num_segments);
/// Row-wise scaling: out[i,:] = x[i,:] * w[i]; w is rank-1 [N].
Tensor scale_rows(const Tensor& x, const Tensor& w);
/// Fused scale_rows + segment_sum_rows: out[segment[i]] += x[i,:] * w[i]
/// without materializing the weighted rows (the formula-4 aggregation).
Tensor segment_weighted_sum_rows(const Tensor& x, const Tensor& w,
                                 std::span<const int> segment, int num_segments);
/// Row-wise dot product of equal-shape [N,D] tensors -> rank-1 [N].
Tensor row_dot(const Tensor& a, const Tensor& b);

// ---- shape surgery ----
Tensor col_slice(const Tensor& x, int start, int len);   // [N,D] -> [N,len]
Tensor concat_cols(const std::vector<Tensor>& parts);    // [N,di] -> [N,sum di]
Tensor concat_rows(const std::vector<Tensor>& parts);    // [ni,D] -> [sum ni,D]

// ---- normalization ----
Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps = 1e-5f);

// ---- non-differentiable helpers ----
/// Row-wise argmax of [N,C] (predictions).
std::vector<int> argmax_rows(const Tensor& x);
/// Global L2 norm of gradients of `params`.
float grad_l2_norm(const std::vector<Tensor>& params);

}  // namespace g2p
