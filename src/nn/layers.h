// Basic layers: Linear, Embedding, LayerNorm, position-wise FFN.
#pragma once

#include "nn/module.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace g2p {

/// y = x W + b, Xavier-uniform initialized.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x) const;

  int in_features() const { return in_; }
  int out_features() const { return out_; }

  /// Parameter handles (the HGT layer's fused-projection cache packs several
  /// Linears' weights into one wide GEMM operand and keys the repack on
  /// their mutation versions).
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }  // undefined when bias-less

 private:
  int in_, out_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out] or undefined
};

/// Lookup table [vocab, dim], N(0, 0.02) initialized.
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, Rng& rng);

  Tensor forward(std::span<const int> ids) const;

  /// The [vocab, dim] table (row i embeds id i).
  const Tensor& table() const { return table_; }
  int vocab_size() const { return vocab_; }
  int dim() const { return dim_; }

 private:
  int vocab_, dim_;
  Tensor table_;
};

/// Learnable per-feature scale/shift layer normalization.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  Tensor forward(const Tensor& x) const { return layer_norm(x, gamma_, beta_, eps_); }

  /// Parameter handles and epsilon, for kernels that fuse the norm into
  /// another op's row epilogue (the fused HGT encoder).
  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }
  float eps() const { return eps_; }

 private:
  Tensor gamma_, beta_;
  float eps_ = 1e-5f;
};

/// Two-layer position-wise feed-forward block with GELU.
class FeedForward : public Module {
 public:
  FeedForward(int dim, int hidden, Rng& rng);

  Tensor forward(const Tensor& x) const { return fc2_.forward(gelu(fc1_.forward(x))); }

 private:
  Linear fc1_, fc2_;
};

}  // namespace g2p
