// Adam with decoupled weight decay (AdamW), the one optimizer training uses.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace g2p {

/// Adam over a fixed parameter list.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f, float beta2 = 0.999f,
       float eps = 1e-8f, float weight_decay = 0.0f);

  /// Apply one update from the accumulated gradients.
  void step();

  /// Clear gradients of all parameters.
  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }

  /// Scale gradients so their global L2 norm is at most `max_norm`.
  void clip_grad_norm(float max_norm);

  const std::vector<Tensor>& params() const { return params_; }

 private:
  std::vector<Tensor> params_;
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  int t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace g2p
