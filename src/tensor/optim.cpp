#include "tensor/optim.h"

#include <cmath>

#include "tensor/ops.h"

namespace g2p {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2, float eps,
           float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].numel(), 0.0f);
    v_[i].assign(params_[i].numel(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& data = params_[i].data();
    auto& grad = params_[i].grad();
    for (std::size_t j = 0; j < data.size(); ++j) {
      m_[i][j] = beta1_ * m_[i][j] + (1.0f - beta1_) * grad[j];
      v_[i][j] = beta2_ * v_[i][j] + (1.0f - beta2_) * grad[j] * grad[j];
      const float mhat = m_[i][j] / bc1;
      const float vhat = v_[i][j] / bc2;
      // Decoupled weight decay (AdamW).
      data[j] -= lr_ * (mhat / (std::sqrt(vhat) + eps_) + weight_decay_ * data[j]);
    }
  }
}

void Adam::clip_grad_norm(float max_norm) {
  const float norm = grad_l2_norm(params_);
  if (norm <= max_norm || norm == 0.0f) return;
  const float factor = max_norm / norm;
  for (auto& p : params_) {
    for (auto& g : p.grad()) g *= factor;
  }
}

}  // namespace g2p
