#include "tensor/tensor.h"

#include <new>
#include <stdexcept>
#include <unordered_set>

#include "support/failpoint.h"
#include "support/rng.h"

namespace g2p {

namespace tensor_pool {

void* acquire(std::size_t bytes) {
  // Failpoint: an injected fault here is allocator-failure semantics — the
  // same throw a bad_alloc would be. Every acquire() caller reaches this
  // through UninitAllocator/FloatVec, which are exception-safe, so the
  // fault surfaces as a (transient) batch-level error, never a leak.
  if (failpoint::triggered("pool.acquire")) {
    throw failpoint::FailpointError("pool.acquire");
  }
  return ::operator new(bytes, std::align_val_t{kAlignment});
}

void release(void* p, std::size_t bytes) noexcept {
  ::operator delete(p, bytes, std::align_val_t{kAlignment});
}

}  // namespace tensor_pool

std::string shape_to_string(const Shape& shape) {
  std::string out = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(shape[i]);
  }
  return out + "]";
}

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension in shape");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  return full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(shape_numel(shape), value);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::from_vector(Shape shape, std::vector<float> values, bool requires_grad) {
  if (shape_numel(shape) != values.size()) {
    throw std::invalid_argument("from_vector: shape " + shape_to_string(shape) +
                                " does not match " + std::to_string(values.size()) + " values");
  }
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data.assign(values.begin(), values.end());
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return from_vector({1}, {value}, requires_grad);
}

Tensor Tensor::randn(Shape shape, Rng& rng, float std_dev, bool requires_grad) {
  std::vector<float> values(shape_numel(shape));
  for (auto& v : values) v = static_cast<float>(rng.normal()) * std_dev;
  return from_vector(std::move(shape), std::move(values), requires_grad);
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float bound, bool requires_grad) {
  std::vector<float> values(shape_numel(shape));
  for (auto& v : values) v = static_cast<float>(rng.uniform(-bound, bound));
  return from_vector(std::move(shape), std::move(values), requires_grad);
}

float Tensor::item() const {
  if (numel() != 1) {
    throw std::logic_error("item() on tensor with numel " + std::to_string(numel()));
  }
  return impl_->data[0];
}

float Tensor::at(std::initializer_list<int> index) const {
  const auto& s = impl_->shape;
  if (index.size() != s.size()) throw std::invalid_argument("at(): rank mismatch");
  std::size_t flat = 0;
  std::size_t i = 0;
  for (int idx : index) {
    if (idx < 0 || idx >= s[i]) throw std::out_of_range("at(): index out of range");
    flat = flat * static_cast<std::size_t>(s[i]) + static_cast<std::size_t>(idx);
    ++i;
  }
  return impl_->data[flat];
}

void Tensor::backward() {
  if (!impl_) throw std::logic_error("backward() on null tensor");
  if (numel() != 1) throw std::logic_error("backward() requires a scalar loss");

  // Topological order via iterative post-order DFS.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      TensorImpl* child = node->parents[next_child].get();
      ++next_child;
      if (!visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  impl_->ensure_grad();
  impl_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) node->backward_fn(*node);
  }
}

void Tensor::zero_grad() {
  if (impl_) impl_->grad.assign(impl_->data.size(), 0.0f);
}

Tensor Tensor::detach() const {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

bool grad_enabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

Tensor make_result(Shape shape, FloatVec data, std::vector<Tensor> parents,
                   std::function<void(const TensorImpl&)> backward_fn) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  if (!g_grad_enabled) return Tensor(std::move(impl));  // inference: no tape
  bool needs_grad = false;
  for (const auto& p : parents) {
    if (p.defined()) {
      impl->parents.push_back(p.impl());
      if (p.requires_grad() || p.impl()->backward_fn) needs_grad = true;
    }
  }
  impl->requires_grad = needs_grad;
  if (needs_grad) impl->backward_fn = std::move(backward_fn);
  return Tensor(std::move(impl));
}

}  // namespace g2p
